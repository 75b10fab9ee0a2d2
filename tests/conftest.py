from importlib import import_module

import pytest

from plstab.clip import polygon_area2, triangulate_convex
from plstab.complexes import Complex
from plstab.plmap import PLMap


class TrustedBuildMismatch(AssertionError):
    """A trusted build differs from the validated build of its inputs."""


class ClockwisePolygon(AssertionError):
    """`triangulate_convex` was handed a clockwise polygon."""


@pytest.fixture(autouse=True)
def check_trusted_builds(monkeypatch):
    """Check mode: every `Complex.trusted` and `PLMap.trusted` result is
    also built through the validating constructor, which must accept it and
    agree on points, simplices, `cell_base` and image, so a bug in an
    operation that builds trusted still fails the tests."""
    complex_trusted, plmap_trusted = Complex.trusted, PLMap.trusted

    def checked_complex(cls, points, maximal_simplices, connected_flag):
        out = complex_trusted(points, maximal_simplices, connected_flag)
        ref = Complex(points, maximal_simplices, require_connected=connected_flag)
        if (out.points, out.simplices) != (ref.points, ref.simplices):
            raise TrustedBuildMismatch(f"{out!r} differs from {ref!r}")
        return out

    def checked_plmap(cls, base, refinement, images, cell_base):
        out = plmap_trusted(base, refinement, images, cell_base)
        ref = PLMap(base, refinement, images)
        for name in ("cell_base", "images"):
            if getattr(out, name) != getattr(ref, name):
                raise TrustedBuildMismatch(f"{name} of {out!r} differs")
        if out.image != ref.image:
            raise TrustedBuildMismatch(f"image of {out!r} differs")
        return out

    monkeypatch.setattr(Complex, "trusted", classmethod(checked_complex))
    monkeypatch.setattr(PLMap, "trusted", classmethod(checked_plmap))


@pytest.fixture(autouse=True)
def check_counter_clockwise_polygons(monkeypatch):
    """Every polygon that compose, overlay and the fixed locus hand to
    `triangulate_convex` is counter-clockwise, as it requires."""
    def checked(poly):
        if polygon_area2(poly) < 0:
            raise ClockwisePolygon(f"{poly} is clockwise")
        return triangulate_convex(poly)

    # by module path: the package's `overlay` is the function
    for name in ("fixedlocus", "overlay", "plmap"):
        monkeypatch.setattr(import_module(f"plstab.{name}"), "triangulate_convex", checked)


def pytest_terminal_summary(terminalreporter):
    try:
        import test_acceptance
    except ImportError:
        return
    lines = getattr(test_acceptance, "RESULTS", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(lines):
            terminalreporter.write_line(line)
