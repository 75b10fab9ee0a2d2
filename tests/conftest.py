import sys
from fractions import Fraction
from importlib import import_module

import pytest

from plstab.circle import CircleLift
from plstab import clip
from plstab.clip import polygon_area2
from plstab.complexes import Complex
from plstab.interval import PLMap1D
from plstab import plmap
from plstab.plmap import PLMap
from plstab.tangent import Germ


class TrustedBuildMismatch(AssertionError):
    """A trusted build differs from the validated build of its inputs."""


class ClockwisePolygon(AssertionError):
    """`convex_fan` was handed a clockwise polygon."""


@pytest.fixture(autouse=True)
def check_trusted_builds(monkeypatch):
    """Check mode: every `Complex.trusted`, `Complex.with_points`,
    `PLMap.trusted`, `CircleLift.trusted`, `PLMap1D.trusted` and
    `Germ.trusted` result, and every image that the certificate of
    `plmap._certified_image` accepts, is also built through the validating
    constructor, which must accept it and agree on points, simplices,
    `cell_base` and image, on breakpoint rows, slope ratios and
    orientation, or on fan and matrices, so a bug in an operation that
    builds trusted still fails the tests; a trusted complex's simplices
    must come sorted, as the validating constructor sorts them.  A trusted
    complex's points, and so a trusted map's images, must also be tuples
    of Fractions, and a trusted 1D map's rows and slope ratios tuples of
    ints, as the validating constructor would make them."""
    complex_trusted, with_points = Complex.trusted, Complex.with_points
    certified_image = plmap._certified_image
    plmap_trusted = PLMap.trusted
    lift_trusted, map1d_trusted = CircleLift.trusted, PLMap1D.trusted
    germ_trusted = Germ.trusted

    def checked_complex(cls, points, maximal_simplices):
        return check_complex(complex_trusted(points, maximal_simplices), points,
                             maximal_simplices)

    def checked_with_points(self, points):
        out = with_points(self, points)
        # the certificate builds its image before it decides: the image it
        # accepts is checked by `checked_image`, and one it refuses is none
        if sys._getframe(1).f_code is certified_image.__code__:
            return out
        return check_complex(out, points, self.simplices)

    def checked_image(base, refinement, images):
        out = certified_image(base, refinement, images)
        return out if out is None else check_complex(out, images, refinement.simplices)

    def check_complex(out, points, maximal_simplices):
        ref = Complex(points, maximal_simplices)
        if (out.points, out.simplices) != (ref.points, ref.simplices):
            raise TrustedBuildMismatch(f"{out!r} differs from {ref!r}")
        # a trusted build keeps its points as given, and an int equals its
        # Fraction, so the comparison above cannot see one
        if not all(type(p) is tuple and all(type(c) is Fraction for c in p)
                   for p in out.points):
            raise TrustedBuildMismatch(f"{out!r} has a point that is no tuple of Fractions")
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

    def checked_1d(trusted, cls, args, names):
        out = trusted(*args)
        ref = cls([(Fraction(xn, xd), Fraction(yn, yd)) for xn, xd, yn, yd in args[0]])
        for name in names:
            if getattr(out, name) != getattr(ref, name):
                raise TrustedBuildMismatch(f"{name} of {out!r} differs from {ref!r}")
        # an int equals its Fraction, so the comparison above cannot see one
        if not all(type(r) is tuple and all(type(c) is int for c in r)
                   for r in out.rows + out.slope_ratios):
            raise TrustedBuildMismatch(f"{out!r} has a ratio that is no tuple of ints")
        return out

    def checked_lift(cls, rows, slopes):
        return checked_1d(lift_trusted, CircleLift, (rows, slopes), ("rows", "slope_ratios"))

    def checked_map1d(cls, rows, slopes):
        return checked_1d(map1d_trusted, PLMap1D, (rows, slopes),
                          ("rows", "slope_ratios", "orientation"))

    def checked_germ(cls, fan, matrices):
        out = germ_trusted(fan, matrices)
        ref = Germ(fan=fan, matrices=matrices)
        if (out.fan, out.matrices) != (ref.fan, ref.matrices):
            raise TrustedBuildMismatch(f"{out!r} differs from {ref!r}")
        return out

    monkeypatch.setattr(Complex, "trusted", classmethod(checked_complex))
    monkeypatch.setattr(Complex, "with_points", checked_with_points)
    monkeypatch.setattr(plmap, "_certified_image", checked_image)
    monkeypatch.setattr(PLMap, "trusted", classmethod(checked_plmap))
    monkeypatch.setattr(CircleLift, "trusted", classmethod(checked_lift))
    monkeypatch.setattr(PLMap1D, "trusted", classmethod(checked_map1d))
    monkeypatch.setattr(Germ, "trusted", classmethod(checked_germ))


@pytest.fixture(autouse=True)
def check_counter_clockwise_polygons(monkeypatch):
    """Every polygon that `overlay.refine` (under overlay, compose, inverse
    and equality) and the fixed locus hand to `convex_fan` is
    counter-clockwise, as it requires."""
    def checking(triangulate):
        def checked(poly, homs):
            if polygon_area2(poly) < 0:
                raise ClockwisePolygon(f"{poly} is clockwise")
            return triangulate(poly, homs)
        return checked

    # by module path: the package's `overlay` is the function
    for module in ("fixedlocus", "overlay"):
        monkeypatch.setattr(import_module(f"plstab.{module}"), "convex_fan",
                            checking(clip.convex_fan))


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
