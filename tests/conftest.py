import sys
from fractions import Fraction
from importlib import import_module
from math import gcd

import pytest

import support
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
    complex, and so a trusted map's image, must be handed its points as
    canonical `homogeneous` rows (tuples of ints with W > 0 and gcd 1, as
    the validating constructor makes them), and is then validated through
    its `points` view; a trusted 1D map's rows and slope ratios must be
    tuples of ints."""
    complex_trusted, with_points = Complex.trusted, Complex.with_points
    certified_image = plmap._certified_image
    image_builders = {PLMap.__init__.__code__, support.certified_image.__code__}
    plmap_trusted = PLMap.trusted
    lift_trusted, map1d_trusted = CircleLift.trusted, PLMap1D.trusted
    germ_trusted = Germ.trusted

    def checked_complex(cls, homs, maximal_simplices):
        return check_complex(complex_trusted(homs, maximal_simplices), homs,
                             maximal_simplices)

    def checked_with_points(self, homs):
        out = with_points(self, homs)
        # `PLMap(...)` builds its image before it decides, and
        # `support.certified_image` builds it as `PLMap(...)` does: the image
        # the certificate accepts is checked by `checked_image`, and the
        # exact checks validate any other, which may be no complex at all
        if sys._getframe(1).f_code in image_builders:
            return out
        return check_complex(out, homs, self.simplices)

    def checked_image(base, image):
        accepted = certified_image(base, image)
        if accepted:
            check_complex(image, image.hom_points(), image.simplices)
        return accepted

    def check_complex(out, homs, maximal_simplices):
        # the rows are kept as handed, and a bool or a row that is not
        # reduced would compare or hash unlike the validating build's
        if not all(type(h) is tuple and all(type(c) is int for c in h) and h[-1] > 0
                   and gcd(*h) == 1 for h in homs):
            raise TrustedBuildMismatch(f"{out!r} is handed a point that is no canonical row")
        ref = Complex(out.points, maximal_simplices)
        if (out.hom_points(), out.simplices) != (ref.hom_points(), ref.simplices):
            raise TrustedBuildMismatch(f"{out!r} differs from {ref!r}")
        return out

    def checked_plmap(cls, base, refinement, images, cell_base):
        out = plmap_trusted(base, refinement, images, cell_base)
        ref = PLMap(base, refinement, out.images)
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
        def checked(homs):
            if polygon_area2(homs)[0] < 0:
                raise ClockwisePolygon(f"{homs} is clockwise")
            return triangulate(homs)
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
