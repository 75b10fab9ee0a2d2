"""Derived maps are built trusted, from provenance: oracle tests against
point location, the area tripwires, and the check mode of conftest.py."""

from fractions import Fraction as F

import pytest
from hypothesis import Phase, assume, given, settings, strategies as st

from plstab.complexes import Complex
from plstab.errors import InternalError, InvalidComplex
from plstab.fixedlocus import fixed_subcomplex
from plstab.geometry import homogeneous
from plstab.overlay import overlay
from plstab.plmap import PLMap, compose2d, inverse2d

from support import (SYMMETRIES, _along_boundary, affine, cell_points, grid_complex,
                     square_complex)

GRID = grid_complex(2)
OFFSETS = st.lists(st.tuples(st.integers(-1, 1), st.integers(-1, 1)),
                   min_size=len(GRID.points), max_size=len(GRID.points))
SYMMETRY = st.integers(0, len(SYMMETRIES) - 1)
# no shrink phase: shrinking a failing example rebuilds maps at every step
# and took minutes, so a failure is reported as first found
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)


def near_identity(offsets, sym):
    """The 2x2 grid with each vertex moved by offsets/8 (boundary points
    along their side), then a symmetry of the square; None if that is no
    homeomorphism."""
    images = [SYMMETRIES[sym](x + F(dx, 8), y + F(dy, 8))
              for (x, y), (dx, dy) in ((p, _along_boundary(p, d))
                                       for p, d in zip(GRID.points, offsets))]
    try:
        return PLMap(GRID, GRID, images)
    except InvalidComplex:
        return None


@settings(max_examples=12, deadline=None, phases=NO_SHRINK)
@given(OFFSETS, SYMMETRY, OFFSETS, SYMMETRY)
def test_compose_images_match_point_location(off_f, sym_f, off_g, sym_g):
    f, g = near_identity(off_f, sym_f), near_identity(off_g, sym_g)
    assume(f is not None and g is not None)
    for a, b in ((f, g), (f, compose2d(g, f))):
        h = compose2d(a, b)
        for q, image in zip(h.refinement.points, h.images):
            assert image == a.eval(b.eval(q))


@settings(max_examples=12, deadline=None, phases=NO_SHRINK)
@given(OFFSETS, SYMMETRY, st.booleans())
def test_fixed_flags_match_point_location(offsets, sym, composite):
    f = near_identity(offsets, sym)
    assume(f is not None)
    if composite:
        f = compose2d(f, f)
    fl = fixed_subcomplex(f)
    fixed = {s[0] for s in fl.cells.of_dim(0)}
    for v, p in enumerate(fl.refined.points):
        assert (v in fixed) == (f.eval(p) == p)


@settings(max_examples=12, deadline=None, phases=NO_SHRINK)
@given(OFFSETS, SYMMETRY)
def test_inverse_then_map_is_identity(offsets, sym):
    f = near_identity(offsets, sym)
    assume(f is not None)
    assert compose2d(inverse2d(f), f).is_identity()


@settings(max_examples=12, deadline=None, phases=NO_SHRINK)
@given(OFFSETS, SYMMETRY, st.booleans())
def test_inverse_pullbacks_agree_on_every_incident_cell(offsets, sym, composite):
    """`inverse2d` pulls each overlay vertex back once; every overlay cell
    at the vertex pulls it back, through its own image cell, to that point."""
    f = near_identity(offsets, sym)
    assume(f is not None)
    if composite:
        f = compose2d(f, f)
    inv = inverse2d(f)
    ov = overlay(f.image, f.base)
    srcs, imgs = cell_points(f.refinement), cell_points(f.image)
    assert inv.refinement.points == ov.cells.points
    incidences = 0
    for s, (i, _) in ov.provenance.items():
        for v in s:
            assert affine(imgs[i], srcs[i], ov.cells.points[v]) == inv.images[v]
            incidences += 1
    assert incidences > len(ov.cells.points)


def test_tripwire_on_a_lost_cell():
    sq = square_complex()
    three = Complex(sq.points, sq.simplices[:3])
    with pytest.raises(InternalError, match="area"):
        PLMap.trusted(sq, three, three.hom_points(), range(3))


def test_check_mode_validates_trusted_builds():
    sq = square_complex()
    # the centre pushed past the right edge: the area identities hold, but
    # the image cells overlap, which only validation sees
    folded = [*sq.hom_points()[:4], homogeneous((2, F(1, 2)))]
    with pytest.raises(InvalidComplex, match="overlap"):
        PLMap.trusted(sq, sq, folded, range(4))
    with pytest.raises(InvalidComplex, match="overlap"):
        Complex.trusted(folded, sq.simplices)
    with pytest.raises(InvalidComplex, match="overlap"):
        sq.with_points(folded)


def test_check_mode_requires_canonical_rows():
    """A trusted build keeps the rows it is given, and a row that is not
    reduced or has W < 0, or one that holds a Fraction or a bool, names its
    point but compares and hashes unlike the validating build's row, so
    check mode asks for canonical rows outright: tuples of ints, W > 0,
    gcd 1."""
    sq = Complex([(0, 0), (1, 0), (1, 1), (0, 1)], [(0, 1, 2), (0, 2, 3)])
    rows = list(sq.hom_points())
    assert rows == [(0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)]
    for bad in ((2, 2, 2), (-1, -1, -1), (F(1), 1, 1), (True, True, True), [1, 1, 1],
                (F(1), F(1))):
        homs = rows[:2] + [bad] + rows[3:]
        with pytest.raises(AssertionError, match="no canonical row"):
            Complex.trusted(homs, sq.simplices)
        with pytest.raises(AssertionError, match="no canonical row"):
            PLMap.trusted(sq, sq, homs, range(2))
