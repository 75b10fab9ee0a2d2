"""The refinement check of `PLMap(...)`, the cover accounting of
`overlay.realized_pieces`, against the oracle it replaced: a containment
test per cell pair and a tiling test (`support.refinement_homes`)."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from plstab.complexes import Complex
from plstab.errors import InvalidComplex, RealizationMismatch
from plstab.plmap import PLMap

from support import grid_complex, random_splits, refinement_homes


def outcomes(base, refinement):
    """The oracle's and `PLMap`'s verdicts on the refinement, each the cell
    homes it accepts with or the class of what it raises.  The map is the
    identity on the refinement, so every refinement that tiles the base
    gives a homeomorphism."""
    def verdict(check, *args):
        try:
            return check(*args)
        except RealizationMismatch as e:
            return type(e)
    return (verdict(refinement_homes, base, refinement),
            verdict(lambda: PLMap(base, refinement, refinement.points).cell_base))


@st.composite
def grid_refinements(draw):
    """A grid base and its refinement by centroid and edge-midpoint splits,
    as it is or with one vertex nudged by a multiple of 1/(48n) in each
    coordinate: across a base edge, off the base, or within its cell."""
    n = draw(st.integers(1, 3))
    base = grid_complex(n)
    fine = random_splits(random.Random(draw(st.integers(0, 10**6))), base.points,
                         base.simplices, len(base.simplices) + draw(st.integers(0, 8)))
    points = list(fine.points)
    k = draw(st.integers(0, len(points) - 1))
    dx, dy = draw(st.one_of(st.just((0, 0)),
                            st.tuples(st.integers(-2, 2), st.integers(-2, 2))))
    points[k] = (points[k][0] + F(dx, 48 * n), points[k][1] + F(dy, 48 * n))
    return base, points, fine.simplices


@settings(max_examples=150, deadline=None)
@given(grid_refinements())
def test_planar_refinement_check_matches_the_oracle(case):
    base, points, simplices = case
    try:
        refinement = Complex(points, simplices)
    except InvalidComplex:
        return  # the nudge folded a cell: no refinement to check
    expected, got = outcomes(base, refinement)
    assert got == expected


# the L-shaped polyline from (0, 0) over (1, 0) to (1, 1)
L_BASE = Complex([(0, 0), (1, 0), (1, 1)], [(0, 1), (1, 2)])
INNER = st.lists(st.fractions(F(1, 16), F(15, 16), max_denominator=16), max_size=3, unique=True)


def polyline(start, legs, end, cut):
    """The polyline from (start, 0) along the bottom leg, up the right leg,
    to (1, end), through the given interior parameters of each leg; with
    ``cut`` it leaves out the corner (1, 0)."""
    bottom = sorted(x for x in legs[0] if x > start)
    right = sorted(y for y in legs[1] if y < end)
    points = ([(start, 0)] + [(x, 0) for x in bottom] + ([] if cut else [(1, 0)])
              + [(1, y) for y in right] + [(1, end)])
    points = [(F(x), F(y)) for x, y in points]
    return Complex(points, [(k, k + 1) for k in range(len(points) - 1)])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([F(-1, 4), F(0), F(1, 4)]), st.tuples(INNER, INNER),
       st.sampled_from([F(3, 4), F(1), F(5, 4)]), st.booleans())
@example(F(0), ([F(1, 2)], [F(1, 2)]), F(1), True)
@example(F(1, 4), ([], []), F(1), False)
@example(F(0), ([], []), F(5, 4), False)
@example(F(0), ([F(1, 2)], []), F(1), False)
def test_1d_refinement_check_matches_the_oracle(start, legs, end, cut):
    """Refinements of the L-shaped polyline; one that cuts the corner, starts
    or ends short of the base's ends, or runs past them is rejected."""
    if cut and not (any(x > start for x in legs[0]) and any(y < end for y in legs[1])):
        return  # the cut runs from an inner point of one leg to the other's
    expected, got = outcomes(L_BASE, polyline(start, legs, end, cut))
    assert got == expected
    assert (got is RealizationMismatch) == (cut or start != 0 or end != 1)


@pytest.mark.parametrize("case, expected", [
    ((F(0), ([F(1, 2)], [F(1, 4), F(3, 4)]), F(1), False), (0, 0, 1, 1, 1)),
    ((F(0), ([], []), F(1), False), (0, 1)),
], ids=["subdivided", "same"])
def test_1d_refinement_homes(case, expected):
    assert outcomes(L_BASE, polyline(*case)) == (expected, expected)


@pytest.mark.parametrize("end, message", [
    ((1, F(1, 2)), "image does not cover the base"),
    ((1, 2), "an image cell leaves the base realization"),
    ((2, 0), "an image cell leaves the base realization"),
], ids=["short", "long", "off"])
def test_1d_image_check_messages(end, message):
    """The image check on the L-shaped polyline, whose end goes to ``end``:
    the image segments must lie on the base and cover it."""
    with pytest.raises(RealizationMismatch, match=message):
        PLMap(L_BASE, L_BASE, [(0, 0), (1, 0), end])
