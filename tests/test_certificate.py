"""The local homeomorphism certificate of `PLMap` in the plane, against the
exact checks it stands in for."""

from fractions import Fraction as F

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from plstab import plmap
from plstab.complexes import Complex
from plstab.errors import InvalidComplex, RealizationMismatch
from plstab.plmap import PLMap

from support import (GRIDS, SYMMETRIES, centroid_split, certified_image, grid_map,
                     interior_move_map, square_complex, two_squares)

NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)


def outcome(base, refinement, images):
    """What `PLMap(...)` does with the inputs: the cell homes and image it
    accepts with, or the type and message of what it raises."""
    try:
        f = PLMap(base, refinement, images)
    except (InvalidComplex, RealizationMismatch) as e:
        return type(e), str(e)
    return f.cell_base, f.image


def exact_outcome(base, refinement, images):
    """`outcome` with the certificate switched off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(plmap, "_certified_image", lambda *args: False)
        return outcome(base, refinement, images)


def certificate_only(base, refinement, images):
    """`outcome` with the exact path switched off: raises unless the
    certificate accepts."""
    def refuse(self):
        raise AssertionError("the exact path ran")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PLMap, "_check_image_exactly", refuse)
        return outcome(base, refinement, images)


OFFSET = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
OFFSETS = st.lists(OFFSET, min_size=16, max_size=16)  # one per vertex of GRIDS[3]
CENTRE_OFFSETS = st.lists(OFFSET, min_size=18, max_size=18)  # one per cell
GRID_MAPS = st.builds(
    grid_map, st.sampled_from(sorted(GRIDS)), OFFSETS, CENTRE_OFFSETS,
    st.sampled_from(["fixed", "slide", "free"]),
    st.integers(0, len(SYMMETRIES) - 1),
    st.sampled_from(["same", "copy", "centroids"]))
ZERO = [(0, 0)] * 18


def _swap_squares():
    base = two_squares()
    return base, base, ([(x + 2, y) for x, y in base.points[:4]]
                        + [(x - 2, y) for x, y in base.points[4:]])


@settings(max_examples=80, deadline=None, phases=NO_SHRINK)
@given(GRID_MAPS)
@example(_swap_squares())
@example(grid_map(3, ZERO, ZERO, "fixed", 5, "centroids"))
def test_certified_maps_pass_the_exact_checks(case):
    """A certified image is the image the exact path accepts, and with or
    without the certificate `PLMap` accepts or raises alike."""
    base, refinement, images = case
    expected = exact_outcome(base, refinement, images)
    certified = certified_image(base, refinement, images)
    if certified is not None:
        assert not isinstance(expected[0], type) and expected[1] == certified
    assert outcome(base, refinement, images) == expected


@settings(max_examples=60, deadline=None, phases=NO_SHRINK)
@given(st.sampled_from(sorted(GRIDS)), OFFSETS,
       st.integers(0, len(SYMMETRIES) - 1), st.sampled_from(["same", "copy"]))
def test_homeomorphisms_fixing_the_boundary_are_certified(n, offsets, sym, refine):
    """Whenever the exact path accepts a map whose boundary vertices go to
    base vertices, the certificate accepts it too, with the same result."""
    case = grid_map(n, offsets, ZERO, "fixed", sym, refine)
    expected = exact_outcome(*case)
    if isinstance(expected[0], type):
        return  # not a homeomorphism
    assert certificate_only(*case) == expected


def test_swapping_the_squares_is_certified():
    case = _swap_squares()
    assert certificate_only(*case) == exact_outcome(*case)


def test_subdivided_boundary_takes_the_exact_path():
    base = GRIDS[2]
    finer = centroid_split(base)
    assert certified_image(base, finer, finer.points) is not None
    # (1/4, 0) splits the base boundary edge from (0, 0) to (1/2, 0)
    split = Complex(list(base.points) + [(F(1, 4), F(0))],
                    [s for s in base.simplices if s != (0, 1, 4)] + [(0, 9, 4), (1, 4, 9)])
    assert certified_image(base, split, split.points) is None
    assert PLMap(base, split, split.points).is_identity()


# -- maps the certificate rejects ------------------------------------------


def nested_squares():
    """A square annulus [0,3]^2 - (1,2)^2 and, in its hole, the square
    [5/4,7/4]^2: a disconnected base with a hole."""
    outer = [(0, 0), (3, 0), (3, 3), (0, 3)]
    inner = [(1, 1), (2, 1), (2, 2), (1, 2)]
    small = [(F(5, 4), F(5, 4)), (F(7, 4), F(5, 4)), (F(7, 4), F(7, 4)), (F(5, 4), F(7, 4))]
    sims = []
    for k in range(4):
        k1 = (k + 1) % 4
        sims += [(k, k1, 4 + k1), (k, 4 + k1, 4 + k)]
    sims += [(8, 9, 10), (8, 10, 11)]
    return Complex(outer + inner + small, sims)


def _on_itself(base, images):
    return base, base, images


SQUARE, MOVE, TWO, NESTED = (square_complex(), interior_move_map().base,
                             two_squares(), nested_squares())
REJECTED = {
    # the interior vertex pushed across the edge opposite it: one cell flips
    "fold": _on_itself(MOVE, list(MOVE.points[:6]) + [(F(1, 4), F(1, 2))]),
    # the centre pushed past the right edge: the right cell leaves the base
    "fold at the boundary": _on_itself(SQUARE, list(SQUARE.points[:4]) + [(2, F(1, 2))]),
    "both squares onto one": _on_itself(TWO, list(TWO.points[:4]) * 2),
    "lifted square": _on_itself(TWO, list(TWO.points[:4])
                                + [(x, y + 5) for x, y in TWO.points[4:]]),
    # the centre on the bottom side: cell (0, 1, 4) has no area
    "degenerate cell": _on_itself(SQUARE, list(SQUARE.points[:4]) + [(F(1, 2), 0)]),
    # the corner (0, 0) onto the corner (1, 1), its cells still nondegenerate
    "duplicate image point": _on_itself(GRIDS[3], [(1, 1)] + list(GRIDS[3].points[1:])),
    # the annulus onto [0,3]^2 less the small square, the small square onto
    # the hole: each boundary edge lands on a base boundary edge, and half
    # of them run against its direction
    "reversed boundary": _on_itself(NESTED, list(NESTED.points[:4]) + list(NESTED.points[8:])
                                    + list(NESTED.points[4:8])),
}

EXACT_ERRORS = {
    "fold": (InvalidComplex, "overlap"),
    "fold at the boundary": (InvalidComplex, "overlap"),
    "both squares onto one": (InvalidComplex, "lie at one point"),
    "lifted square": (RealizationMismatch, "leaves the base realization"),
    "degenerate cell": (InvalidComplex, "degenerate"),
    "duplicate image point": (InvalidComplex, "lie at one point"),
    "reversed boundary": (InvalidComplex, "overlap"),
}


@pytest.mark.parametrize("name", sorted(REJECTED))
def test_rejected_maps(name):
    base, refinement, images = REJECTED[name]
    assert certified_image(base, refinement, images) is None
    kind, message = EXACT_ERRORS[name]
    with pytest.raises(kind, match=message):
        PLMap(base, refinement, images)
    assert outcome(base, refinement, images) == exact_outcome(base, refinement, images)


# -- the exact path's errors, pinned ---------------------------------------


def _scaled_square():
    """The unit square onto [0, 2]^2: a valid image of twice the size."""
    return _on_itself(SQUARE, [(2 * x, 2 * y) for x, y in SQUARE.points])


def _folded_arc():
    """The arc 0-1-3 folded: 1 goes to 2 and 3 back to 1."""
    arc = Complex([(0,), (1,), (3,)], [(0, 1), (1, 2)])
    return _on_itself(arc, [(0,), (2,), (1,)])


# each rejection that the exact path decides, with the type and the whole
# message it raises, as they were before the image was built on the
# refinement's incidence record: the split of the point checks out of
# `Complex` validation keeps their order, so these stay as they are
EXACT_PATH_PINS = {
    "degenerate image triangle": (lambda: PLMap(*REJECTED["degenerate cell"]),
                                  InvalidComplex, "degenerate triangle (0, 1, 4)"),
    "two image vertices at one point": (lambda: PLMap(*REJECTED["duplicate image point"]),
                                        InvalidComplex, "vertices 0 and 15 lie at one point"),
    "overlapping image cells": (lambda: PLMap(*REJECTED["fold"]),
                                InvalidComplex, "simplices (0, 4, 5) and (1, 2, 6) overlap"),
    "image cell leaves the base": (lambda: PLMap(*REJECTED["lifted square"]), RealizationMismatch,
                                   "an image cell leaves the base realization"),
    "image area differs": (lambda: PLMap(*_scaled_square()),
                           RealizationMismatch, "image area differs from base area"),
    "folding 1D image": (lambda: PLMap(*_folded_arc()),
                         InvalidComplex, "simplices (0, 1) and (1, 2) overlap"),
    "overlapping 1-complex": (lambda: Complex([(0,), (2,), (1,), (3,)], [(0, 1), (2, 3)]),
                              InvalidComplex, "simplices (0, 1) and (2, 3) overlap"),
    # the degenerate cell is found before the face in three cells
    "degenerate cell on a face in three cells": (
        lambda: Complex([(0, 0), (1, 0), (0, 1), (0, -1), (2, 0)],
                        [(0, 1, 2), (0, 1, 3), (0, 1, 4)]),
        InvalidComplex, "degenerate triangle (0, 1, 4)"),
}


@pytest.mark.parametrize("name", sorted(EXACT_PATH_PINS))
def test_exact_path_errors_are_pinned(name):
    build, kind, message = EXACT_PATH_PINS[name]
    with pytest.raises(kind) as caught:
        build()
    assert type(caught.value) is kind and str(caught.value) == message
