import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from plstab.clip import point_in_triangle
from plstab.complexes import Complex, triangle_area2
from plstab.errors import RealizationMismatch
from plstab.geometry import affine_point, homogeneous
from plstab.overlay import overlay, realized_pieces, refine

from support import (overlay_cells_by_points, polygon_centroid_on_fractions, random_splits,
                     random_square_triangulation, refinement_by_points, segment_pieces_by_tiling,
                     triangulate_convex)


def two_diagonals():
    pts = [(0, 0), (1, 0), (1, 1), (0, 1)]
    c1 = Complex(pts, [(0, 1, 2), (0, 2, 3)])
    c2 = Complex(pts, [(0, 1, 3), (1, 2, 3)])
    return c1, c2


def total_area(c):
    return sum(triangle_area2(tuple(c.points[v] for v in s)) / 2
               for s in c.simplices)


def test_overlay_square_diagonals():
    c1, c2 = two_diagonals()
    ov = overlay(c1, c2)
    assert len(ov.cells.simplices) == 4
    assert len(ov.cells.points) == 5  # the center appears
    assert total_area(ov.cells) == 1
    for s, (i1, i2) in ov.provenance.items():
        tri1 = [c1.points[v] for v in c1.simplices[i1]]
        tri2 = [c2.points[v] for v in c2.simplices[i2]]
        for v in s:
            assert point_in_triangle(ov.cells.points[v], tri1)
            assert point_in_triangle(ov.cells.points[v], tri2)


def test_overlay_identical_is_same_partition():
    c1, _ = two_diagonals()
    ov = overlay(c1, c1)
    assert total_area(ov.cells) == 1
    assert len(ov.cells.simplices) == 2


def test_overlay_1d():
    c1 = Complex([(0,), (F(1, 2),), (1,)], [(0, 1), (1, 2)])
    c2 = Complex([(0,), (F(1, 3),), (1,)], [(0, 1), (1, 2)])
    ov = overlay(c1, c2)
    xs = sorted(p[0] for p in ov.cells.points)
    assert xs == [0, F(1, 3), F(1, 2), 1]
    assert len(ov.cells.simplices) == 3


def test_overlay_mismatched_realization():
    c1 = Complex([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    c2 = Complex([(0, 0), (2, 0), (0, 2)], [(0, 1, 2)])
    with pytest.raises(RealizationMismatch):
        overlay(c1, c2)


def test_overlay_refuses_inputs_of_different_dimensions():
    c1, _ = two_diagonals()
    edges = Complex(c1.points, [(0, 1), (1, 2), (2, 3), (0, 3)])
    for t1, t2 in ((c1, edges), (edges, c1)):
        with pytest.raises(RealizationMismatch, match="inputs have different dimensions"):
            overlay(t1, t2)


def test_random_overlays_conserve_area():
    rng = random.Random(12)
    for _ in range(12):
        c1 = random_square_triangulation(rng)
        c2 = random_square_triangulation(rng)
        ov = overlay(c1, c2)
        assert total_area(ov.cells) == 1
        for s, (i1, i2) in ov.provenance.items():
            tri1 = [c1.points[v] for v in c1.simplices[i1]]
            tri2 = [c2.points[v] for v in c2.simplices[i2]]
            cen = tuple(sum(ov.cells.points[v][j] for v in s) / 3
                        for j in range(2))
            assert point_in_triangle(cen, tri1)
            assert point_in_triangle(cen, tri2)


def test_overlay_1d_in_the_plane():
    square = [(0, 0), (1, 0), (1, 1), (0, 1)]
    c1 = Complex(square, [(0, 1), (1, 2), (2, 3), (0, 3)])
    c2 = Complex(square + [(F(1, 2), 0), (1, F(1, 3))],
                 [(0, 4), (4, 1), (1, 5), (5, 2), (2, 3), (0, 3)])
    ov = overlay(c1, c2)
    assert len(ov.cells.simplices) == 6
    assert sorted(ov.cells.points) == sorted(c2.points)
    for s, (i1, i2) in ov.provenance.items():
        assert {ov.cells.points[v] for v in s} == {c2.points[v] for v in c2.simplices[i2]}
        a, b = (c1.points[v] for v in c1.simplices[i1])
        for v in s:
            p = ov.cells.points[v]
            assert min(a, b) <= p <= max(a, b)
    with pytest.raises(RealizationMismatch):
        overlay(c1, Complex([(0, 0), (1, 0), (1, 1), (0, 2)],
                            [(0, 1), (1, 2), (2, 3), (0, 3)]))


# -- 1-complexes against the parameter-interval accounting ---------------


def _outcome(run):
    """run()'s result, or the type and message of the `RealizationMismatch`
    it raised."""
    try:
        return run()
    except RealizationMismatch as e:
        return type(e), str(e)


def _at(corners, s):
    """The point at parameter s of the polyline through ``corners``, whose
    k-th segment runs over [k, k + 1]."""
    k = min(int(s), len(corners) - 2)
    (x0, y0), (x1, y1) = corners[k], corners[k + 1]
    return (x0 + (s - k) * (x1 - x0), y0 + (s - k) * (y1 - y0))


@st.composite
def polyline_pairs(draw):
    """Two subdivisions of one polyline through x-increasing corners, in the
    plane under a drawn linear map or, projected onto x, on a line, their
    vertices numbered in a drawn order; then the second may be cut short by
    half its last segment, extended by a segment, or (in the plane) bent at
    a vertex inside a segment, so the two realize different sets."""
    corners = [(F(0), F(0))]
    for _ in range(draw(st.integers(1, 3))):
        x, y = corners[-1]
        corners.append((x + draw(st.integers(1, 3)), y + draw(st.integers(-2, 2))))
    end = len(corners) - 1
    on_line = draw(st.booleans())
    # a turn by a right angle makes the horizontal segments vertical
    (a, b), (c, d) = draw(st.sampled_from([((1, 0), (0, 1)), ((0, -1), (1, 0)),
                                           ((2, -1), (1, 3))]))
    mutation = draw(st.sampled_from(["none", "short", "long"] + ["bent"] * (not on_line)))

    def subdivision(second):
        inner = draw(st.sets(st.fractions(0, end, max_denominator=6), max_size=4))
        params = sorted(set(range(end + 1)) | inner)
        pts = [_at(corners, s) for s in params]
        if second and mutation == "short":
            pts[-1] = tuple((u + v) / 2 for u, v in zip(pts[-2], pts[-1]))
        elif second and mutation == "long":
            pts.append((pts[-1][0] + 1, pts[-1][1]))
        elif second and mutation == "bent":
            inside = [k for k, s in enumerate(params) if s.denominator != 1]
            if inside:
                k = draw(st.sampled_from(inside))
                pts[k] = (pts[k][0], pts[k][1] + 1)
        pts = [(x,) for x, _ in pts] if on_line else [(a * x + b * y, c * x + d * y)
                                                       for x, y in pts]
        order = draw(st.permutations(range(len(pts))))
        where = {k: v for v, k in enumerate(order)}
        return Complex([pts[k] for k in order],
                       [(where[k], where[k + 1]) for k in range(len(pts) - 1)])

    return subdivision(False), subdivision(True)


@settings(max_examples=200, deadline=None)
@given(polyline_pairs(), st.booleans())
def test_segment_cover_accounting_matches_the_parameter_intervals(pair, swap):
    """`realized_pieces` and `overlay` on 1-complexes, with end-point pieces
    and one measure accounting, give the pieces, the overlay, or the
    exception type and message of the accounting by parameter intervals."""
    t1, t2 = pair[::-1] if swap else pair
    expected = _outcome(lambda: segment_pieces_by_tiling(t1, t2))
    assert _outcome(lambda: [(i1, i2, tuple(map(affine_point, piece)))
                             for i1, i2, piece in realized_pieces(t1, t2)]) == expected
    if isinstance(expected, list):
        ov = overlay(t1, t2)
        assert (ov.cells.points, ov.cells.simplices, ov.provenance) == refinement_by_points(
            [piece for _, _, piece in expected], [(i1, i2) for i1, i2, _ in expected])
    else:
        assert _outcome(lambda: overlay(t1, t2)) == expected


# -- the one refinement builder against the point-keyed overlay ----------

# the unit square cut along x = 1/2
FOLD_POINTS = [(F(0), F(0)), (F(1, 2), F(0)), (F(1), F(0)), (F(1), F(1)), (F(1, 2), F(1)),
               (F(0), F(1))]
FOLD_CELLS = [(0, 1, 4), (0, 4, 5), (1, 2, 3), (1, 3, 4)]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_overlays_build_as_by_points(seed):
    """`overlay` gives the points, simplices and provenance of the
    point-keyed overlay (each piece triangulated, numbered by
    `index_cells`) on random splits of the square, and each vertex's cut
    point is the vertex's row itself."""
    rng = random.Random(seed)
    t1, t2 = (random_splits(rng, FOLD_POINTS, FOLD_CELLS, 10) for _ in range(2))
    ov = overlay(t1, t2)
    assert (ov.cells.points, ov.cells.simplices, ov.provenance) == refinement_by_points(
        *overlay_cells_by_points(t1, t2))
    assert list(ov.at_vertices(lambda i1, i2, x: x)) == list(ov.cells.hom_points())


AFFINE = [((1, 0), (0, 1)), ((0, -1), (1, 0)), ((-1, 0), (0, 1)), ((2, 1), (1, 1))]
INSIDE = st.sets(st.fractions(0, 1, max_denominator=8).filter(lambda s: 0 < s < 1), max_size=3)


@settings(max_examples=50, deadline=None)
@given(INSIDE.filter(bool), INSIDE, INSIDE, st.sampled_from(AFFINE))
def test_pieces_that_take_the_centroid_fallback(bottom1, left1, bottom2, matrix):
    """The squares [0, 1]^2 and [1, 2] x [0, 1] with points inside their
    bottom sides (and the first's left side), as pieces whose cuts are
    their images under an affine map A.  The fan from each square's
    smallest corner would be degenerate, so `convex_fan` cones from the
    centroid.  `refine` gives the points, simplices and provenance of the
    point-keyed build, and the cut point of every vertex, the centroids
    included, is its image under A."""
    (a, b), (c, d) = matrix

    def image(p):
        return (a * p[0] + b * p[1] + 3, c * p[0] + d * p[1] - 1)

    one = F(1)
    squares = [
        [(F(0), F(0)), *((x, F(0)) for x in sorted(bottom1)), (one, F(0)), (one, one),
         (F(0), one), *((F(0), y) for y in sorted(left1, reverse=True))],
        [(one, F(0)), *((1 + x, F(0)) for x in sorted(bottom2)), (2 * one, F(0)),
         (2 * one, one), (one, one)],
    ]
    pairs = [(0, 5), (1, 5)]
    ov = refine((i1, i2, [homogeneous(p) for p in poly], [homogeneous(image(p)) for p in poly])
                for (i1, i2), poly in zip(pairs, squares))
    cells = [triangulate_convex(poly) for poly in squares]
    assert (ov.cells.points, ov.cells.simplices, ov.provenance) == refinement_by_points(
        cells[0] + cells[1], [pairs[0]] * len(cells[0]) + [pairs[1]] * len(cells[1]))
    assert polygon_centroid_on_fractions(squares[0]) in ov.cells.points
    assert list(ov.at_vertices(lambda i1, i2, x: x)) == [homogeneous(image(p))
                                                        for p in ov.cells.points]
