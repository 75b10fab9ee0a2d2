"""The planar cell-pair kernel walks the tiling: it must give the pairs of
the all-pairs loop on every kind of input, and the planar map operations
must never enumerate all pairs.  Also the affine pieces of `PLMap`, which
compose, invert and evaluate, against the barycentric oracle."""

import random
from fractions import Fraction as F
from importlib import import_module

import pytest
from hypothesis import assume, given, settings, strategies as st

from plstab.clip import triangle_intersection
from plstab.complexes import Complex, segment_meets_ccw_triangle
from plstab.errors import PLError, RealizationMismatch
from plstab.geometry import affine_point, area2, candidate_pairs, hom_cell, homogeneous
from plstab.overlay import overlay, triangle_pieces
from plstab.plmap import (PLMap, _certified_image, compose2d, format_plmap, inverse2d,
                          plmap_from_vertex_images)

from support import (SYMMETRIES, _along_boundary, affine, assert_builds_as_on_fractions,
                     bench_grid_maps, ccw_triangle, centroid_split, compose2d_by_ccw_triangle,
                     cycle_rotation, grid_complex, interior_move_map, open_triangles_meet,
                     random_square_triangulation, refinement_homes, triangle_pieces_by_ccw_triangle,
                     two_squares)
from support import grid_map as moved_grid_map

# by module path: the package's `overlay` is the function
KERNEL = import_module("plstab.overlay")
MAPS = import_module("plstab.plmap")
CLIP = import_module("plstab.clip")
GEOMETRY = import_module("plstab.geometry")


def all_pairs(c1, c2):
    """The oracle: every pair of cells, clipped where their interiors meet."""
    cells1, cells2 = c1.cells(), c2.cells()
    return {(i, j, tuple(triangle_intersection(a, b)))
            for i, a in enumerate(c1.hom_cells()) for j, b in enumerate(c2.hom_cells())
            if open_triangles_meet(cells1[i], cells2[j])}


def assert_walk_is_all_pairs(c1, c2):
    """The walk gives the pairs of the all-pairs loop, and the pieces, in
    order, of the walk that oriented each cell by `ccw_triangle`."""
    walked = [(i, j, tuple(poly)) for i, j, poly in triangle_pieces(c1, c2)]
    assert len(walked) == len(set(walked))
    assert set(walked) == all_pairs(c1, c2)
    assert walked == [(i, j, tuple(poly))
                      for i, j, poly in triangle_pieces_by_ccw_triangle(c1, c2)]


def test_the_clip_kernel_orients_no_cell(monkeypatch):
    """`triangle_pieces` hands the clip counter-clockwise cells read off
    `Complex.hom_cells`, so no cell goes through `geometry.hom_cell`,
    which orients the loose polygons of `clip`'s entry points."""
    _, g = bench_grid_maps(3, 7)
    base = grid_complex(3)

    def refuse(points):
        raise AssertionError(f"{points} is oriented again")

    for module in (CLIP, GEOMETRY):
        monkeypatch.setattr(module, "hom_cell", refuse)
    assert list(triangle_pieces(g.image, base))


def moved_grid(n, offsets, sym):
    """The n x n grid with each vertex moved by offsets/(5n) (boundary
    points along their side), then a symmetry of the square: a tiling of
    the unit square, reflected by half of the symmetries."""
    base = grid_complex(n)
    pts = [SYMMETRIES[sym](x + F(dx, 5 * n), y + F(dy, 5 * n))
           for (x, y), (dx, dy) in ((p, _along_boundary(p, d))
                                    for p, d in zip(base.points, offsets))]
    return Complex(pts, base.simplices)


@st.composite
def square_tilings(draw):
    """A moved or reflected grid, or a triangulation of the unit square by
    centroid and midpoint splits."""
    if draw(st.booleans()):
        return random_square_triangulation(random.Random(draw(st.integers(0, 10**6))))
    n = draw(st.integers(1, 4))
    offsets = draw(st.lists(st.tuples(st.integers(-1, 1), st.integers(-1, 1)),
                            min_size=(n + 1) ** 2, max_size=(n + 1) ** 2))
    return moved_grid(n, offsets, draw(st.integers(0, len(SYMMETRIES) - 1)))


@settings(max_examples=60, deadline=None)
@given(square_tilings(), square_tilings())
def test_walk_matches_all_pairs_on_tilings_of_the_square(c1, c2):
    assert_walk_is_all_pairs(c1, c2)


def other_diagonals(c):
    """The squares of `two_squares`-like bases cut by their other diagonals."""
    sims = []
    for k in range(0, len(c.points), 4):
        sims += [(k, k + 1, k + 3), (k + 1, k + 2, k + 3)]
    return Complex(c.points, sims)


def pinched_squares(diagonal=0):
    """[0,1]^2 and [1,2]^2, each cut by a diagonal (the other one when
    ``diagonal`` is 1): a base pinched at the vertex (1, 1), whose two
    squares share no edge."""
    pts = [(0, 0), (1, 0), (1, 1), (0, 1), (2, 1), (2, 2), (1, 2)]
    sims = ([(0, 1, 2), (0, 2, 3), (2, 4, 5), (2, 5, 6)] if diagonal == 0
            else [(0, 1, 3), (1, 2, 3), (2, 4, 6), (4, 5, 6)])
    return Complex(pts, sims)


def gapped_square():
    """[0,2] x [-1,1] without the strip 0 < y < 1/2: the lower half two
    triangles, the upper part four cells over a vertex at (1, 1/2).  The
    lower half's top side is a boundary edge across the middle of the
    square."""
    pts = [(0, -1), (2, -1), (0, 0), (2, 0),
           (0, F(1, 2)), (1, F(1, 2)), (2, F(1, 2)), (0, 1), (1, 1), (2, 1)]
    return Complex(pts, [(0, 1, 3), (0, 3, 2), (4, 5, 8), (4, 8, 7), (5, 6, 9), (5, 9, 8)])


def diagonal_square():
    """[0,2] x [-1,1] cut by both diagonals: its left and right cells cross
    the boundary edge of `gapped_square` along y = 0."""
    pts = [(0, -1), (2, -1), (2, 1), (0, 1), (1, 0)]
    return Complex(pts, [(0, 1, 4), (1, 2, 4), (2, 3, 4), (0, 3, 4)])


@pytest.mark.parametrize("c1, c2", [
    (two_squares(), other_diagonals(two_squares())),
    (other_diagonals(two_squares()), two_squares()),
    (pinched_squares(0), pinched_squares(1)),
    (gapped_square(), gapped_square()),
], ids=["disconnected", "disconnected-swapped", "pinched", "gap-both"])
def test_walk_matches_all_pairs_where_the_walk_cannot_seed(c1, c2):
    assert_walk_is_all_pairs(c1, c2)
    ov = overlay(c1, c2)
    assert ov.cells.area2() == c1.area2()


@pytest.mark.parametrize("c1, c2", [
    (diagonal_square(), gapped_square()),
    (gapped_square(), diagonal_square()),
], ids=["gap-second", "gap-first"])
def test_walk_matches_all_pairs_across_a_gap(c1, c2):
    assert_walk_is_all_pairs(c1, c2)
    with pytest.raises(RealizationMismatch):
        overlay(c1, c2)


def test_unshared_edge_across_a_cell_falls_back_to_the_scan(monkeypatch):
    """Grown from its parent's hits alone, the left cell of the diagonal
    square finds only the lower cell below the gap, whose top side, a
    boundary edge, crosses its interior (the probe sees that test say
    so); so the cell is scanned and gets the two cells above the gap as
    well."""
    crossed = []

    def probe(p, q, tri):
        crossed.append(segment_meets_ccw_triangle(p, q, tri))
        return crossed[-1]

    monkeypatch.setattr(KERNEL, "segment_meets_ccw_triangle", probe)
    left = diagonal_square().simplices.index((0, 3, 4))
    pairs = {j for i, j, _ in triangle_pieces(diagonal_square(), gapped_square())
             if i == left}
    assert True in crossed
    assert len(pairs) == 3


@pytest.mark.parametrize("c2", [
    Complex([(0, 0), (2, 0), (2, 1), (0, 1)], [(0, 1, 2), (0, 2, 3)]),
    Complex([(F(1, 2), 0), (F(3, 2), 0), (F(3, 2), 1), (F(1, 2), 1)], [(0, 1, 2), (0, 2, 3)]),
    Complex([(0, 0), (1, 0), (F(1, 2), F(1, 2))], [(0, 1, 2)]),
], ids=["larger", "shifted", "smaller"])
def test_mismatched_realizations_still_raise(c2):
    for a, b in ((grid_complex(2), c2), (c2, grid_complex(2))):
        assert_walk_is_all_pairs(a, b)
        with pytest.raises(RealizationMismatch):
            overlay(a, b)


PINCHED = pinched_squares(0)
PINCHED_SPLIT = centroid_split(PINCHED)
# the symmetries of `pinched_squares(0)`; the second and the fourth reflect
PINCHED_SYMMETRIES = [lambda x, y: (x, y), lambda x, y: (y, x),
                      lambda x, y: (2 - x, 2 - y), lambda x, y: (2 - y, 2 - x)]
GRID_OFFSETS = st.lists(st.tuples(st.integers(-1, 1), st.integers(-1, 1)),
                        min_size=16, max_size=16)
CENTRE_OFFSETS = st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                          min_size=18, max_size=18)


def pinched_map(sym, centre_offsets):
    """A map of the pinched squares, a base that is not convex, on their
    centroid split: a symmetry of the base, each centroid moved off the
    centroid of its image by centre_offsets[k]/24."""
    moved = [PINCHED_SYMMETRIES[sym](x, y) for x, y in PINCHED.points]
    for (a, b, c), (dx, dy) in zip(PINCHED.simplices, centre_offsets):
        cx, cy = (sum(x) / 3 for x in zip(moved[a], moved[b], moved[c]))
        moved.append((cx + F(dx, 24), cy + F(dy, 24)))
    return PINCHED, PINCHED_SPLIT, moved


@st.composite
def maps_of_one_base(draw, pinched):
    """A map of the 3 x 3 grid (`support.grid_map`) under a drawn symmetry
    of the square, or of the pinched squares under one of theirs, so its
    image's orientations may all flip."""
    if pinched:
        case = pinched_map(draw(st.integers(0, 3)), draw(CENTRE_OFFSETS))
    else:
        case = moved_grid_map(3, draw(GRID_OFFSETS), draw(CENTRE_OFFSETS),
                              draw(st.sampled_from(["fixed", "slide"])),
                              draw(st.integers(0, len(SYMMETRIES) - 1)),
                              draw(st.sampled_from(["same", "centroids"])))
    try:
        return PLMap(*case)
    except PLError:
        assume(False)  # the moved vertices fold a cell


@settings(max_examples=8, deadline=None)
@given(st.data())
def test_pieces_and_composites_match_the_ccw_triangle_oracle(data):
    """`triangle_pieces`, which orients each cell by its complex's
    `orientations`, and `compose2d`, which reverses a piece where the
    orientations of its cell in g's refinement and image differ, give the
    pieces and the bytes of the `ccw_triangle` and `orient2` versions they
    replaced: on grid maps and their reflections, on the pinched base, and
    on composites and inverses of those maps."""
    pinched = data.draw(st.booleans())
    f, g = data.draw(maps_of_one_base(pinched)), data.draw(maps_of_one_base(pinched))
    h = compose2d(f, g)
    for a, b in ((f, g), (f, h), (inverse2d(h), g), (h, inverse2d(f))):
        assert (list(triangle_pieces(b.image, a.refinement))
                == list(triangle_pieces_by_ccw_triangle(b.image, a.refinement)))
        assert format_plmap(compose2d(a, b)) == format_plmap(compose2d_by_ccw_triangle(a, b))


@settings(max_examples=6, deadline=None)
@given(st.data())
def test_compose_and_inverse_match_the_fraction_pipeline(data):
    """`compose2d` and `inverse2d`, on rows, give the points, simplices,
    base cells and images of the `Fraction` pipeline they replaced (clip,
    piece solve and application, fan and centroid all on Fractions): on
    grid maps under drawn symmetries, on the pinched base, and on
    composites and inverses of those maps."""
    pinched = data.draw(st.booleans())
    f, g = data.draw(maps_of_one_base(pinched)), data.draw(maps_of_one_base(pinched))
    h = compose2d(f, g)
    for a, b in ((f, g), (h, f), (inverse2d(h), g)):
        assert_builds_as_on_fractions(a, b)


def segment_meets_oracle(p, q, tri):
    """Is there t in (0, 1) with p + t (q - p) strictly inside tri?  The
    open interval of such t, cut by each edge's line, is nonempty."""
    lo, hi = F(0), F(1)
    for i in range(3):
        a, b = tri[i - 1], tri[i]
        sp, sq = area2(a, b, p), area2(a, b, q)
        if sp == sq:
            if sp <= 0:
                return False
            continue
        t = sp / (sp - sq)
        if sq > sp:
            lo = max(lo, t)
        else:
            hi = min(hi, t)
    return lo < hi


small = st.fractions(min_value=-2, max_value=2, max_denominator=2)
points = st.tuples(small, small)


@settings(max_examples=300, deadline=None)
@given(points, points, st.tuples(points, points, points))
def test_segment_meets_ccw_triangle_matches_the_parametric_oracle(p, q, tri):
    if p == q or area2(*tri) == 0:
        return
    tri = ccw_triangle(tri)
    assert (segment_meets_ccw_triangle(homogeneous(p), homogeneous(q), hom_cell(tri))
            == segment_meets_oracle(p, q, tri))


def grid_map(n, seed):
    """A seeded map of the n x n grid moving each interior vertex by at most
    1/(5n) in each coordinate, like the benchmark's grid maps."""
    base = grid_complex(n)
    rng = random.Random(seed)
    d = F(1, 5 * n)
    images = [(x + rng.choice((-d, 0, d)), y + rng.choice((-d, d)))
              if 0 < x < 1 and 0 < y < 1 else (x, y) for x, y in base.points]
    return PLMap(base, base, images)


def slid_refinement_map(n):
    """A map of the n x n grid on its centroid split, each side point slid
    along its side by 1/(8n): the image is off the base's boundary
    vertices, so it takes the exact path."""
    base = grid_complex(n)
    d = F(1, 8 * n)
    slid = [(x + d, y) if y in (0, 1) and 0 < x < 1 else
            (x, y + d) if x in (0, 1) and 0 < y < 1 else (x, y) for x, y in base.points]
    centres = [tuple(sum(c) / 3 for c in zip(*(slid[v] for v in s))) for s in base.simplices]
    return base, centroid_split(base), slid + centres


def test_planar_operations_never_enumerate_all_pairs(monkeypatch):
    """compose2d, inverse2d, overlay, == and the realization checks of
    `PLMap(...)` walk; `candidate_pairs` is left to the boxes of cells
    that do not tile a region, segments of a 1-complex and the sides of a
    boundary polygon, so no planar box reaches it from the overlay."""
    def refuse(*args):
        raise AssertionError("candidate_pairs called")

    f, g = grid_map(3, 1), grid_map(3, 2)
    monkeypatch.setattr(KERNEL, "candidate_pairs", refuse)
    h = compose2d(f, g)
    assert compose2d(inverse2d(h), h).is_identity()
    assert f == f and f != g and h == compose2d(f, g)
    overlay(random_square_triangulation(random.Random(3)), h.refinement)

    def refuse_planar(boxes_a, boxes_b=None):
        if any(len(lo) == 2 for lo, _ in (*boxes_a, *(boxes_b or ()))):
            raise AssertionError("candidate_pairs called on planar boxes")
        return candidate_pairs(boxes_a, boxes_b)

    base, refinement, images = slid_refinement_map(3)
    assert _certified_image(base, refinement, images) is None
    homes = refinement_homes(base, refinement)
    monkeypatch.setattr(KERNEL, "candidate_pairs", refuse_planar)
    monkeypatch.setattr(MAPS, "candidate_pairs", refuse_planar, raising=False)
    assert PLMap(base, refinement, images).cell_base == homes


def test_the_guard_sees_the_all_pairs_path(monkeypatch):
    """The segment kernel enumerates all pairs, so the guard above sees
    `candidate_pairs` where it is called."""
    def refuse(*args):
        raise AssertionError("candidate_pairs called")

    monkeypatch.setattr(KERNEL, "candidate_pairs", refuse)
    path = Complex([(0, 0), (1, 0), (1, 1)], [(0, 1), (1, 2)])
    with pytest.raises(AssertionError, match="candidate_pairs"):
        overlay(path, path)


def test_compose_pulls_each_vertex_back_once(monkeypatch):
    """compose2d pulls back each cut point once, however many pieces share
    it: on grid maps, and where a reflection reverses orientation on
    either side, one `pullback_in_cell` call per vertex of the result, each
    at a different point (no fan of these pieces takes a centroid)."""
    pulled = []
    pullback = PLMap.pullback_in_cell

    def spy(self, i, y):
        pulled.append(pullback(self, i, y))
        return pulled[-1]

    monkeypatch.setattr(PLMap, "pullback_in_cell", spy)
    f = interior_move_map()
    g = plmap_from_vertex_images(f.base, [(1 - x, y) for x, y in f.base.points])
    pairs = [(grid_map(3, seed), grid_map(3, seed + 10)) for seed in range(3)]
    for a, b in pairs + [(f, g), (g, f), (g, g)]:
        pulled.clear()
        h = compose2d(a, b)
        assert len(pulled) == h.refinement.vertex_count
        assert sorted(pulled) == sorted(h.refinement.hom_points())


def cell_point(cell, weights):
    """The point with the given positive barycentric weights in a cell."""
    total = sum(weights[:len(cell)])
    return tuple(sum(w * p[k] for w, p in zip(weights, cell)) / total
                 for k in range(len(cell[0])))


weights = st.tuples(*[st.integers(1, 9)] * 3)
offsets = st.tuples(st.fractions(-3, 3, max_denominator=7), st.fractions(-3, 3, max_denominator=7))


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.integers(0, 10**6), weights, offsets)
def test_pieces_match_the_oracle(n, seed, w, off):
    """Each refinement cell's piece and its inverse, on rows, equal the
    barycentric oracle, inside the cell and off it, before and after
    compose."""
    f = grid_map(n, seed)
    for h in (f, compose2d(f, grid_map(n, seed + 1))):
        srcs, imgs = h.refinement.cells(), h.image.cells()
        for i, (src, img) in enumerate(zip(srcs, imgs)):
            x = homogeneous(cell_point(src, w))
            y = h.eval_in_cell(i, x)
            assert y == homogeneous(affine(src, img, affine_point(x)))
            assert h.pullback_in_cell(i, y) == x
            far = affine_point(x)
            far = (far[0] + off[0], far[1] + off[1])
            assert h.eval_in_cell(i, homogeneous(far)) == homogeneous(affine(src, img, far))
            assert h.pullback_in_cell(i, homogeneous(far)) == homogeneous(affine(img, src, far))


def interval_map():
    """A map of the segments [0, 1] and [1, 3] of the line onto [0, 2] and
    [2, 3]."""
    base = Complex([(0,), (1,), (3,)], [(0, 1), (1, 2)])
    return PLMap(base, base, [(0,), (2,), (3,)])


@pytest.mark.parametrize("f", [cycle_rotation(), interval_map()], ids=["plane", "line"])
def test_pieces_of_a_map_of_segments(f):
    for i, (src, img) in enumerate(zip(f.refinement.cells(), f.image.cells())):
        for t in (F(0), F(1, 3), F(1), F(-2, 5)):
            x = tuple(a + t * (b - a) for a, b in zip(*src))
            y = f.eval_in_cell(i, homogeneous(x))
            assert y == homogeneous(affine(src, img, x))
            assert f.pullback_in_cell(i, y) == homogeneous(affine(img, src, affine_point(y)))
            assert f.pullback_in_cell(i, y) == homogeneous(x)


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 3), st.integers(0, 10**6))
def test_compose_pullbacks_match_the_oracle(n, seed):
    """Compose pulls each clipped polygon back through g's piece; the
    pullbacks of inverse2d are checked in `tests/test_trusted.py`."""
    f, g = grid_map(n, seed), grid_map(n, seed + 1)
    srcs, imgs = g.refinement.cells(), g.image.cells()
    for i, _, poly in triangle_pieces(g.image, f.refinement):
        for p in poly:
            assert g.pullback_in_cell(i, p) == homogeneous(affine(imgs[i], srcs[i],
                                                                  affine_point(p)))
