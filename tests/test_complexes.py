import re
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from plstab.clip import clip_polygon_to_triangle, point_in_triangle
from plstab.complexes import (Complex, SubComplex, Surface, boundary, close_under_faces,
                              euler_characteristic, format_complex, in_closed_cell, is_arc,
                              is_cycle, link, parse_complex, seg_seg_open_meet, star)
from plstab.geometry import between, collinear_overlap, homogeneous, on_segment
from plstab.errors import InvalidComplex, ParseError, PointOutsideComplex, UnknownVertex
from plstab.plmap import PLMap, plmap_from_vertex_images

from support import (TETRAHEDRON, cell_points, between_on_fractions, close_under_faces_by_key,
                     collinear_overlap_on_fractions, grid_complex, in_closed_cell_oracle,
                     meets_in_common_faces_by_brute_force, open_triangles_meet,
                     orient2_on_fractions, polygon_area2_on_fractions,
                     seg_seg_open_meet_by_solving, seg_seg_open_meet_on_fractions)


def square():
    pts = [(0, 0), (1, 0), (1, 1), (0, 1), (F(1, 2), F(1, 2))]
    return Complex(pts, [(0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4)])


def three_cycle():
    return Complex([(0, 0), (1, 0), (0, 1)], [(0, 1), (1, 2), (0, 2)])


def path_on_a_line():
    return Complex([(0,), (F(1, 2),), (1,)], [(0, 1), (1, 2)])


def test_euler_characteristic():
    assert euler_characteristic(square()) == 1
    assert euler_characteristic(Surface(TETRAHEDRON)) == 2
    assert euler_characteristic(three_cycle()) == 0
    assert euler_characteristic(path_on_a_line()) == 1


def test_star_and_link_interior_vertex():
    sq = square()
    st = star(sq, 4)
    assert len(st.of_dim(2)) == 4
    lk = link(sq, 4)
    assert is_cycle(lk)


def test_link_of_corner_is_arc():
    lk = link(square(), 0)
    assert is_arc(lk)
    assert not is_cycle(lk)


def test_boundary_of_disk():
    b = boundary(square())
    assert len(b.of_dim(1)) == 4
    assert is_cycle(b)


def test_boundary_of_sphere_empty():
    assert not boundary(Surface(TETRAHEDRON)).simplices


def test_degenerate_triangle_rejected():
    with pytest.raises(InvalidComplex):
        Complex([(0, 0), (1, 1), (2, 2)], [(0, 1, 2)])


def test_repeated_vertex_degenerate_edge_and_mixed_points_rejected():
    with pytest.raises(InvalidComplex, match="repeated vertex"):
        Complex([(0, 0), (1, 0), (0, 1)], [(0, 0, 1)])
    with pytest.raises(InvalidComplex, match="degenerate edge"):
        Complex([(0,), (0,)], [(0, 1)])
    with pytest.raises(InvalidComplex, match="mixed ambient dimension"):
        Complex([(0, 0), (1,)], [(0, 1)])


def test_overlapping_interiors_rejected():
    pts = [(0, 0), (2, 0), (0, 2), (1, 1), (2, 2), (0, 1)]
    with pytest.raises(InvalidComplex):
        Complex(pts, [(0, 1, 2), (0, 3, 5)])


def test_nonmanifold_edge_rejected():
    # three triangles sharing one edge
    pts = [(0, 0), (1, 0), (0, 1), (0, -1), (-1, 1)]
    with pytest.raises(InvalidComplex):
        Complex(pts, [(0, 1, 2), (0, 1, 3), (0, 1, 4)])


def test_disjoint_cells_are_accepted():
    """Connectivity is no condition of a complex: two disjoint segments and
    two disjoint triangles are complexes."""
    segments = Complex([(0, 0), (1, 0), (5, 0), (6, 0)], [(0, 1), (2, 3)])
    assert segments.simplices == ((0, 1), (2, 3)) and not segments.is_connected()
    triangles = Complex([(0, 0), (1, 0), (0, 1), (5, 0), (6, 0), (5, 1)],
                        [(0, 1, 2), (3, 4, 5)])
    assert triangles.simplices == ((0, 1, 2), (3, 4, 5)) and not triangles.is_connected()


def test_validation_never_decides_connectivity(monkeypatch):
    """`Complex(...)`, `parse_complex` and `PLMap(...)` on a refinement
    other than its base never ask whether a complex is connected: only the
    certifier does."""
    def refuse(self):
        raise AssertionError("is_connected was called")
    monkeypatch.setattr(Complex, "is_connected", refuse)
    base = square()
    Complex([(0, 0), (1, 0), (5, 0), (6, 0)], [(0, 1), (2, 3)])
    assert parse_complex(format_complex(base)) == base
    # cell (0, 1, 4) split at its centroid, every vertex fixed
    points = base.points + ((F(1, 2), F(1, 6)),)
    refinement = Complex(points, [(0, 1, 5), (1, 4, 5), (0, 4, 5), (1, 2, 4), (2, 3, 4),
                                  (0, 3, 4)])
    assert PLMap(base, refinement, points).refinement is refinement


def test_two_vertices_at_one_point_rejected():
    # accepted before, and a map on it was then no function: vertex 3 at
    # (0, 0) went to (0, 0) while eval((0, 0)) gave (1, 0)
    pts = [(0, 0), (1, 0), (0, 1), (0, 0), (-1, 0), (0, -1)]
    with pytest.raises(InvalidComplex, match="vertices 0 and 3 lie at one point"):
        Complex(pts, [(0, 1, 2), (3, 4, 5)])
    # a degenerate cell is reported as such, not as a shared point
    with pytest.raises(InvalidComplex, match="degenerate"):
        Complex([(0, 0), (1, 0), (0, 0)], [(0, 1, 2)])


def test_unknown_vertex():
    with pytest.raises(UnknownVertex):
        star(square(), 17)


def test_parse_format_roundtrip():
    for c in (square(), path_on_a_line(), three_cycle()):
        text = format_complex(c)
        c2 = parse_complex(text)
        assert c2.points == c.points
        assert c2.simplices == c.simplices
        assert format_complex(c2) == text


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        parse_complex("v 0 0 0\nq 1 2\n")
    with pytest.raises(ParseError):
        parse_complex("v 0 0 0\nv 2 1 1\ns 0 2\n")  # index gap
    with pytest.raises(ParseError):
        parse_complex("v x 0 0\nv 1 1 0\ns 0 1\n")  # vertex index
    with pytest.raises(ParseError):
        parse_complex("v 0 0 0\nv 1 1 0\ns 0 z\n")  # simplex index


def test_parse_comments_and_blanks():
    c = parse_complex("# a segment\nv 0 0\nv 1 1\n\ns 0 1  # the edge\n")
    assert c.dim == 1
    assert c.simplices == ((0, 1),)


def _clip_area_meet(t1, t2):
    """Reference: the open triangles meet iff their intersection has area."""
    return polygon_area2_on_fractions(clip_polygon_to_triangle(list(t1), t2)) != 0


# grid points make shared vertices, shared edges and collinear edges common
coords = st.one_of(st.integers(min_value=0, max_value=3),
                   st.fractions(min_value=-4, max_value=4, max_denominator=5))
triangles = (st.lists(st.tuples(coords, coords), min_size=3, max_size=3)
             .filter(lambda t: orient2_on_fractions(*t) != 0))


@settings(max_examples=200)
@given(triangles, triangles)
def test_separating_axis_matches_clip_area(t1, t2):
    assert open_triangles_meet(t1, t2) == _clip_area_meet(t1, t2)


@pytest.mark.parametrize("t1, t2, meet", [
    ([(0, 0), (1, 0), (0, 1)], [(1, 0), (0, 1), (1, 1)], False),     # shared edge
    ([(0, 0), (1, 0), (0, 1)], [(0, 0), (-1, 0), (0, -1)], False),   # shared vertex only
    ([(0, 0), (2, 0), (0, 1)], [(1, 0), (3, 0), (1, -1)], False),    # collinear edges, apart
    ([(0, 0), (2, 0), (0, 1)], [(1, 0), (3, 0), (1, 1)], True),      # collinear edges, same side
    ([(0, 0), (4, 0), (0, 4)], [(1, 1), (2, 1), (1, 2)], True),      # nested
    ([(0, 0), (1, 0), (0, 1)], [(0, 0), (1, 0), (0, 1)], True),      # identical
    ([(0, 0), (1, 0), (0, 1)], [(0, 1), (1, 0), (0, 0)], True),      # identical, reversed
    ([(0, 0), (1, 0), (0, 1)], [(F(1, 2), F(1, 2)), (1, 1), (1, 0)], False),  # touching on an edge
])
def test_separating_axis_cases(t1, t2, meet):
    for a, b in ((t1, t2), (t2, t1)):
        assert open_triangles_meet(a, b) is meet
        assert _clip_area_meet(a, b) is meet


# The segment predicate against its oracle in `support`, which solves for
# common points, on draws forced into the cases where signs are zero:
# collinear, sharing a vertex, and touching (a point on the other
# segment or its line).
small = st.sampled_from(sorted({F(n, d) for n in range(-6, 7) for d in (1, 2, 3)
                                if abs(F(n, d)) <= 2}))
points = {k: st.tuples(*[small] * k) for k in (1, 2)}
weights = st.sampled_from([F(0), F(1, 3), F(1, 2), F(2, 3), F(1), F(3, 2), F(-1, 2)])


@st.composite
def frame(draw, k):
    """Two point makers for R^k: the point at (s, t) of a random plane,
    and a free point."""
    o, u, v = (draw(points[k]) for _ in range(3))

    def at(s, t):
        return tuple(x + s * y + t * z for x, y, z in zip(o, u, v))
    return at, lambda: draw(points[k])


@st.composite
def segment_pairs(draw):
    at, free = draw(frame(draw(st.sampled_from((1, 2)))))
    mode = draw(st.sampled_from(("free", "collinear", "coplanar", "shared", "touching")))
    if mode == "free":
        a, b, c, d = (free() for _ in range(4))
    elif mode in ("collinear", "coplanar"):
        a, b, c, d = (at(draw(small), draw(small) if mode == "coplanar" else 0)
                      for _ in range(4))
    else:
        a, b = free(), free()
        w = F(0) if mode == "shared" else draw(weights)
        c = tuple(x + w * (y - x) for x, y in zip(a, b))
        d = free() if draw(st.booleans()) else at(draw(small), draw(small))
    assume(a != b and c != d)
    return a, b, c, d


@settings(max_examples=600, deadline=None)
@given(segment_pairs())
def test_seg_seg_open_meet_matches_the_solving_oracle(segs):
    a, b, c, d = segs
    for p, q, r, s in ((a, b, c, d), (c, d, a, b), (b, a, d, c)):
        assert (seg_seg_open_meet(*map(homogeneous, (p, q, r, s)))
                == seg_seg_open_meet_by_solving(p, q, r, s))


@st.composite
def segment_quadruples(draw):
    """Two segments [a, b] and [c, d] of R^1 or R^2, possibly shrunk to a
    point: drawn freely, on one line, on one vertical line, sharing a
    vertex or touching (c on the line of [a, b], inside or past an end),
    or with [a, b] a point that c or d may be."""
    k = draw(st.sampled_from((1, 2)))
    at, free = draw(frame(k))
    mode = draw(st.sampled_from(("free", "collinear", "vertical", "touching", "degenerate")))
    if mode == "free":
        return tuple(free() for _ in range(4))
    if mode == "collinear":
        return tuple(at(draw(small), 0) for _ in range(4))
    if mode == "vertical":
        x = draw(small)
        return tuple((x, draw(small))[-k:] for _ in range(4))
    if mode == "touching":
        a, b = free(), free()
        c = tuple(x + draw(weights) * (y - x) for x, y in zip(a, b))
        return a, b, c, draw(st.sampled_from([a, b, c, free()]))
    a = free()
    c = draw(st.sampled_from([a, free()]))
    return a, a, c, draw(st.sampled_from([a, c, free()]))


@settings(max_examples=600, deadline=None)
@given(segment_quadruples())
def test_segment_tests_on_rows_match_the_fraction_tests(segs):
    """On the rows of the points, `on_segment`, `collinear_overlap` and
    `seg_seg_open_meet` decide as `segment_param`, `overlap_params`, the
    `Fraction` `collinear_overlap` and the `Fraction` open-segment test
    do on the points, and `between`, the point form of `on_segment`,
    agrees; each segment is also taken reversed and against the other."""
    a, b, c, d = segs
    for p, q, r, s in ((a, b, c, d), (c, d, a, b), (b, a, d, c), (a, b, d, c)):
        rows = [homogeneous(x) for x in (p, q, r, s)]
        assert on_segment(*rows[:3]) == between_on_fractions(p, q, r) == between(p, q, r)
        want = collinear_overlap_on_fractions(p, q, r, s)
        assert collinear_overlap(*rows) == (None if want is None
                                            else tuple(map(homogeneous, want)))
        if p != q and r != s:
            assert seg_seg_open_meet(*rows) == seg_seg_open_meet_on_fractions(p, q, r, s)


# The rule that cells meet in common faces, against the brute-force oracle
# in `support`, on the pairs above and on grids with one cell split at a
# point on one of its edges or nudged off it.
REFUSED_FOR_COMMON_FACES = "is not one of its vertices"


def check_common_faces(cells):
    """`Complex` of point-list cells (equal points are one vertex) accepts
    them iff the oracle does, unless it refuses them for another reason."""
    index = {}
    simplices = [tuple(index.setdefault(p, len(index)) for p in cell) for cell in cells]
    points = list(index)
    try:
        Complex(points, simplices)
    except InvalidComplex as e:
        if str(e).endswith(REFUSED_FOR_COMMON_FACES):
            assert not meets_in_common_faces_by_brute_force(points, simplices)
        return str(e)
    assert meets_in_common_faces_by_brute_force(points, simplices)
    return None


@settings(max_examples=400, deadline=None)
@given(segment_pairs())
def test_segments_meet_in_common_faces_as_the_oracle_says(segs):
    a, b, c, d = segs
    check_common_faces([(a, b), (c, d)])


@st.composite
def nudged_grids(draw):
    """An n x n grid of the unit square with one cell split at a point x of
    one of its edges ab: on it (into two cells, a T-junction if ab is
    inside the square) or nudged off it, into the cell (split in three) or
    out of it (into two cells, reaching into the neighbour or out of the
    square)."""
    n = draw(st.integers(1, 2))
    cells = cell_points(grid_complex(n))
    a, b, d = draw(st.permutations(cells.pop(draw(st.integers(0, len(cells) - 1)))))
    t, nudge = draw(st.sampled_from([F(1, 4), F(1, 2), F(3, 4)])), draw(st.integers(-1, 1))
    m = tuple(p + t * (q - p) for p, q in zip(a, b))
    x = tuple(p + F(nudge, 8 * n) * (q - p) for p, q in zip(m, d))
    cells += [(a, b, x), (b, d, x), (a, d, x)] if nudge > 0 else [(a, x, d), (x, b, d)]
    return cells


@settings(max_examples=100, deadline=None)
@given(nudged_grids())
def test_nudged_grids_meet_in_common_faces_as_the_oracle_says(cells):
    check_common_faces(cells)


def test_a_t_junction_is_refused_and_its_split_accepted():
    """The T-junction square is refused; split along the diagonal too, it
    is accepted."""
    t_junction = [[(0, 0), (2, 0), (1, 1)], [(1, 1), (2, 0), (2, 2)], [(0, 0), (2, 2), (0, 2)]]
    split = t_junction[:2] + [[(0, 0), (1, 1), (0, 2)], [(1, 1), (2, 2), (0, 2)]]
    assert (check_common_faces(t_junction)
            == "vertex 2 lies in simplex (0, 3, 4) but is not one of its vertices")
    assert check_common_faces(split) is None


def test_three_coordinates_are_refused():
    """A complex in 3-space is refused, as is a 2-complex on a line."""
    with pytest.raises(InvalidComplex, match="ambient dimension must be 1 or 2"):
        Complex([(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 1, 2)])
    with pytest.raises(InvalidComplex, match="ambient dimension must be 1 or 2"):
        Complex([(0, 0, 0), (1, 0, 0)], [(0, 1)])
    with pytest.raises(InvalidComplex, match="a 2-complex needs ambient dimension 2"):
        Complex([(0,), (1,), (2,)], [(0, 1, 2)])


# halves on a small grid, so points often fall on an edge or a vertex
halves = st.integers(min_value=-4, max_value=4).map(lambda n: F(n, 2))
plane_points = st.tuples(halves, halves)


@settings(max_examples=300)
@given(st.lists(plane_points, min_size=3, max_size=3, unique=True), plane_points)
def test_in_closed_cell_takes_the_counter_clockwise_cell(tri, x):
    """On a complex's counter-clockwise `hom_cells`, `in_closed_cell`
    decides as the `Fraction` oracle and `point_in_triangle` do on the
    loose triangle, in either orientation."""
    assume(orient2_on_fractions(*tri) != 0)
    cell, = Complex(tri, [(0, 1, 2)]).hom_cells()
    for loose in (tri, tri[::-1]):
        assert (in_closed_cell(homogeneous(x), cell) == in_closed_cell_oracle(x, loose)
                == point_in_triangle(x, loose))


@settings(max_examples=300)
@given(st.integers(min_value=1, max_value=2), st.data())
def test_locating_on_segments_is_the_segment_param_test(ambient, data):
    """On a segment, in ambient dimension 1 or 2, `between`, the point
    form of `on_segment`, by which `PLMap.eval` and validation locate a
    point, decides as the `segment_param` test of the oracle, at points on
    the segment's line (inside it or past an end) and off it."""
    points = st.tuples(*[halves] * ambient)
    a, b = data.draw(st.lists(points, min_size=2, max_size=2, unique=True))
    t = data.draw(st.fractions(min_value=-1, max_value=2, max_denominator=4))
    x = data.draw(st.one_of(st.just(tuple(p + t * (q - p) for p, q in zip(a, b))), points))
    inside = in_closed_cell_oracle(x, [a, b])
    assert between(a, b, x) == inside
    f = plmap_from_vertex_images(Complex([a, b], [(0, 1)]), [a, b])
    if inside:
        assert f.eval(x) == x
    else:
        with pytest.raises(PointOutsideComplex):
            f.eval(x)


@settings(max_examples=150)
@given(st.lists(st.lists(st.integers(0, 7), min_size=1, max_size=4, unique=True), max_size=8))
def test_close_under_faces_matches_the_keyed_sort(simplices):
    """The faces of simplices given in any vertex order, by the two-pass
    sort, in the (length, face) order of the keyed sort."""
    assert close_under_faces(simplices) == close_under_faces_by_key(simplices)


def test_subcomplex_names_its_first_simplex_outside_the_parent():
    c = Complex([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    assert SubComplex(c, [(2, 0), (1,)]).simplices == ((0,), (1,), (2,), (0, 2))
    for simplices, bad in (([(1, 3), (4,)], "(3,)"), ([(-1, 2)], "(-1,)"),
                           ([(0, 1, 2), (5, 7)], "(5,)")):
        with pytest.raises(InvalidComplex, match=re.escape(f"simplex {bad} not in parent")):
            SubComplex(c, simplices)
