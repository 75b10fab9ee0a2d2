"""The planar cell-pair kernel on integer homogeneous coordinates against
the `Fraction` kernel it replaced (kept in `support`): the clipper gives
the identical point list, in the same order, the meets-tests the same
verdicts, and `Complex.area2` an equal area.  Inputs share edges, touch
at vertices, run along collinear edges, come from composites and
inverses, or have large coprime denominators."""

from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from plstab.clip import ccw_triangle, triangle_intersection
from plstab.complexes import Complex, ccw_triangles_meet, segment_meets_ccw_triangle
from plstab.geometry import (affine_point, candidate_pairs, hom_cell, homogeneous, line_through,
                             orient2)
from plstab.plmap import compose2d, inverse2d

from support import (bench_grid_maps, ccw_triangles_meet_on_fractions,
                     complex_area2_on_fractions, grid_complex,
                     segment_meets_ccw_triangle_on_fractions,
                     triangle_intersection_on_fractions)


def assert_same_clip(poly, tri):
    """The integer clip of a counter-clockwise polygon and triangle is the
    Fraction clip, point for point; a kept vertex is the caller's object."""
    got = triangle_intersection(hom_cell(poly), hom_cell(tri))
    assert got == triangle_intersection_on_fractions(poly, tri)
    for p in got:
        assert any(p is v for v in poly) or (p not in poly and all(
            isinstance(c, F) for c in p))
    return got


def assert_same_verdicts(t1, t2):
    """Both meets-tests agree with their Fraction versions on two
    counter-clockwise triangles and on each edge of one against the other."""
    c1, c2 = hom_cell(t1), hom_cell(t2)
    assert ccw_triangles_meet(c1, c2) == ccw_triangles_meet_on_fractions(t1, t2)
    for k in range(3):
        p, q = t1[k - 1], t1[k]
        assert (segment_meets_ccw_triangle(homogeneous(p), homogeneous(q), c2)
                == segment_meets_ccw_triangle_on_fractions(p, q, t2))


# a small lattice: shared points and collinear triples are common
small = st.fractions(min_value=-2, max_value=2, max_denominator=3)
points = st.tuples(small, small)


@st.composite
def touching_pairs(draw):
    """Two counter-clockwise triangles that share an edge, touch at a
    vertex, have an edge on one line, or are drawn freely."""
    t1 = draw(st.lists(points, min_size=3, max_size=3).filter(lambda t: orient2(*t) != 0))
    a, b, c = t1
    mode = draw(st.sampled_from(["edge", "vertex", "collinear", "free"]))
    if mode == "edge":
        rest = [a, b]
    elif mode == "vertex":
        rest = [draw(st.sampled_from(t1))]
    elif mode == "collinear":
        s, t = draw(small), draw(small)
        rest = [tuple(p + s * (q - p) for p, q in zip(a, b)),
                tuple(p + t * (q - p) for p, q in zip(a, b))]
    else:
        rest = []
    t2 = rest + draw(st.lists(points, min_size=3 - len(rest), max_size=3 - len(rest)))
    if orient2(*t2) == 0:
        t2 = [a, b, c]
    return ccw_triangle(t1), ccw_triangle(t2)


@settings(max_examples=400, deadline=None)
@given(touching_pairs(), st.lists(points, min_size=3, max_size=3))
def test_clip_and_meets_match_the_fraction_kernel_on_touching_cells(pair, third):
    t1, t2 = pair
    assert_same_verdicts(t1, t2)
    assert_same_verdicts(t2, t1)
    poly = assert_same_clip(t1, t2)
    assert_same_clip(t2, t1)
    if len(poly) >= 3 and orient2(*third) != 0:
        assert_same_clip(poly, ccw_triangle(third))


# large coprime denominators: the integer coordinates run to ~40 bits each
PRIMES = [1000000007, 998244353, 2147483647, 1000000009, 999999937]
big = st.builds(lambda n, d: F(n % (3 * d) - d, d), st.integers(0, 10**12),
                st.sampled_from(PRIMES))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(big, big), min_size=9, max_size=9))
def test_clip_and_meets_match_on_large_coprime_denominators(pts):
    tris = [pts[k:k + 3] for k in (0, 3, 6)]
    if any(orient2(*t) == 0 for t in tris):
        return
    t1, t2, t3 = map(ccw_triangle, tris)
    assert_same_verdicts(t1, t2)
    poly = assert_same_clip(t1, t2)
    if len(poly) >= 3:
        assert_same_clip(poly, t3)
    cx = Complex(pts[:3], [(0, 1, 2)])
    assert cx.area2() == complex_area2_on_fractions(cx)


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 3))
def test_the_kernels_agree_on_pieces_of_composites_and_inverses(seed, n):
    """Every pair of cells whose boxes meet, of a composite's image and the
    base and of its inverse's image and the composite's refinement, and
    each clipped piece cut again by the other input's cells."""
    f, g = bench_grid_maps(n, seed)
    h = compose2d(f, g)
    k = inverse2d(h)
    for c in (h.refinement, h.image, k.refinement, k.image):
        assert c.area2() == complex_area2_on_fractions(c)
    for c1, c2 in ((h.image, f.base), (k.image, h.refinement), (h.refinement, k.image)):
        cells1, cells2 = c1.ccw_cells(), c2.ccw_cells()
        for i, j in candidate_pairs(cells1, cells2):
            assert_same_verdicts(cells1[i], cells2[j])
            poly = assert_same_clip(cells1[i], cells2[j])
            if len(poly) > 3:
                for m in (j - 1, j + 1):
                    if 0 <= m < len(cells2):
                        assert_same_clip(poly, cells2[m])


def test_line_signs_are_orientations():
    """L·x for the line of a->b has the sign of orient2(a, b, x), and the
    integer coordinates convert back to the point."""
    pts = [(F(1, 3), F(-2, 7)), (F(5), F(1, 2)), (F(-3, 4), F(6, 5)), (F(2, 3), F(2, 3))]
    for a in pts:
        assert affine_point(homogeneous(a)) == a
        for b in pts:
            line = line_through(homogeneous(a), homogeneous(b))
            for x in pts:
                s = sum(u * v for u, v in zip(line, homogeneous(x)))
                assert (s > 0) - (s < 0) == orient2(a, b, x)


def test_area2_matches_the_fraction_sum_on_a_moved_grid():
    base = grid_complex(4)
    moved = Complex([(x + F(i % 3, 997 * 5), y - F(i % 2, 1009 * 5)) if 0 < x < 1 and 0 < y < 1
                     else (x, y) for i, (x, y) in enumerate(base.points)], base.simplices)
    assert moved.area2() == complex_area2_on_fractions(moved) == base.area2() == 2
