"""The planar kernel on integer homogeneous coordinates against the
`Fraction` path it replaced (kept in `support`): the clipper gives the
rows of the identical point list, in the same order, the meets-tests the
same verdicts, `Complex.area2` an equal area, `orient2` on rows and
`Complex.orientations` the `Fraction` orientation signs, `hom_cmp` the
order of `Fraction` tuples, `convex_fan` the fan of the `Fraction` one,
`in_closed_cell` the closed-cell verdicts, `PLMap.eval` the same values
and the same `PointOutsideComplex`, and `hom_cell` the same cell of a
polygon in either orientation.  Inputs share edges, touch
at vertices, run along collinear edges, come from composites and
inverses, or have large coprime denominators, and probe points lie at
vertices, on edges, inside cells and outside.  With every comparison of
`Fraction` made to raise, the whole derived path (composition,
inversion, equality and printing) still runs."""

from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from plstab.clip import convex_fan, triangle_intersection
from plstab.complexes import (Complex, ccw_triangles_meet, in_closed_cell,
                              segment_meets_ccw_triangle)
from plstab.errors import InvalidComplex, PointOutsideComplex
from plstab.fixedlocus import fixed_subcomplex
from plstab.geometry import (affine_point, candidate_pairs, hom_cell, hom_cmp, homogeneous,
                             is_simple_polygon, line_through, orient2)
from plstab.overlay import numbered
from plstab.plmap import PLMap, compose2d, format_plmap, identity_map, inverse2d

from support import (bbox, bench_grid_maps, ccw_triangle, cell_points, exact_path_cases,
                     ccw_triangles_meet_on_fractions, convex_fan_on_fractions,
                     is_simple_polygon_on_fractions, numbered_by_fraction_sort,
                     orient2_on_fractions, polygon_area2_on_fractions,
                     complex_area2_on_fractions, eval_by_fraction_scan, grid_complex,
                     in_closed_cell_oracle, segment_meets_ccw_triangle_on_fractions,
                     triangle_intersection_on_fractions)


def assert_same_clip(poly, tri):
    """The integer clip of a counter-clockwise polygon and triangle gives
    the rows of the Fraction clip, point for point; returns its points."""
    got = [affine_point(h) for h in triangle_intersection(hom_cell(poly), hom_cell(tri))]
    assert got == triangle_intersection_on_fractions(poly, tri)
    return got


def assert_same_cell_either_way(poly):
    """`hom_cell` of a counter-clockwise polygon and of its reverse are the
    same cell, on the polygon's rows in order."""
    assert hom_cell(poly[::-1]) == hom_cell(poly)
    assert list(hom_cell(poly).homs) == [homogeneous(p) for p in poly]


def probes_of(cells):
    """Points to locate against planar cells: their vertices, points on
    their edges (a third and a half of the way), and their centroids."""
    out = []
    for a, b, c in cells:
        out += [a, tuple(p + (q - p) / 3 for p, q in zip(a, b)),
                tuple((p + q) / 2 for p, q in zip(b, c)),
                tuple((p + q + r) / 3 for p, q, r in zip(a, b, c))]
    return out


def assert_same_orientations_and_locations(c, probes):
    """`Complex.orientations` is each cell's `orient2` sign, the cells of
    `hom_cells` are the `ccw_triangle`s of the cells, and `in_closed_cell`
    on them decides as the `Fraction` oracle at every probe."""
    cells = cell_points(c)
    assert c.orientations() == [orient2_on_fractions(*cell) for cell in cells]
    assert [list(h.homs) for h in c.hom_cells()] == [
        [homogeneous(p) for p in ccw_triangle(t)] for t in cells]
    for x in probes:
        h = homogeneous(x)
        assert [in_closed_cell(h, cell) for cell in c.hom_cells()] == [
            in_closed_cell_oracle(x, cell) for cell in cells]


def assert_same_evaluations(f, probes):
    """`PLMap.eval` agrees with the `Fraction` scan at every probe: the
    same value, or `PointOutsideComplex` from both."""
    for x in probes:
        try:
            want = eval_by_fraction_scan(f, x)
        except PointOutsideComplex:
            with pytest.raises(PointOutsideComplex):
                f.eval(x)
        else:
            assert f.eval(x) == want


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
    t1 = draw(st.lists(points, min_size=3, max_size=3)
              .filter(lambda t: orient2_on_fractions(*t) != 0))
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
    if orient2_on_fractions(*t2) == 0:
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
    if len(poly) >= 3 and orient2_on_fractions(*third) != 0:
        assert_same_clip(poly, ccw_triangle(third))
    for cell in (t1, t2, poly):
        if len(cell) >= 3 and polygon_area2_on_fractions(cell) != 0:
            assert_same_cell_either_way(cell)
    for t in (t1, t2, t2[::-1]):
        assert_same_orientations_and_locations(Complex(t, [(0, 1, 2)]),
                                               [*probes_of([t1, t2]), *poly, *third])


# large coprime denominators: the integer coordinates run to ~40 bits each
PRIMES = [1000000007, 998244353, 2147483647, 1000000009, 999999937]
big = st.builds(lambda n, d: F(n % (3 * d) - d, d), st.integers(0, 10**12),
                st.sampled_from(PRIMES))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(big, big), min_size=9, max_size=9))
def test_clip_and_meets_match_on_large_coprime_denominators(pts):
    tris = [pts[k:k + 3] for k in (0, 3, 6)]
    if any(orient2_on_fractions(*t) == 0 for t in tris):
        return
    t1, t2, t3 = map(ccw_triangle, tris)
    assert_same_verdicts(t1, t2)
    poly = assert_same_clip(t1, t2)
    if len(poly) >= 3:
        assert_same_clip(poly, t3)
    if len(poly) >= 3 and polygon_area2_on_fractions(poly) != 0:
        assert_same_cell_either_way(poly)
    cx = Complex(pts[:3], [(0, 1, 2)])
    assert cx.area2() == complex_area2_on_fractions(cx)
    assert_same_orientations_and_locations(cx, [*probes_of(tris), *poly])


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
        cells1, cells2 = ([ccw_triangle(t) for t in cell_points(c)] for c in (c1, c2))
        for i, j in candidate_pairs([bbox(c) for c in cells1], [bbox(c) for c in cells2]):
            assert_same_verdicts(cells1[i], cells2[j])
            poly = assert_same_clip(cells1[i], cells2[j])
            if len(poly) > 3:
                for m in (j - 1, j + 1):
                    if 0 <= m < len(cells2):
                        assert_same_clip(poly, cells2[m])


# points just outside the unit square, with ~30-bit coprime denominators
OUTSIDE = [(F(-1, PRIMES[0]), F(1, 2)), (F(1) + F(1, PRIMES[1]), F(1, 3)),
           (F(1, 2), F(-1, PRIMES[2])), (F(2, 3), F(1) + F(1, PRIMES[3])), (F(-1), F(-1))]


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 3),
       st.lists(st.tuples(big, big), min_size=4, max_size=4))
def test_orientations_locations_and_eval_match_the_fraction_path(seed, n, far):
    """On bench grid maps, their composite and its inverse: the
    orientations and closed-cell verdicts of every complex, and `eval`
    of every map, at the vertices, edge points and centroids of the other
    complexes' cells, at points with ~30-bit denominators folded into the
    unit square, and at points outside it."""
    f, g = bench_grid_maps(n, seed)
    h = compose2d(f, g)
    k = inverse2d(h)
    inside = [(x % 1, y % 1) for x, y in far]
    probes = [*probes_of(cell_points(f.image)), *probes_of(cell_points(h.image)[::5]),
              *probes_of(cell_points(k.refinement)[::7]), *inside, *OUTSIDE]
    for c in (f.image, h.refinement, h.image, k.refinement, k.image):
        assert_same_orientations_and_locations(c, probes)
    for m in (f, h, k):
        assert_same_evaluations(m, probes)


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
                assert (s > 0) - (s < 0) == orient2_on_fractions(a, b, x)


def test_area2_matches_the_fraction_sum_on_a_moved_grid():
    base = grid_complex(4)
    moved = Complex([(x + F(i % 3, 997 * 5), y - F(i % 2, 1009 * 5)) if 0 < x < 1 and 0 < y < 1
                     else (x, y) for i, (x, y) in enumerate(base.points)], base.simplices)
    assert moved.area2() == complex_area2_on_fractions(moved) == base.area2() == 2


# ~30-bit coprime denominators, and 1 and 2
DENOMINATORS = [1, 2, 536870909, 805306457, 1073741723, 1073741789]


COORDS = st.builds(F, st.integers(-2**32, 2**32), st.sampled_from(DENOMINATORS))


@st.composite
def numbered_inputs(draw, dim):
    """Distinct points, in a drawn order, and the id tuples of a valid
    complex on them: in 1D a path through the sorted points; in 2D columns
    of points on a few vertical lines, so that many share their first
    coordinate, with each strip between two neighbouring columns
    triangulated by a drawn zipper along them."""
    coords = st.lists(COORDS, min_size=2, max_size=24 if dim == 1 else 4, unique=True)
    xs = sorted(draw(coords))
    if dim == 1:
        columns = [[(x,)] for x in xs]
    else:
        columns = [[(x, y) for y in sorted(draw(coords))] for x in xs]
    points = [p for column in columns for p in column]
    order = draw(st.permutations(range(len(points))))
    ids = {points[v]: k for k, v in enumerate(order)}
    if dim == 1:
        cells = [(ids[p], ids[q]) for p, q in zip(points, points[1:])]
    else:
        cells = []
        for a, b in zip(columns, columns[1:]):
            i = j = 0
            while i < len(a) - 1 or j < len(b) - 1:
                if j == len(b) - 1 or (i < len(a) - 1 and draw(st.booleans())):
                    cells.append((ids[a[i]], ids[a[i + 1]], ids[b[j]]))
                    i += 1
                else:
                    cells.append((ids[a[i]], ids[b[j]], ids[b[j + 1]]))
                    j += 1
    return [points[v] for v in order], cells


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([1, 2]).flatmap(numbered_inputs))
def test_numbered_orders_as_the_fraction_sort(inputs):
    """`overlay.numbered`, comparing integer coordinates, gives the complex,
    provenance and vertex ids of the sort of the Fraction points."""
    points, cells = inputs
    provenance = [(k, -k) for k in range(len(cells))]
    got = numbered([homogeneous(p) for p in points], cells, provenance)
    want = numbered_by_fraction_sort(points, cells, provenance)
    assert got[2] == want[2]
    assert got[0] == want[0] and got[1] == want[1]


# ints, negatives and ~30-bit coprime denominators
MIXED = st.one_of(st.integers(-2**31, 2**31), COORDS)


@st.composite
def point_triples(draw):
    """Three planar points of `MIXED` coordinates, in a drawn order: drawn
    freely, with one repeated, or the third on the line of the other two."""
    a, b = draw(st.tuples(MIXED, MIXED)), draw(st.tuples(MIXED, MIXED))
    mode = draw(st.sampled_from(["free", "repeated", "collinear"]))
    if mode == "free":
        c = draw(st.tuples(MIXED, MIXED))
    elif mode == "repeated":
        c = draw(st.sampled_from([a, b]))
    else:
        t = draw(COORDS)
        c = tuple(p + t * (q - p) for p, q in zip(a, b))
    return draw(st.permutations([a, b, c]))


@settings(max_examples=300, deadline=None)
@given(point_triples())
@example([(F(1, 536870909), -7), (F(-3, 805306457), F(5, 1073741723)), (2, F(-1, 536870909))])
@example([(0, 0), (F(1, 3), F(1, 3)), (F(2, 1073741789), F(2, 1073741789))])
@example([(5, -3), (5, -3), (F(1, 2), 0)])
def test_orient2_on_rows_is_the_fraction_orientation(pts):
    """`orient2` on the `homogeneous` rows of three points is the sign the
    `Fraction` predicate gives on the points."""
    want = orient2_on_fractions(*pts)
    assert orient2(*[homogeneous(p) for p in pts]) == want
    if pts[0] == pts[1] or pts[1] == pts[2] or pts[0] == pts[2]:
        assert want == 0


@st.composite
def point_lists(draw, dim):
    """Points of dimension ``dim`` with coordinates from a pool of a few
    `COORDS`, so that many share a first coordinate and some are equal."""
    pool = draw(st.lists(COORDS, min_size=1, max_size=3))
    coord = st.sampled_from(pool)
    return draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=10))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([1, 2]).flatmap(point_lists))
def test_hom_cmp_orders_as_the_fraction_tuples(pts):
    """`hom_cmp` on the rows of two points has the sign of the comparison
    of the points as tuples of Fractions, in 1D and 2D."""
    rows = [homogeneous(p) for p in pts]
    for p, a in zip(pts, rows):
        for q, b in zip(pts, rows):
            c = hom_cmp(a, b)
            assert (c > 0) - (c < 0) == (p > q) - (p < q)


def strict_hull(pts):
    """The counter-clockwise convex hull of planar points with no vertex on
    a side, from the smallest point (Andrew's monotone chain)."""
    pts = sorted(set(pts))

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and orient2_on_fractions(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return half(pts) + half(pts[::-1])


@st.composite
def convex_polygons(draw):
    """Counter-clockwise convex polygons with distinct vertices: the strict
    hull of drawn lattice points with some sides cut by points along them,
    each side at the smallest vertex when ``chain`` is drawn, so that a fan
    from there meets a degenerate triangle; then scaled by 1/d for a drawn
    `DENOMINATORS` d, shifted by a drawn point, and started at a drawn
    vertex."""
    lattice = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
    hull = strict_hull(draw(st.lists(lattice, min_size=3, max_size=8)))
    assume(len(hull) >= 3)
    cut = draw(st.sets(st.integers(0, len(hull) - 1)))
    if draw(st.booleans()):  # chain: the two sides at the smallest vertex
        cut |= {0, len(hull) - 1}
    poly = []
    for k, p in enumerate(hull):
        poly.append(p)
        if k in cut:
            q, m = hull[(k + 1) % len(hull)], draw(st.integers(2, 4))
            poly += [tuple(a + F(i, m) * (b - a) for a, b in zip(p, q)) for i in range(1, m)]
    d, shift = draw(st.sampled_from(DENOMINATORS)), draw(st.tuples(COORDS, COORDS))
    poly = [tuple(F(a) / d + s for a, s in zip(p, shift)) for p in poly]
    start = draw(st.integers(0, len(poly) - 1))
    return poly[start:] + poly[:start]


@settings(max_examples=200, deadline=None)
@given(convex_polygons())
def test_convex_fan_on_rows_is_the_fraction_fan(poly):
    """`convex_fan` on the `homogeneous` rows of a convex polygon gives the
    triangles and the row of the centroid of the `Fraction` fan, the
    centroid cone included where a collinear chain runs into the apex."""
    tris, c = convex_fan_on_fractions(poly)
    assert convex_fan([homogeneous(p) for p in poly]) == (
        tris, None if c is None else homogeneous(c))


def refuse_fraction(monkeypatch, names):
    """Lift the check mode of `conftest`, which validates each trusted build
    on Fractions, and make the named methods of `Fraction` raise."""
    monkeypatch.undo()

    def refuse(*args):
        raise AssertionError("a Fraction was compared or computed with")

    for name in names:
        monkeypatch.setattr(F, name, refuse)


def fixed_locus_rows(f):
    """The refined complex's rows and simplices, the fixed cells and the
    provenance of f's fixed locus: ints and tuples of ints only."""
    fl = fixed_subcomplex(f)
    return (fl.refined.hom_points(), fl.refined.simplices, fl.cells.simplices,
            sorted(fl.provenance.items()))


def test_numbered_and_the_polygon_test_compare_no_fraction(monkeypatch):
    """`numbered` orders, `is_simple_polygon` tests, `convex_fan` fans and
    `Complex.orientations` orients Fraction points on their integer
    coordinates: with every comparison of `Fraction` made to raise, each
    gives what the Fraction oracles give.  On n=3 grid maps, `compose2d`,
    `inverse2d`, ``==``, `format_plmap` and `fixed_subcomplex` of the maps
    and their composites run whole, and give what they give with the
    comparisons in place.  The check mode of `conftest`, which validates
    each trusted build and so compares Fractions, is lifted once the
    oracles' results are checked."""
    points = [(F(1, 3), F(5, 11)), (F(-4, 5), F(-1, 1073741789)), (F(1, 3), F(-2, 7)),
              (F(2), F(1, 3)), (F(1, 536870909), F(1, 2))]
    triangles = [(1, 2, 4), (2, 3, 0), (4, 2, 0)]
    line = [(F(3, 7),), (F(-1, 2),), (F(0),), (F(1, 805306457),)]
    segments = [(1, 2), (2, 3), (3, 0)]
    square = [(F(0), F(0)), (F(1, 3), F(0)), (F(1), F(0)), (F(1), F(1, 2)), (F(1), F(1)),
              (F(0), F(1))]
    bowtie = [(F(0), F(0)), (F(1), F(1, 3)), (F(1), F(0)), (F(0), F(1, 3))]
    cells = Complex(points, triangles)
    f, g = bench_grid_maps(3, 5)
    cut = bench_grid_maps(3, 3)  # whose composites' fixed loci cut edges
    tris, c = convex_fan_on_fractions(square)
    want = [numbered_by_fraction_sort(points, triangles, [0, 1, 2]),
            numbered_by_fraction_sort(line, segments, [0, 1, 2]),
            [is_simple_polygon_on_fractions(p) for p in (square, bowtie)],
            (tris, homogeneous(c)),
            [orient2_on_fractions(*cell) for cell in cell_points(cells)]]
    assert want[2] == [True, False]

    def derived():
        h = compose2d(f, g)
        k = inverse2d(h)
        return [format_plmap(h), format_plmap(k), compose2d(k, h) == identity_map(f.base),
                h == compose2d(g, f),
                [(fixed_locus_rows(m), m.refinement.vertex_count)
                 for a, b in ((f, g), cut) for m in (a, b, compose2d(a, b), compose2d(b, a))]]

    want.append(derived())
    assert want[-1][2] is True
    # a fixed locus that cuts edges or cones from an isolated fixed point
    assert any(len(rows[0]) > n for rows, n in want[-1][4])
    refuse_fraction(monkeypatch, ("__eq__", "__lt__", "__le__", "__gt__", "__ge__"))
    with pytest.raises(AssertionError, match="compared"):
        sorted(points)
    got = [numbered([homogeneous(p) for p in points], triangles, [0, 1, 2]),
           numbered([homogeneous(p) for p in line], segments, [0, 1, 2]),
           [is_simple_polygon([homogeneous(q) for q in p]) for p in (square, bowtie)],
           convex_fan([homogeneous(p) for p in square]),
           cells.with_points(cells.hom_points()).orientations(), derived()]
    monkeypatch.undo()
    assert got == want


# the reflection of the triangle's boundary cycle in x = y, which fixes a
# vertex and the opposite edge's midpoint
CYCLE = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1))]
# the square annulus [0,3]^2 - (1,2)^2, whose two boundary cycles leave it
# to the all-pairs tests, and a triangle folded onto its neighbour
ANNULUS = ([(F(x), F(y)) for x, y in ((0, 0), (3, 0), (3, 3), (0, 3),
                                      (1, 1), (2, 1), (2, 2), (1, 2))],
           [s for k in range(4) for s in ((k, (k + 1) % 4, 4 + (k + 1) % 4),
                                          (k, 4 + (k + 1) % 4, 4 + k))])
FOLDED = ([(F(0), F(0)), (F(2), F(0)), (F(0), F(2)), (F(1, 2), F(1, 2))],
          [(0, 1, 2), (1, 2, 3)])


def test_the_segment_paths_compute_no_fraction(monkeypatch):
    """With every arithmetic operation, every equality test and every
    order of `Fraction` made to raise, the paths that validate on rows and
    the 1-complex paths run whole and give what they give with them in
    place: `Complex(...)` validation, accepting a cycle and an annulus by
    the all-pairs tests and refusing a 1D overlap, a T-junction and a
    folded pair of triangles; `PLMap(...)` of the `exact_path_cases`, an
    arc and a square whose refinement splits its boundary; `compose2d`,
    `inverse2d`, ``==`` and `eval` of an arc map and of the reflection of
    a cycle; and `fixed_subcomplex` of both."""
    slide = PLMap(*exact_path_cases()[0])
    cycle = Complex(CYCLE, [(0, 1), (1, 2), (0, 2)])
    flip = PLMap(cycle, cycle, [CYCLE[0], CYCLE[2], CYCLE[1]])
    probes = [(slide, [(F(7, 5),), (F(1, 6),), (F(3),)]),
              (flip, [(F(1, 2), F(1, 2)), (F(1, 3), F(2, 3)), (F(0), F(1, 4))])]

    def run():
        out = []
        for points, simplices in ((CYCLE, [(0, 1), (1, 2), (0, 2)]),
                                  ([(F(0),), (F(2),), (F(1),), (F(3),)], [(0, 1), (2, 3)]),
                                  ([*CYCLE[:2], (F(1, 2), F(0)), (F(1, 2), F(1))],
                                   [(0, 1), (2, 3)]), ANNULUS, FOLDED):
            try:
                out.append(Complex(points, simplices).hom_points())
            except InvalidComplex as e:
                out.append(str(e))
        for case in exact_path_cases():
            f = PLMap(*case)
            out += [format_plmap(f), f.cell_base]
        for f, xs in probes:
            h = compose2d(f, f)
            k = inverse2d(f)
            out += [format_plmap(h), format_plmap(k), compose2d(k, f) == identity_map(f.base),
                    h == f, [f.eval(x) for x in xs], fixed_locus_rows(f)]
        return out

    want = run()
    assert want[1:3] == ["simplices (0, 1) and (2, 3) overlap",
                         "vertex 2 lies in simplex (0, 1) but is not one of its vertices"]
    assert isinstance(want[3], tuple) and want[4] == "simplices (0, 1, 2) and (1, 2, 3) overlap"
    refuse_fraction(monkeypatch, ("__eq__", "__lt__", "__le__", "__gt__", "__ge__",
                                  "__add__", "__radd__", "__sub__", "__rsub__",
                                  "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
                                  "__neg__", "__abs__"))
    with pytest.raises(AssertionError, match="computed"):
        F(1, 2) + F(1, 3)
    with pytest.raises(AssertionError, match="compared"):
        F(1, 2) < F(1, 3)
    got = run()
    monkeypatch.undo()
    assert got == want
