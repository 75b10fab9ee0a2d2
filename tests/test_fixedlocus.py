import random
from collections import Counter
from fractions import Fraction as F
from types import SimpleNamespace

import pytest
from hypothesis import Phase, assume, example, given, settings, strategies as st

from plstab import fixedlocus
from plstab.complexes import Complex, SubComplex, faces_of, is_cycle
from plstab.errors import FixIsEmpty, FixIsEverything, PLError
from plstab.fixedlocus import (FixedLocus, canonical_invariant,
                               fixed_subcomplex, frontier, fuller_search)
from plstab.geometry import Mat, area2, homogeneous
from plstab.plmap import PLMap, compose2d, identity_map, plmap_from_vertex_images

from support import (bench_grid_maps, ccw_triangle, cycle_rotation, grid_map, index_cells,
                     interior_move_map, linear_part, orient2_on_fractions,
                     polygon_area2_on_fractions, power, quarter_rotation, square_complex,
                     triangulate_convex, vadd, vscale, vsub)


def test_rotation_fixes_center_only():
    fl = fixed_subcomplex(quarter_rotation())
    assert not fl.is_empty() and not fl.is_everything()
    assert fl.cells.of_dim(1) == ()
    pts = [fl.refined.points[s[0]] for s in fl.cells.of_dim(0)]
    assert pts == [(F(1, 2), F(1, 2))]


def test_identity_fix_is_everything():
    fl = fixed_subcomplex(identity_map(square_complex()))
    assert fl.is_everything()
    with pytest.raises(FixIsEverything):
        canonical_invariant(fl)


def test_empty_fix_raises_on_invariant():
    rot = cycle_rotation()
    fl = fixed_subcomplex(rot)
    assert fl.is_empty()
    with pytest.raises(FixIsEmpty):
        canonical_invariant(fl)


def test_interior_move_fix_is_left_half():
    h = interior_move_map()
    fl = fixed_subcomplex(h)
    # exactly the two left-half triangles survive
    assert len(fl.cells.of_dim(2)) == 2
    area = 0
    for s in fl.cells.of_dim(2):
        a, b, c = (fl.refined.points[v] for v in s)
        area += abs((b[0] - a[0]) * (c[1] - a[1])
                    - (b[1] - a[1]) * (c[0] - a[0])) / 2
    assert area == F(1, 2)


def test_frontier_is_link_cycle():
    fl = fixed_subcomplex(interior_move_map())
    ci = canonical_invariant(fl)
    assert ci.derivation_depth == 1
    assert is_cycle(ci.n_f)
    assert len(ci.n_f.of_dim(1)) == 4


def test_center_point_invariant_depth_one():
    ci = canonical_invariant(fixed_subcomplex(quarter_rotation()))
    assert ci.derivation_depth == 1
    assert len(ci.n_f.of_dim(0)) == 1


def test_symmetry_preserves_fix():
    # the quarter rotation commutes with itself: r(Fix(r)) = Fix(r)
    r = quarter_rotation()
    fl = fixed_subcomplex(r)
    for s in fl.cells.simplices:
        for v in s:
            p = fl.refined.points[v]
            assert r.eval(p) == p  # the center is fixed by the symmetry too


def test_fuller_rotation_square():
    res = fuller_search(quarter_rotation(), 4)
    assert res.k == 1
    assert res.euler_char == 1
    assert res.witness_cell is not None


def test_fuller_three_cycle():
    rot = cycle_rotation()
    assert fuller_search(rot, 2).k is None
    res = fuller_search(rot, 3)
    assert res.k == 3
    assert res.euler_char == 0


def test_reflection_of_a_cycle_fixes_a_vertex_and_a_cut_point():
    cyc = cycle_rotation().base
    fl = fixed_subcomplex(plmap_from_vertex_images(cyc, [(0, 0), (0, 1), (1, 0)]))
    assert [fl.refined.points[v] for s in fl.cells.simplices for v in s] == [
        (0, 0), (F(1, 2), F(1, 2))]


def test_fuller_rejects_bad_kmax():
    with pytest.raises(ValueError):
        fuller_search(quarter_rotation(), 0)


def test_fix_of_power_contains_fix():
    r = quarter_rotation()
    fl1 = fixed_subcomplex(r)
    fl2 = fixed_subcomplex(power(r, 2))
    fixed_pts_1 = {fl1.refined.points[s[0]] for s in fl1.cells.of_dim(0)}
    fixed_pts_2 = {fl2.refined.points[s[0]] for s in fl2.cells.of_dim(0)}
    assert fixed_pts_1 <= fixed_pts_2


# -- fixed sets that cross a cell ------------------------------------------


def square_grid(n):
    """[-1,1]^2 cut into n x n squares, each by its diagonal from (i, j)
    to (i+1, j+1)."""
    pts = [(F(2 * i, n) - 1, F(2 * j, n) - 1) for j in range(n + 1) for i in range(n + 1)]
    sims = []
    for j in range(n):
        for i in range(n):
            a = j * (n + 1) + i
            sims += [(a, a + 1, a + n + 2), (a, a + n + 2, a + n + 1)]
    return Complex(pts, sims)


def test_reflection_fixes_chords_across_the_middle_row():
    grid = square_grid(3)
    fl = fixed_subcomplex(plmap_from_vertex_images(grid, [(x, -y) for x, y in grid.points]))
    pieces = Counter(fl.provenance.values())
    assert sorted(pieces.values()) == [1] * 12 + [3] * 6  # 6 chord cells
    assert fl.cells.of_dim(2) == ()
    edges = fl.cells.of_dim(1)
    assert len(edges) == 6
    assert all(fl.refined.points[v][1] == 0 for e in edges for v in e)
    xs = sorted(fl.refined.points[s[0]][0] for s in fl.cells.of_dim(0))
    assert xs == [F(k, 3) for k in range(-3, 4)]


def test_quarter_turn_fixes_a_point_inside_a_cell():
    w, corners = (F(1, 3), F(1, 5)), [(1, 1), (-1, 1), (-1, -1), (1, -1)]
    cone = Complex([w] + corners, [(0, k, k % 4 + 1) for k in range(1, 5)])
    fl = fixed_subcomplex(plmap_from_vertex_images(cone, [(-y, x) for x, y in cone.points]))
    assert len(fl.refined.simplices) == 6
    assert [fl.refined.points[v] for s in fl.cells.simplices for v in s] == [(0, 0)]
    home = cone.simplices.index((0, 2, 3))  # (w, (-1,1), (-1,-1))
    assert sorted(fl.provenance.values()) == sorted([home] * 3 + [k for k in range(4) if k != home])


# -- the per-cell linear solve that the flag rule replaced, as an oracle ----


def oracle_cell_fix(f, s):
    """The fixed set of f on cell s by solving (A - I) x = -t: none, an
    interior point, a chord through the interior, or the full cell."""
    tri = [f.refinement.points[v] for v in s]
    q = [f.images[v] for v in s]
    a = linear_part(vsub(tri[1], tri[0]), vsub(tri[2], tri[0]),
                    vsub(q[1], q[0]), vsub(q[2], q[0]))
    t = vsub(q[0], a.apply(tri[0]))
    (m00, m01), (m10, m11) = ((a.rows[0][0] - 1, a.rows[0][1]), (a.rows[1][0], a.rows[1][1] - 1))
    det = Mat([[m00, m01], [m10, m11]]).det()
    if det != 0:
        x = ((-t[0] * m11 + m01 * t[1]) / det, (-m00 * t[1] + t[0] * m10) / det)
        ccw = ccw_triangle(tri)
        inside = all(orient2_on_fractions(ccw[i - 1], ccw[i], x) > 0 for i in range(3))
        return ("point", x) if inside else ("none", None)
    if m00 == m01 == m10 == m11 == 0:
        return ("full", None) if t == (0, 0) else ("none", None)
    # rank one: the solution set is the line row . x = r, if row 2 agrees
    row, r, other, ro = ((m00, m01), -t[0], (m10, m11), -t[1])
    if row == (0, 0):
        row, r, other, ro = other, ro, row, r
    if other[0] * r != row[0] * ro or other[1] * r != row[1] * ro:
        return ("none", None)
    p0 = (r / row[0], F(0)) if row[0] != 0 else (F(0), r / row[1])
    seg = oracle_clip_line(p0, (-row[1], row[0]), tri)
    if seg is None or seg[0] == seg[1]:
        return ("none", None)
    x, y = seg
    for i in range(3):  # a chord along a side belongs to the edges
        a, b = tri[i], tri[i - 1]
        if orient2_on_fractions(a, b, x) == 0 == orient2_on_fractions(a, b, y):
            return ("none", None)
    return ("chord", seg)


def oracle_clip_line(p0, direction, tri):
    """The ends of the line p0 + s direction inside a triangle, or None."""
    t = list(tri) if orient2_on_fractions(*tri) > 0 else list(reversed(tri))
    lo = hi = None
    for i in range(3):
        c0 = area2(t[i], t[(i + 1) % 3], p0)
        c1 = area2(t[i], t[(i + 1) % 3], vadd(p0, direction)) - c0
        if c1 == 0:
            if c0 < 0:
                return None
            continue
        s = F(-c0, c1)
        if c1 > 0:
            lo = s if lo is None else max(lo, s)
        else:
            hi = s if hi is None else min(hi, s)
    if lo is None or hi is None or lo > hi:
        return None
    return vadd(p0, vscale(lo, direction)), vadd(p0, vscale(hi, direction))


def oracle_edge_point(a, b, fa, fb):
    """The one fixed point of [a, b] strictly inside it, or None."""
    da, db = vsub(fa, a), vsub(fb, b)
    ts = {F(c0, c0 - c1) for c0, c1 in zip(da, db) if c0 != c1}
    if any(c0 == c1 != 0 for c0, c1 in zip(da, db)) or len(ts) != 1:
        return None
    t = ts.pop()
    return vadd(a, vscale(t, vsub(b, a))) if 0 < t < 1 else None


# coordinates on a small grid, where zeros, equal and opposite
# displacements are common, and with ~30-bit coprime denominators
GRID = st.fractions(min_value=-2, max_value=2, max_denominator=3)
WIDE = st.builds(F, st.integers(-2**32, 2**32), st.sampled_from([536870909, 805306457]))
COORD = st.one_of(GRID, GRID, WIDE)


@st.composite
def moved_edges(draw):
    """An edge [a, b] of R^1 or R^2, a != b, and the images of its ends:
    moved by displacements drawn freely, by one zero displacement, by
    equal ones, or by ones of opposite sense along one direction (a fixed
    point strictly inside or past an end)."""
    k = draw(st.sampled_from((1, 2)))
    point = st.tuples(*[COORD] * k)
    a, b = draw(st.lists(point, min_size=2, max_size=2, unique=True))
    da = draw(point)
    mode = draw(st.sampled_from(("free", "zero", "equal", "opposite")))
    if mode == "free":
        db = draw(point)
    elif mode == "zero":
        da, db = draw(st.permutations([da, (F(0),) * k]))
    elif mode == "equal":
        db = da
    else:
        db = tuple(-draw(st.sampled_from([F(1, 2), F(1), F(2), F(-1)])) * x for x in da)
    return a, b, vadd(a, da), vadd(b, db)


@settings(max_examples=400, deadline=None)
@given(moved_edges())
def test_the_edge_cut_on_rows_is_the_fraction_edge_point(edge):
    """`fixedlocus._edge_cut`, on the rows of an edge's ends and of their
    images, gives the row of the `Fraction` oracle's fixed point strictly
    inside the edge, or None with it."""
    a, b, fa, fb = edge
    want = oracle_edge_point(a, b, fa, fb)
    got = fixedlocus._edge_cut(*map(homogeneous, (a, b, fa, fb)))
    assert got == (None if want is None else homogeneous(want))


@st.composite
def moved_triangles(draw):
    """A nondegenerate planar triangle and the images of its corners: moved
    freely, or by a drawn integer matrix about a centre strictly inside,
    at a corner, or outside."""
    point = st.tuples(COORD, COORD)
    tri = draw(st.lists(point, min_size=3, max_size=3))
    assume(orient2_on_fractions(*tri) != 0)
    if draw(st.booleans()):
        return tri, [draw(point) for _ in tri]
    w = draw(st.lists(st.integers(-1, 3), min_size=3, max_size=3))
    assume(sum(w))
    c = tuple(sum(x * p[k] for x, p in zip(w, tri)) / sum(w) for k in range(2))
    (m00, m01), (m10, m11) = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                                           min_size=2, max_size=2))
    return tri, [(c[0] + m00 * (p[0] - c[0]) + m01 * (p[1] - c[1]),
                  c[1] + m10 * (p[0] - c[0]) + m11 * (p[1] - c[1])) for p in tri]


@settings(max_examples=400, deadline=None)
@given(moved_triangles())
def test_the_interior_fixed_point_on_rows_is_the_per_cell_solve(case):
    """`fixedlocus._interior_fixed_point`, on the rows of a triangle's
    corners and of their images, gives the row of the point that the
    per-cell linear solve finds strictly inside, and None where that solve
    finds no point, a chord or the whole cell."""
    tri, img = case
    f = SimpleNamespace(refinement=SimpleNamespace(points=tri), images=img)
    kind, x = oracle_cell_fix(f, (0, 1, 2))
    got = fixedlocus._interior_fixed_point([homogeneous(p) for p in tri],
                                           [homogeneous(q) for q in img])
    assert got == (homogeneous(x) if kind == "point" else None)


def oracle_raw_cells(f, kinds):
    """(cell, home) pairs of the refined complex, counting cell kinds."""
    raw = []
    for ci, s in enumerate(f.refinement.simplices):
        tri = [f.refinement.points[v] for v in s]
        img = [f.images[v] for v in s]
        if orient2_on_fractions(*tri) < 0:
            tri, img = [tri[0], tri[2], tri[1]], [img[0], img[2], img[1]]
        poly = []
        for i in range(3):
            poly.append(tri[i])
            x = oracle_edge_point(tri[i], tri[(i + 1) % 3], img[i], img[(i + 1) % 3])
            if x is not None:
                poly.append(x)
        kind, data = oracle_cell_fix(f, s)
        kinds[kind] += 1
        if kind == "point":
            cells = [(data, poly[i], poly[(i + 1) % len(poly)]) for i in range(len(poly))]
        elif kind == "chord":
            i, j = sorted(poly.index(x) for x in data)
            cells = [c for part in (poly[i:j + 1], poly[j:] + poly[:i + 1])
                     if len(part) >= 3 and polygon_area2_on_fractions(part) != 0
                     for c in triangulate_convex(part)]
        else:
            cells = triangulate_convex(poly)
        raw += [(c, ci) for c in cells]
    return raw


def oracle_frontier(fl):
    fix = set(fl.cells.simplices)
    return SubComplex(fl.refined, [
        c for c in fix if len(c) - 1 < fl.refined.dim
        and any(set(c) <= set(s) and s not in fix for s in fl.refined.simplices)])


def invariant_or_error(fl):
    try:
        ci = canonical_invariant(fl)
    except PLError as e:
        return type(e)
    return ci.n_f.simplices, ci.derivation_depth


def map_case(case, k):
    try:
        f = PLMap(*case)
    except PLError:
        assume(False)  # the moved vertices fold a cell
    return power(f, k)


ZERO = [(0, 0)] * 18
CENTRE_MOVED = [(0, 0)] * 4 + [(2, 1)] + [(0, 0)] * 4
EXAMPLES = [
    (grid_map(3, [(0, 0)] * 5 + [(2, 1)] + [(0, 0)] * 10, ZERO, "fixed", 0, "same"), 1),
    (grid_map(3, ZERO[:16], ZERO, "fixed", 2, "centroids"), 1),  # a reflection
    (grid_map(2, CENTRE_MOVED, ZERO, "fixed", 5, "same"), 1),  # a quarter turn
    (grid_map(2, CENTRE_MOVED, ZERO, "fixed", 5, "same"), 2),
]
OFFSETS = st.lists(st.one_of(st.just((0, 0)), st.tuples(st.integers(-2, 2), st.integers(-2, 2))),
                   min_size=16, max_size=16)
MAPS = st.builds(grid_map, st.sampled_from([2, 3]), OFFSETS, st.just(ZERO), st.just("fixed"),
                 st.integers(0, 7), st.sampled_from(["same", "centroids"]))


def oracle_raw_cells_1d(f):
    """(cell, home) pairs of the refined 1-complex: each edge, cut at its
    one fixed point strictly inside when there is one."""
    raw = []
    for ci, (u, v) in enumerate(f.refinement.simplices):
        a, b = f.refinement.points[u], f.refinement.points[v]
        x = oracle_edge_point(a, b, f.images[u], f.images[v])
        raw += [(cell, ci) for cell in ([(a, b)] if x is None else [(a, x), (x, b)])]
    return raw


def assert_matches_the_per_cell_solve(f, raw):
    """The refined complex, fixed cells, provenance, frontier and canonical
    invariant of f equal those built from the oracle's ``raw`` cells."""
    fl = fixed_subcomplex(f)
    pts, sims = index_cells(cell for cell, _ in raw)
    assert (fl.refined.points, fl.refined.simplices) == (tuple(pts), tuple(sorted(sims)))
    assert fl.provenance == dict(zip(sims, (home for _, home in raw)))
    # f on each refined cell is the piece of the cell it was cut from
    fixed = {p: f.eval_in_cell(home, homogeneous(p)) == homogeneous(p)
             for cell, home in raw for p in cell}
    expected = FixedLocus(fl.refined, SubComplex(fl.refined, [
        c for s in fl.refined.simplices for c in faces_of(s)
        if all(fixed[pts[v]] for v in c)]), fl.provenance)
    assert fl.cells.simplices == expected.cells.simplices
    assert frontier(fl).simplices == oracle_frontier(expected).simplices
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fixedlocus, "frontier", oracle_frontier)
        assert invariant_or_error(expected) == invariant_or_error(fl)
    return fl


@settings(max_examples=30, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(MAPS, st.sampled_from([1, 1, 2]))
@example(*EXAMPLES[0])
@example(*EXAMPLES[1])
@example(*EXAMPLES[2])
@example(*EXAMPLES[3])
def test_flag_rule_matches_the_per_cell_solve(case, k):
    """The fixed locus equals that of the per-cell linear solve on grid
    maps fixing the boundary, followed by a symmetry of the square, and
    their powers."""
    f = map_case(case, k)
    assert_matches_the_per_cell_solve(f, oracle_raw_cells(f, Counter()))


def interval_map(cuts, ups, decreasing):
    """[0, 1] cut at the distinct ``cuts``, the k-th vertex sent to the k-th
    point of [0, 1] cut at as many distinct ``ups``, or to the k-th from the
    end when ``decreasing``: a PL homeomorphism."""
    xs, ys = sorted({F(0), F(1)} | set(cuts)), sorted({F(0), F(1)} | set(ups))
    seg = Complex([(x,) for x in xs], [(k, k + 1) for k in range(len(xs) - 1)])
    return plmap_from_vertex_images(seg, [(y,) for y in (ys[::-1] if decreasing else ys)])


def polyline_map(xs, closed, shift):
    """The polyline through points of the parabola y = x^2 in x order,
    closed into a convex polygon or not, and its vertices permuted by the
    reflection k -> shift - k of the cycle, or k -> n - 1 - k of the arc:
    a homeomorphism that cuts each edge it turns around at the midpoint."""
    xs = sorted(xs)
    n = len(xs)
    pts = [(x, x * x) for x in xs]
    edges = [(k, k + 1) for k in range(n - 1)] + ([(0, n - 1)] if closed else [])
    line = Complex(pts, edges)
    return plmap_from_vertex_images(
        line, [pts[(shift - k) % n if closed else n - 1 - k] for k in range(n)])


INNER = st.lists(st.builds(F, st.integers(1, 11), st.just(12)), unique=True, max_size=5)
INTERVAL_MAPS = INNER.flatmap(lambda cuts: st.builds(
    interval_map, st.just(cuts), st.lists(st.builds(F, st.integers(1, 11), st.just(12)),
                                          unique=True, min_size=len(cuts), max_size=len(cuts)),
    st.booleans()))
POLYLINE_MAPS = st.builds(
    polyline_map, st.lists(st.builds(F, st.integers(-6, 6), st.integers(1, 3)), unique=True,
                           min_size=3, max_size=7),
    st.booleans(), st.integers(0, 6))


@settings(max_examples=60, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(st.one_of(INTERVAL_MAPS, POLYLINE_MAPS))
@example(interval_map([F(1, 3)], [F(1, 3)], True))
@example(polyline_map([F(0), F(1), F(2)], True, 1))
@example(polyline_map([F(-1), F(0), F(1, 2), F(2)], False, 0))
def test_flag_rule_matches_the_per_edge_solve_in_dimension_one(f):
    """The fixed locus of a map of a 1-complex equals the oracle's, on
    monotone maps of a subdivided interval and on reflections of planar
    polylines, which cut an edge at its midpoint."""
    assert_matches_the_per_cell_solve(f, oracle_raw_cells_1d(f))


@pytest.mark.parametrize("n, seed", [(n, seed) for n in (3, 4) for seed in range(6)])
def test_flag_rule_matches_the_per_cell_solve_on_bench_maps(n, seed):
    """The fixed locus equals the oracle's on the benchmark's seeded grid
    maps and on their composites, whose fixed chords cross grid edges."""
    f, g = bench_grid_maps(n, seed)
    for h in (f, compose2d(f, g), compose2d(g, f)):
        assert_matches_the_per_cell_solve(h, oracle_raw_cells(h, Counter()))


@pytest.mark.parametrize("n, seed", [(3, 3), (4, 0)])
def test_bench_composites_share_an_edge_cut_between_two_cells(n, seed):
    """Some composites above cut an edge that two cells share, so both
    cells must use the one cut point."""
    f, g = bench_grid_maps(n, seed)
    h = compose2d(f, g)
    fl = assert_matches_the_per_cell_solve(h, oracle_raw_cells(h, Counter()))
    old = set(h.refinement.points)
    homes = {}
    for s, home in fl.provenance.items():
        for v in s:
            homes.setdefault(v, set()).add(home)
    assert any(len(homes[v]) > 1 for v in homes if fl.refined.points[v] not in old)


def test_the_examples_meet_every_kind_of_cell():
    """The explicit examples above hold each kind of fixed set in a cell:
    none, an interior point, a chord and the whole cell."""
    kinds = Counter()
    for case, k in EXAMPLES:
        oracle_raw_cells(map_case(case, k), kinds)
    assert set(kinds) == {"none", "point", "chord", "full"}


@pytest.mark.parametrize("seed", range(12))
def test_maximal_simplices_match_the_all_pairs_filter(seed):
    """`SubComplex.maximal` keeps, in order, the simplices that are a proper
    subset of no other, on the fixed loci of seeded grid maps and of their
    squares."""
    rng = random.Random(seed)
    offsets = [rng.choice([(0, 0), (0, 0), (rng.randint(-1, 1), rng.randint(-1, 1))])
               for _ in range(16)]
    f = PLMap(*grid_map(3, offsets, ZERO, "fixed", rng.randrange(8), "centroids"))
    cells = fixed_subcomplex(power(f, 1 + seed % 2)).cells
    expected = tuple(s for s in cells.simplices
                     if not any(set(s) < set(t) for t in cells.simplices))
    assert cells.maximal() == expected
