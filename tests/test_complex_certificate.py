"""The boundary-cycle certificate of a planar `Complex`, against the exact
all-pairs disjointness test it stands in for."""

import random
from fractions import Fraction as F
from functools import cmp_to_key

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from plstab import complexes
from plstab.complexes import (Complex, SubComplex, _boundary_certificate, boundary,
                              cell_facets, directed_boundary, rational_points)
from plstab.errors import InvalidComplex
from plstab.geometry import homogeneous, is_simple_polygon
from plstab.plmap import PLMap, compose2d

from support import (assert_builds_as_on_fractions, boundary_facets_by_counts,
                     directed_boundary_by_pop_dict, grid_complex,
                     is_simple_polygon_on_fractions, neighbours_by_first_dict,
                     orient2_on_fractions, random_square_triangulation)

GRIDS = {n: grid_complex(n) for n in (2, 3)}
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)


def certificate_accepts(points, simplices):
    """Does the boundary-cycle certificate accept the cells?"""
    points = rational_points(points)
    signs = [orient2_on_fractions(*[points[v] for v in s]) for s in simplices]
    return _boundary_certificate([homogeneous(p) for p in points],
                                 directed_boundary(simplices, signs, cell_facets(simplices)))


def outcome(points, simplices):
    """What `Complex(...)` does with the inputs: the points and simplices it
    accepts with, or the type and message of what it raises."""
    try:
        c = Complex(points, simplices)
    except InvalidComplex as e:
        return type(e), str(e)
    return c.points, c.simplices


def exact_outcome(*case):
    """`outcome` with the certificate switched off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(complexes, "_boundary_certificate", lambda *args: False)
        return outcome(*case)


def certificate_only(*case):
    """`outcome` with the exact path switched off: raises unless the
    certificate accepts."""
    def refuse(self):
        raise AssertionError("the exact path ran")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Complex, "_check_cells_exactly", refuse)
        return outcome(*case)


def centroid_split(points, simplices):
    """Each triangle split at its centroid: the boundary stays the same."""
    points, sims = list(points), []
    for a, b, c in simplices:
        points.append(tuple(sum(x) / 3 for x in zip(points[a], points[b], points[c])))
        m = len(points) - 1
        sims += [(a, b, m), (b, c, m), (a, c, m)]
    return points, sims


def moved(points, offsets, scale, which):
    """The points moved by offsets[k] * scale, all of them or only those off
    the boundary of the unit square."""
    out = []
    for (x, y), (dx, dy) in zip(points, offsets):
        if which == "interior" and {x, y} & {0, 1}:
            dx = dy = 0
        out.append((x + dx * scale, y + dy * scale))
    return out


def grid_case(n, offsets, which, split):
    """The n x n grid with vertices moved by up to one cell width: cells
    may fold over or overlap their neighbours, and with "all" the boundary
    may cross itself."""
    grid = GRIDS[n]
    points, sims = moved(grid.points, offsets, F(1, 4 * n), which), list(grid.simplices)
    if split:
        points, sims = centroid_split(points, sims)
    return points, sims


def random_case(seed, which):
    """A random triangulation of the unit square, a third of its vertices
    moved by up to a quarter of the side."""
    rng = random.Random(seed)
    c = random_square_triangulation(rng, max_triangles=16)
    offsets = [(rng.randint(-4, 4), rng.randint(-4, 4)) if rng.random() < 1 / 3 else (0, 0)
               for _ in c.points]
    return moved(c.points, offsets, F(1, 16), which), list(c.simplices)


OFFSET = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
WHICH = st.sampled_from(["none", "interior", "all"])
CASES = st.one_of(
    st.builds(grid_case, st.sampled_from(sorted(GRIDS)),
              st.lists(OFFSET, min_size=16, max_size=16), WHICH, st.booleans()),
    st.builds(random_case, st.integers(0, 10 ** 6), WHICH))


@settings(max_examples=200, deadline=None, phases=NO_SHRINK)
@given(CASES)
@example(grid_case(2, [(0, 0)] * 9, "none", True))
@example(grid_case(2, [(0, 0)] * 4 + [(3, -3)] + [(0, 0)] * 4, "interior", False))
def test_certificate_agrees_with_the_exact_path(case):
    """With or without the certificate, `Complex` accepts the same complexes,
    with the same points and simplices, and raises the same errors."""
    points, simplices = case
    expected = exact_outcome(points, simplices)
    if certificate_accepts(points, simplices):
        assert not isinstance(expected[0], type)
    assert outcome(points, simplices) == expected


@settings(max_examples=200, deadline=None, phases=NO_SHRINK)
@given(CASES)
@example(grid_case(2, [(0, 0)] * 4 + [(4, 0)] + [(0, 0)] * 4, "interior", False))
def test_the_facet_table_pairs_edges_as_the_pairings_it_replaced(case):
    """On the same cells, folded, overlapping or degenerate ones included,
    the readers of the facet table give what their own pairings gave: the
    directed boundary as a set (its order is free), the cells across each
    edge, and the boundary."""
    points, simplices = case
    # `Complex.trusted` with no check: the tests' trusted builds validate
    c = Complex.__new__(Complex)
    c._assemble(tuple(homogeneous(p) for p in rational_points(points)), simplices)
    old = directed_boundary_by_pop_dict(c.points, c.simplices)
    new = directed_boundary(c.simplices, c.orientations(), c.facets())
    assert (new is None, set(new or ())) == (old is None, set(old or ()))
    assert c.neighbours() == neighbours_by_first_dict(c.simplices)
    assert boundary(c) == SubComplex(c, boundary_facets_by_counts(c.simplices))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_grids_are_certified(n):
    grid = grid_complex(n)
    assert certificate_only(grid.points, grid.simplices) == (grid.points, grid.simplices)


# -- explicit complexes ------------------------------------------------------


def from_polygons(*polygons):
    """Points and simplices of convex polygons given by their corners, each
    fanned from its first corner; equal corners are one vertex."""
    index, sims = {}, []
    for poly in polygons:
        ids = [index.setdefault(p, len(index)) for p in rational_points(poly)]
        sims += [tuple(sorted((ids[0], ids[k], ids[k + 1]))) for k in range(1, len(ids) - 1)]
    return list(index), sims


def square(x0, y0, x1, y1):
    return [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]


# the eight directions of the compass, counter-clockwise from east
COMPASS = [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)]


def ray(k, r):
    dx, dy = COMPASS[k % 8]
    return (r * dx, r * dy)


def spiral_strip(steps):
    """A strip of quads between two spirals, each step an eighth of a turn:
    a disk with one boundary cycle, which laps itself after eight steps."""
    return from_polygons(*[
        [ray(k, 2 + F(k, 16)), ray(k, 4 + F(k, 16)),
         ray(k + 1, 4 + F(k + 1, 16)), ray(k + 1, 2 + F(k + 1, 16))]
        for k in range(steps)])


def double_star():
    """The cone from the origin over a spiral that winds twice around it:
    the origin is an interior vertex, and the boundary one cycle."""
    rim = [ray(k, 1 + F(k, 16)) for k in range(16)]
    return from_polygons(*[[(0, 0), rim[k], rim[(k + 1) % 16]] for k in range(16)])


def c_shape(pinched):
    """Two bars joined on the right, and a triangle hanging from the top bar
    whose tip (1/2, 1) lies on the top side of the bottom bar: a vertex of
    it when ``pinched``, else inside an edge (a T-junction)."""
    bottom = ([(0, 0), (1, 0), (1, 1), (F(1, 2), 1), (0, 1)] if pinched
              else square(0, 0, 1, 1))
    return from_polygons(bottom, square(1, 0, 2, 1), square(1, 1, 2, 2),
                         square(0, 2, 1, 3), square(1, 2, 2, 3),
                         [(0, 2), (F(1, 2), 1), (1, 2)])


OVERLAPPING = {
    # the centre pushed below the bottom side: one cell folds back
    "fold": from_polygons(*[[(F(1, 2), F(-1, 4)), a, b] for a, b in
                            [((0, 0), (1, 0)), ((1, 0), (1, 1)),
                             ((1, 1), (0, 1)), ((0, 1), (0, 0))]]),
    "strip lapping itself": spiral_strip(10),
    "star winding twice": double_star(),
    "square inside a square": from_polygons(square(0, 0, 3, 3), square(1, 1, 2, 2)),
    "crossing squares": from_polygons(square(0, 0, 2, 2), square(1, 1, 3, 3)),
}


@pytest.mark.parametrize("name", sorted(OVERLAPPING))
def test_overlapping_complexes_take_the_exact_path(name):
    points, simplices = OVERLAPPING[name]
    assert not certificate_accepts(points, simplices)
    kind, message = outcome(points, simplices)
    assert kind is InvalidComplex and message.endswith("overlap")
    assert exact_outcome(points, simplices) == (kind, message)


NOT_IN_COMMON_FACES = {
    "C-shape touching itself at a T": (
        c_shape(pinched=False),
        "vertex 12 lies in simplex (0, 2, 3) but is not one of its vertices"),
    "T-junction square": (
        ([(0, 0), (2, 0), (2, 2), (0, 2), (1, 1)], [(0, 1, 4), (1, 2, 4), (0, 2, 3)]),
        "vertex 4 lies in simplex (0, 2, 3) but is not one of its vertices"),
}


@pytest.mark.parametrize("name", sorted(NOT_IN_COMMON_FACES))
def test_cells_meeting_in_no_common_face_take_the_exact_path(name):
    """Cells with disjoint interiors that meet in no common face: the
    certificate declines, and the exact path refuses, naming the vertex."""
    (points, simplices), message = NOT_IN_COMMON_FACES[name]
    assert not certificate_accepts(points, simplices)
    assert outcome(points, simplices) == (InvalidComplex, message)
    assert exact_outcome(points, simplices) == (InvalidComplex, message)


VALID = {
    "annulus": from_polygons(*[square(x, y, x + 1, y + 1) for x in range(3) for y in range(3)
                               if (x, y) != (1, 1)]),
    "bowtie": from_polygons([(0, 0), (1, -1), (1, 1)], [(0, 0), (-1, 1), (-1, -1)]),
    "C-shape touching itself": c_shape(pinched=True),
    "strip short of a lap": spiral_strip(7),
}


CENTROID_MOVES = st.lists(st.tuples(st.integers(-1, 1), st.integers(-1, 1)),
                         min_size=20, max_size=20)


@settings(max_examples=8, deadline=None)
@given(st.sampled_from(sorted(VALID)), CENTROID_MOVES, CENTROID_MOVES)
def test_maps_of_the_declined_complexes_compose_and_invert_as_on_fractions(name, f_moves,
                                                                         g_moves):
    """On the complexes above, which are not convex, maps that fix the
    vertices and move the centroid of each cell by at most 1/48 compose
    and invert, on rows, to the points, simplices, base cells and images
    of the `Fraction` pipeline."""
    base = Complex(*VALID[name])
    split = Complex(*centroid_split(*VALID[name]))
    n = len(base.points)

    def moved(moves):
        return list(base.points) + [(x + F(dx, 48), y + F(dy, 48))
                                    for (x, y), (dx, dy) in zip(split.points[n:], moves)]

    f, g = PLMap(base, split, moved(f_moves)), PLMap(base, split, moved(g_moves))
    assert_builds_as_on_fractions(f, g)
    assert_builds_as_on_fractions(compose2d(f, g), f)


@pytest.mark.parametrize("name", sorted(VALID))
def test_valid_complexes_the_certificate_declines(name):
    """Several boundary cycles, a pinched boundary and a boundary touching
    itself are accepted by the exact path; a strip that does not lap itself
    is certified."""
    points, simplices = VALID[name]
    certified = certificate_accepts(points, simplices)
    assert certified == (name == "strip short of a lap")
    c = Complex(points, simplices)
    assert outcome(points, simplices) == (c.points, c.simplices)


def simple(points):
    """`is_simple_polygon` of the rows of the points."""
    return is_simple_polygon([homogeneous(p) for p in points])


def test_simple_polygons():
    assert simple(square(0, 0, 1, 1))
    assert simple([(0, 0), (2, 0), (1, 1), (1, 2), (0, 2)])
    # a spike: the third side runs back along the second
    assert not simple([(0, 0), (2, 0), (2, 2), (2, 1), (0, 2)])
    # three points on one line: every side folds back onto its neighbour
    assert not simple([(0, 0), (2, 0), (1, 0)])
    # a bowtie: the second and fourth sides cross
    assert not simple([(0, 0), (1, 0), (0, 1), (1, 1)])


def around_their_centroid(pts):
    """The points in angular order around their centroid, which makes a
    simple polygon more often than not."""
    c = tuple(sum(x) / len(pts) for x in zip(*pts))

    def half(p):
        return 0 if p[1] > c[1] or (p[1] == c[1] and p[0] > c[0]) else 1

    def cmp(p, q):
        cross = (p[0] - c[0]) * (q[1] - c[1]) - (p[1] - c[1]) * (q[0] - c[0])
        return (half(p) - half(q)) or (cross < 0) - (cross > 0)
    return sorted(pts, key=cmp_to_key(cmp))


COORD = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3, 5, 7]))
POINTS = st.lists(st.tuples(COORD, COORD), min_size=3, max_size=9, unique=True)


@settings(max_examples=400, deadline=None, phases=NO_SHRINK)
@given(st.one_of(POINTS, POINTS.map(around_their_centroid)))
@example([(F(0), F(0)), (F(1, 3), F(0)), (F(1, 3), F(1, 7)), (F(0), F(1, 7))])
@example([(F(0), F(0)), (F(2, 3), F(0)), (F(1, 3), F(0)), (F(0), F(1, 5))])
@example([(F(0), F(0)), (F(1, 2), F(0)), (F(1, 2), F(1, 3)), (F(1, 4), F(0)), (F(0), F(1))])
def test_integer_grid_matches_the_fraction_test(pts):
    """`is_simple_polygon`, on the rows scaled onto an integer grid,
    agrees with the same tests run on the `Fraction` points: lattice points
    with mixed denominators, in their given order (mostly not simple, with
    touching and collinear sides) and around their centroid (mostly
    simple)."""
    assert simple(pts) == is_simple_polygon_on_fractions(pts)
