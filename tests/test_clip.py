import random
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from plstab.clip import (clip_polygon_to_triangle, point_in_triangle, polygon_area2,
                         polygon_centroid, triangle_intersection)
from plstab.geometry import affine_point, hom_cell, homogeneous

from support import (ccw_triangle, orient2_on_fractions, polygon_area2_on_fractions,
                     polygon_centroid_on_fractions, triangulate_convex)


def area(homs):
    """The area of a polygon given by the rows of its vertex cycle."""
    return abs(F(*polygon_area2(homs))) / 2


def points_area(poly):
    """The area of a polygon given by its points."""
    return abs(polygon_area2_on_fractions(poly)) / 2


def test_polygon_area2_square():
    sq = [(0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)]
    assert polygon_area2(sq) == (2, 1)
    assert F(*polygon_area2([(0, 0, 2), (1, 0, 2), (1, 1, 2), (0, 1, 2)])) == F(1, 2)
    assert polygon_area2([]) == (0, 1)


coords = st.one_of(st.integers(min_value=-10**6, max_value=10**6),
                   st.fractions(min_value=-50, max_value=50, max_denominator=10**9))


@settings(max_examples=200)
@given(st.lists(st.tuples(coords, coords), max_size=8))
def test_polygon_area2_is_the_shoelace_sum(poly):
    """The shoelace sum on the rows of a polygon's points, an integer ratio,
    is the one taken in Fractions."""
    got = polygon_area2([homogeneous(p) for p in poly])
    assert all(type(x) is int for x in got) and got[1] > 0
    assert F(*got) == polygon_area2_on_fractions(poly)


@settings(max_examples=200)
@given(st.lists(st.tuples(coords, coords), min_size=3, max_size=8))
def test_polygon_centroid_on_rows_is_the_fraction_centroid(poly):
    """The centroid row of a polygon of nonzero area, in either
    orientation, is the row of the `Fraction` centroid."""
    homs = [homogeneous(p) for p in poly]
    if polygon_area2_on_fractions(poly):
        assert polygon_centroid(homs) == homogeneous(polygon_centroid_on_fractions(poly))


# `triangle_intersection` takes its polygon and triangle counter-clockwise,
# as the literal triangles below are, each as a `HomCell`; loose ones are
# oriented first


def test_triangle_self_intersection():
    t = hom_cell([(0, 0), (4, 0), (0, 4)])
    got = triangle_intersection(t, t)
    assert area(got) == 8


def test_disjoint_triangles():
    t1 = hom_cell([(0, 0), (1, 0), (0, 1)])
    t2 = hom_cell([(5, 5), (6, 5), (5, 6)])
    assert triangle_intersection(t1, t2) == []


def test_half_overlap():
    t1 = hom_cell([(0, 0), (2, 0), (0, 2)])
    t2 = hom_cell([(0, 0), (2, 0), (2, 2)])
    got = triangle_intersection(t1, t2)
    assert area(got) == 1  # the shared lower-left triangle


def test_loose_inputs_are_oriented_by_the_entry_point():
    """`clip_polygon_to_triangle` takes either orientation and gives the
    kernel's counter-clockwise cycle of the oriented inputs."""
    t1 = [(0, 0), (0, 2), (2, 0)]
    t2 = [(2, 2), (2, 0), (0, 0)]
    want = triangle_intersection(hom_cell(ccw_triangle(t1)), hom_cell(ccw_triangle(t2)))
    assert area(want) == 1 and polygon_area2(want)[0] > 0
    for a in (t1, t1[::-1]):
        for b in (t2, t2[::-1]):
            assert clip_polygon_to_triangle(a, b) == [affine_point(h) for h in want]


def test_point_in_triangle_boundary():
    t = [(0, 0), (2, 0), (0, 2)]
    assert point_in_triangle((1, 0), t)
    assert point_in_triangle((F(1, 2), F(1, 2)), t)
    assert not point_in_triangle((2, 2), t)


def test_clip_square_to_triangle():
    sq = [(0, 0), (1, 0), (1, 1), (0, 1)]
    assert points_area(clip_polygon_to_triangle(sq, [(0, 0), (2, 0), (0, 2)])) == 1
    assert points_area(clip_polygon_to_triangle(sq, [(0, 0), (1, 0), (0, 1)])) == F(1, 2)
    half = [(0, 0), (3, 0), (0, 3)]
    assert points_area(clip_polygon_to_triangle(sq, [(-1, -1), (F(3, 2), -1),
                                                     (F(3, 2), 3)])) < 1
    assert points_area(clip_polygon_to_triangle(sq, half)) == 1


def test_triangulate_convex_fan():
    sq = [(0, 0), (1, 0), (1, 1), (0, 1)]
    tris = triangulate_convex(sq)
    assert sum(points_area(t) for t in tris) == 1
    assert len(tris) == 2


def test_triangulate_convex_with_collinear_chain():
    # boundary vertices collinear with the fan apex must not vanish
    poly = [(0, 0), (1, 0), (2, 0), (2, 2), (0, 2)]
    tris = triangulate_convex(poly)
    assert sum(points_area(t) for t in tris) == 4
    used = {p for t in tris for p in t}
    assert (1, 0) in used


def test_random_intersections_symmetric_and_bounded():
    rng = random.Random(7)
    for _ in range(60):
        t1 = ccw_triangle([(F(rng.randint(0, 8)), F(rng.randint(0, 8)))
                           for _ in range(3)])
        t2 = ccw_triangle([(F(rng.randint(0, 8)), F(rng.randint(0, 8)))
                           for _ in range(3)])
        if orient2_on_fractions(*t1) == 0 or orient2_on_fractions(*t2) == 0:
            continue
        a12 = area(triangle_intersection(hom_cell(t1), hom_cell(t2)))
        a21 = area(triangle_intersection(hom_cell(t2), hom_cell(t1)))
        assert a12 == a21
        assert a12 <= min(points_area(t1), points_area(t2))
