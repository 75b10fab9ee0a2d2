import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from plstab.clip import polygon_area2, triangle_intersection
from plstab.geometry import (Mat, area2, between, candidate_pairs,
                             collinear_overlap, cross2, fmt, hom_barycentre, hom_cell,
                             hom_direction, homogeneous, on_segment, orient2,
                             primitive_direction, rat, ratio, row_boxes)

from support import bbox, orient2_on_fractions, rat_by_fraction, segment_param, vsub

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
small = st.fractions(min_value=-4, max_value=4, max_denominator=3)
points2 = st.tuples(small, small)


def test_rat_parses_fractions_and_ints():
    assert rat("3/4") == Fraction(3, 4)
    assert rat("-2") == Fraction(-2)
    assert rat(Fraction(1, 3)) == Fraction(1, 3)


def test_fmt_canonical():
    assert fmt(Fraction(1, 2)) == "1/2"
    assert fmt(Fraction(4, 2)) == "2"
    assert fmt(Fraction(-3, 6)) == "-1/2"


def test_rat_rejects_floats():
    from plstab.errors import ParseError
    with pytest.raises(ParseError):
        rat(0.5)


def test_rat_bounds_the_decimal_exponent():
    """Exponents up to `MAX_EXPONENT` parse; a larger one is refused before
    `Fraction` builds its power of ten, which for 1e-999999999 would not
    return."""
    from plstab.errors import ParseError
    assert rat("1e4300") == 10 ** 4300
    assert rat("-2.5E-4300") == Fraction(-5, 2 * 10 ** 4300)
    for token in ("1e4301", "1e-999999999"):
        start = time.perf_counter()
        with pytest.raises(ParseError, match="bad rational literal"):
            rat(token)
        assert time.perf_counter() - start < 1


def outcome(parse, value):
    """What parse(value) returns, or the type and message of what it raises."""
    try:
        return parse(value)
    except Exception as exc:  # the differential tests compare any failure
        return type(exc), str(exc)


# pieces of literals: ASCII and other decimal digits ("٣" ARABIC-INDIC
# THREE, "５" FULLWIDTH FIVE), a digit `int` refuses ("²"), underscores,
# signs, slashes, points, exponents and blanks
LITERAL_PIECES = st.sampled_from(["0", "1", "2", "7", "10", "007", "٣", "５", "²", "_", "-",
                                  "+", "/", "//", ".", "e", "E", "e-", " ", "\t", "x"])
LITERALS = st.one_of(
    st.lists(LITERAL_PIECES, max_size=6).map("".join),
    st.builds("{}{}/{}".format, st.sampled_from(["", "-", "+"]),
              st.integers(0, 10**30), st.integers(0, 10**30)),
    st.builds(lambda n: str(n), st.integers(-10**30, 10**30)),
    st.text(alphabet="0123456789-+/. e_", max_size=8),
)


@settings(max_examples=400, deadline=None)
@given(LITERALS)
@example("-0")
@example("1/0")
@example("")
@example("+3")
@example(" 3/4")
@example("3/4 ")
@example("3 / 4")
@example("3/")
@example("/4")
@example("-")
@example("1_000")
@example("1e-3")
@example("1e999999999")
@example("1.50")
@example("٣")
@example("٣/٤")
@example("5/٤")
@example("²")
@example("-6/4")
@example("0/-5")
@example("10" * 30 + "/" + "4" * 25)
def test_ratio_matches_the_fraction_parse(token):
    """`ratio` gives the ratio `Fraction(token)` gives through the old
    `rat`, or the same exception type and message; `rat` gives the same
    Fraction."""
    expected = outcome(lambda t: rat_by_fraction(t).as_integer_ratio(), token)
    assert outcome(ratio, token) == expected
    assert outcome(rat, token) == outcome(rat_by_fraction, token)


@pytest.mark.parametrize("value", [0, -3, True, Fraction(-6, 4), 0.5, None, b"1"])
def test_ratio_matches_the_fraction_parse_on_other_values(value):
    assert outcome(ratio, value) == outcome(lambda v: rat_by_fraction(v).as_integer_ratio(),
                                            value)
    assert outcome(rat, value) == outcome(rat_by_fraction, value)


def test_orient2_signs():
    a, b, c = (0, 0, 1), (1, 0, 1), (0, 1, 1)
    assert orient2(a, b, c) > 0
    assert orient2(a, c, b) < 0
    assert orient2(a, b, (2, 0, 1)) == 0
    # the rows of (1/2, 0) and (0, 1/3)
    assert orient2(a, (1, 0, 2), (0, 1, 3)) == 1


# ints, Fractions with large coprime denominators, and negative values
coords = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.fractions(min_value=-50, max_value=50, max_denominator=10**9),
)
mixed_points = st.tuples(coords, coords)


@settings(max_examples=200)
@given(mixed_points, mixed_points, mixed_points)
@example((Fraction(1, 999999937), -7), (Fraction(-3, 1000000007), Fraction(5, 998244353)),
         (2, Fraction(-1, 999999937)))
@example((0, 0), (1, 0), (0, 1))
def test_area2_matches_reference_formula(a, b, c):
    got = area2(a, b, c)
    assert isinstance(got, Fraction)
    assert got == cross2(vsub(b, a), vsub(c, a))


@settings(max_examples=200)
@given(mixed_points, mixed_points, mixed_points)
@example((Fraction(1, 999999937), -7), (Fraction(-3, 1000000007), Fraction(5, 998244353)),
         (2, Fraction(-1, 999999937)))
@example((0, 0), (1, 0), (2, 0))
def test_orient2_is_the_sign_of_area2(a, b, c):
    got = orient2(homogeneous(a), homogeneous(b), homogeneous(c))
    assert type(got) is int
    value = area2(a, b, c)
    assert got == (value > 0) - (value < 0)


def test_orient2_reads_only_the_plane_coordinates():
    rows = [homogeneous(p) for p in ((0, 0, 5), (1, 0, -2), (0, 1, Fraction(1, 3)))]
    assert orient2(*rows) == 1
    assert area2((0, 0, 5), (1, 0, -2), (0, 2, Fraction(1, 3))) == 2


def test_between_and_param():
    assert between((0, 0), (2, 2), (1, 1))
    assert not between((0, 0), (2, 2), (3, 3))
    assert segment_param((0, 0), (4, 0), (1, 0)) == Fraction(1, 4)
    assert segment_param((0, 0), (4, 0), (1, 1)) is None
    # on rows: a vertical segment, a segment in R^1, and one shrunk to a point
    rows = [homogeneous(p) for p in ((1, 0), (1, Fraction(3, 2)), (1, Fraction(2, 3)), (1, 2))]
    assert on_segment(rows[0], rows[1], rows[2]) and not on_segment(*rows[:2], rows[3])
    assert on_segment((3, 1), (1, 2), (1, 1)) and not on_segment((3, 1), (1, 2), (4, 1))
    assert on_segment(rows[0], rows[0], rows[0]) and not on_segment(rows[0], rows[0], rows[2])


@settings(max_examples=200)
@given(st.sampled_from([1, 2]).flatmap(lambda k: st.lists(st.tuples(*[small] * k),
                                                          min_size=3, max_size=3)),
       st.lists(st.integers(-3, 3), min_size=3, max_size=3))
def test_rows_give_the_fraction_direction_and_barycentre(pts, weights):
    """`hom_direction` of two distinct points' rows is the
    `primitive_direction` of their difference, and `hom_barycentre` of
    rows with integer weights of nonzero sum is the row of the weighted
    mean of the points, in R^1 and R^2."""
    a, b, c = pts
    if a != b:
        assert hom_direction(homogeneous(a), homogeneous(b)) == primitive_direction(vsub(b, a))
    if sum(weights):
        mean = tuple(sum(w * p[k] for w, p in zip(weights, pts)) / sum(weights)
                     for k in range(len(a)))
        assert hom_barycentre(weights, [homogeneous(p) for p in pts]) == homogeneous(mean)


def test_primitive_direction():
    assert primitive_direction((Fraction(1, 2), Fraction(1, 2))) == (1, 1)
    assert primitive_direction((Fraction(-4), Fraction(6))) == (-2, 3)
    assert primitive_direction((0, Fraction(-5, 3))) == (0, -1)


@given(st.lists(rationals, min_size=4, max_size=4))
def test_mat_inverse_roundtrip(entries):
    m = Mat([entries[:2], entries[2:]])
    if m.det() == 0:
        return
    assert (m * m.inverse()).is_identity()
    assert (m.inverse() * m).is_identity()


def test_mat_is_two_by_two():
    assert Mat.identity() == Mat([[1, 0], [0, 1]])
    assert Mat([[1, 2], [3, 4]]) * Mat([[0, 1], [1, 0]]) == Mat([[2, 1], [4, 3]])
    assert Mat([[1, 2], [3, 4]]).apply((1, Fraction(1, 2))) == (2, 5)
    with pytest.raises(ValueError):
        Mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_mat_is_positive_scalar():
    assert Mat([[2, 0], [0, 2]]).is_positive_scalar()
    assert not Mat([[2, 0], [0, 3]]).is_positive_scalar()
    assert not Mat([[-1, 0], [0, -1]]).is_positive_scalar()


def test_cross2():
    assert cross2((1, 0), (0, 1)) == 1
    assert cross2((2, 3), (4, 6)) == 0


def _box_pairs(boxes_a, boxes_b=None):
    """The all-pairs box loop that the sweep of `candidate_pairs` replaced:
    every pair of boxes, in row-major order (i < j with one list), that are
    not apart along some axis."""
    one = boxes_b is None
    boxes_b = boxes_a if one else boxes_b
    return [(i, j) for i, (lo1, hi1) in enumerate(boxes_a)
            for j in range(i + 1 if one else 0, len(boxes_b))
            if not any(hi1[k] < boxes_b[j][0][k] or boxes_b[j][1][k] < lo1[k]
                       for k in range(len(lo1)))]


def _check_candidates(cells_a, cells_b, meet):
    """candidate_pairs of the cells' boxes holds every meeting pair, in
    row-major order: the pairs of the all-pairs box loop, in its order."""
    boxes_a, boxes_b = [bbox(c) for c in cells_a], [bbox(c) for c in cells_b]
    pairs = list(candidate_pairs(boxes_a, boxes_b))
    assert pairs == _box_pairs(boxes_a, boxes_b)
    assert list(candidate_pairs(boxes_a)) == _box_pairs(boxes_a)
    assert pairs == sorted(set(pairs))
    for i, a in enumerate(cells_a):
        for j, b in enumerate(cells_b):
            if meet(a, b):
                assert (i, j) in pairs
    own = list(candidate_pairs(boxes_a))
    assert own == sorted(set(own))
    assert all(i < j for i, j in own)
    for i, a in enumerate(cells_a):
        for j in range(i + 1, len(cells_a)):
            if meet(a, cells_a[j]):
                assert (i, j) in own


@settings(max_examples=50)
@given(st.lists(st.lists(points2, min_size=3, max_size=3), max_size=6),
       st.lists(st.lists(points2, min_size=3, max_size=3), max_size=6))
def test_candidate_pairs_keep_overlapping_triangles(tris_a, tris_b):
    # clipping meets only nondegenerate triangles: against a degenerate one
    # it keeps the whole other triangle
    _check_candidates(
        tris_a, tris_b,
        lambda s, t: orient2_on_fractions(*s) != 0 != orient2_on_fractions(*t)
        and polygon_area2(triangle_intersection(hom_cell(s), hom_cell(t)))[0] != 0)


@settings(max_examples=50)
@given(st.lists(st.lists(points2, min_size=2, max_size=2), max_size=8),
       st.lists(st.lists(points2, min_size=2, max_size=2), max_size=8))
def test_candidate_pairs_keep_overlapping_segments(segs_a, segs_b):
    _check_candidates(
        segs_a, segs_b,
        lambda s, t: collinear_overlap(*map(homogeneous, (*s, *t))) is not None)


@st.composite
def cell_lists(draw):
    """One or two lists of cells in R^1 or R^2, each cell two or three
    points, equal points making a degenerate box, their coordinates drawn
    from a small pool of rationals, negative ones and denominators up to
    10^6 included, so that boxes touch, nest and share sides."""
    dim = draw(st.sampled_from([1, 2]))
    pool = draw(st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=10**6),
                         min_size=1, max_size=6))
    cell = st.lists(st.tuples(*[st.sampled_from(pool)] * dim), min_size=2, max_size=3)
    return draw(st.lists(st.lists(cell, min_size=1, max_size=8), min_size=1, max_size=2))


@settings(max_examples=300)
@given(cell_lists())
@example([[[(Fraction(1, 999983),), (Fraction(1, 3),)], [(Fraction(1, 3),), (Fraction(1, 2),)]],
          [[(Fraction(1, 1000003),), (Fraction(1, 999983),)],
           [(Fraction(-1, 1000003),), (Fraction(-1, 999983),)]]])
@example([[[(Fraction(-7, 3), Fraction(1, 999983)), (Fraction(-7, 3), Fraction(2))],
           [(Fraction(-7, 3), Fraction(1, 1000003)), (Fraction(0), Fraction(0))],
           [(Fraction(1), Fraction(1))] * 2]])
def test_row_boxes_pair_as_the_fraction_boxes(lists):
    """`candidate_pairs` on the integer `row_boxes` of the cells' rows
    gives the pairs, in the same order, that it gives on the `bbox` of
    their `Fraction` points: the scaled ints order and meet as the
    rationals do."""
    rows = [[[homogeneous(p) for p in cell] for cell in cells] for cells in lists]
    assert candidate_pairs(*row_boxes(*rows)) == candidate_pairs(
        *[[bbox(cell) for cell in cells] for cells in lists])


def test_candidate_pairs_with_a_degenerate_triangle():
    """A triangle whose box misses the other's is no candidate, however
    clipping against it would read (it keeps the whole other triangle)."""
    point = [(Fraction(0), Fraction(0))] * 3
    tri = [(Fraction(0), Fraction(1)), (Fraction(0), Fraction(2)), (Fraction(1), Fraction(1))]
    assert polygon_area2(triangle_intersection(hom_cell(tri), hom_cell(point)))[0] != 0
    assert list(candidate_pairs([bbox(tri)], [bbox(point)])) == []


def test_candidate_pairs_skip_apart_boxes():
    cells = [[(0, 0), (1, 0), (0, 1)], [(5, 5), (6, 5), (5, 6)], [(1, 1), (2, 0), (2, 2)]]
    boxes = [bbox(cell) for cell in cells]
    assert boxes[2] == ((1, 0), (2, 2))
    assert list(candidate_pairs(boxes)) == [(0, 2)]
    assert list(candidate_pairs(boxes, boxes[:2])) == [(0, 0), (1, 1), (2, 0)]


def boxes(dim):
    """Lists of boxes (lower corner, upper corner) of one dimension, ints
    or Fractions, negatives and repeated coordinates among them, some flat
    along an axis."""
    coords = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))
    corner = st.tuples(*[coords] * dim)
    sizes = st.tuples(*[st.sampled_from([0, 0, Fraction(1, 2), 1, 3])] * dim)
    box = st.builds(lambda lo, size: (lo, tuple(x + s for x, s in zip(lo, size))), corner, sizes)
    return st.lists(box, max_size=9)


@settings(max_examples=150)
@given(st.sampled_from([1, 2]).flatmap(lambda d: st.tuples(boxes(d), boxes(d))))
def test_candidate_pairs_match_the_all_pairs_loop(lists):
    """On 1D and 2D boxes, with one list and with two, the sweep gives the
    pairs of the all-pairs loop, in its order."""
    boxes_a, boxes_b = lists
    assert candidate_pairs(boxes_a, boxes_b) == _box_pairs(boxes_a, boxes_b)
    assert candidate_pairs(boxes_a) == _box_pairs(boxes_a)
    assert candidate_pairs(boxes_a, boxes_a) == _box_pairs(boxes_a, boxes_a)
