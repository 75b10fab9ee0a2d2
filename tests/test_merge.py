"""The kink-only merge of `compose1d` and `compose_lift`, and the
slope-based canonicalization of the validating constructor, against
`canonical_breakpoints`, the collinearity test on breakpoints; the merge
on breakpoint rows against the `Fraction` merge it replaced; and the
validating constructor on breakpoint rows against the `Fraction` one it
replaced."""

import math
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from plstab import circle, interval
from plstab.circle import CircleLift, compose_lift, inverse_lift
from plstab.errors import InvalidComplex
from plstab.geometry import fmt
from plstab.interval import PLMap1D, compose1d, inverse1d

from strategies import LIFTS, SHIFT, interval_pairs
from support import (c1_map, f1_map, fraction_breakpoints, fraction_compose1d,
                     fraction_compose_lift, fraction_constructor, fraction_inverse_lift,
                     fraction_merge, piece_slopes)

MERGE = interval.compose_breakpoints


def canonical_breakpoints(bps):
    """bps without each interior point collinear with its neighbours, by
    cross-multiplied differences: no slope is computed."""
    out = [bps[0]]
    for i in range(1, len(bps) - 1):
        x0, y0 = out[-1]
        x1, y1 = bps[i]
        x2, y2 = bps[i + 1]
        if (y1 - y0) * (x2 - x1) != (y2 - y1) * (x1 - x0):
            out.append(bps[i])
    out.append(bps[-1])
    return tuple(out)


def plain_merge(fbps, gbps):
    """Every breakpoint of x -> f(g(x)) for g with increasing values: g's,
    valued from the current f piece, and between them the g-preimage of each
    f breakpoint strictly inside a g piece, valued exactly as its y."""
    last = len(fbps) - 2
    xa, ya = gbps[0]
    j = 0
    while j < last and fbps[j + 1][0] <= ya:
        j += 1
    (u0, v0), (u1, v1) = fbps[j], fbps[j + 1]
    out = [(xa, v0 + (ya - u0) * (v1 - v0) / (u1 - u0))]
    for xb, yb in gbps[1:]:
        while u1 < yb:
            out.append((xa + (u1 - ya) * (xb - xa) / (yb - ya), v1))
            j += 1
            (u0, v0), (u1, v1) = (u1, v1), fbps[j + 1]
        if yb == u1:
            out.append((xb, v1))
            if j < last:
                j += 1
                (u0, v0), (u1, v1) = (u1, v1), fbps[j + 1]
        else:
            out.append((xb, v0 + (yb - u0) * (v1 - v0) / (u1 - u0)))
        xa, ya = xb, yb
    return out


def slope(bps, i):
    (x0, y0), (x1, y1) = bps[i], bps[i + 1]
    return (y1 - y0) / (x1 - x0)


def point_kinds(fbps, gbps):
    """How many interior points of the plain merge are of each kind."""
    fx = {u: j for j, (u, _) in enumerate(fbps)}
    gy = {y for _, y in gbps}
    kinds = Counter()
    for i in range(1, len(gbps) - 1):
        j = fx.get(gbps[i][1])
        if j is None:
            kinds["g inside an f piece"] += 1
        else:
            cancel = slope(fbps, j - 1) * slope(gbps, i - 1) == slope(fbps, j) * slope(gbps, i)
            kinds["g on f, slopes " + ("cancel" if cancel else "change")] += 1
    for j in range(1, len(fbps) - 1):
        if gbps[0][1] < fbps[j][0] < gbps[-1][1] and fbps[j][0] not in gy:
            kink = slope(fbps, j - 1) != slope(fbps, j)
            kinds["f inside a g piece, " + ("kink" if kink else "no kink")] += 1
    return kinds


ALL_KINDS = {"g inside an f piece", "g on f, slopes cancel", "g on f, slopes change",
             "f inside a g piece, kink", "f inside a g piece, no kink"}


def row_merges(run):
    """The arguments and the result, breakpoint rows and slope ratios as
    they are, of every merge that `run()` makes."""
    seen = []

    def spy(*args):
        out = MERGE(*args)
        seen.append((args, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(interval, "compose_breakpoints", spy)
        mp.setattr(circle, "compose_breakpoints", spy)
        run()
    return seen


def as_fractions(rows, slopes):
    return fraction_breakpoints(rows), [F(n, d) for n, d in slopes]


def merges(run):
    """The (fbps, gbps, result) of every merge that `run()` makes, its
    breakpoint rows and slope ratios converted to Fractions."""
    return [(fraction_breakpoints(frows), fraction_breakpoints(grows), as_fractions(*out))
            for (frows, _, grows, _), out in row_merges(run)]


def check_merges(run):
    kinds = Counter()
    for fbps, gbps, (out, slopes) in merges(run):
        assert tuple(out) == canonical_breakpoints(plain_merge(fbps, gbps))
        assert tuple(slopes) == piece_slopes(out)
        kinds += point_kinds(fbps, gbps)
    return kinds


def compose1d_cases(f, g):
    """f after g, g's inverse after g (every g breakpoint lands on an f
    breakpoint and the slopes cancel), and f g^-1 after g (they cancel
    where f has no kink)."""
    compose1d(f, g)
    compose1d(inverse1d(g), g)
    compose1d(compose1d(f, inverse1d(g)), g)


def compose_lift_cases(f, g):
    compose_lift(f, g)
    compose_lift(inverse_lift(g), g)
    compose_lift(compose_lift(f, inverse_lift(g)), g)


FLIP = PLMap1D([(0, 1), (1, 0)])
BENT_FLIP = PLMap1D([(0, 1), (F(1, 4), F(1, 2)), (1, 0)])
# slope 1/2 on both sides of the period seam, so the seam is no kink
SMOOTH_SEAM = CircleLift([(0, 0), (F(1, 4), F(1, 8)), (F(3, 4), F(7, 8)), (1, 1)])
KINKED_SEAM = CircleLift([(0, F(1, 8)), (F(1, 2), F(3, 4)), (1, F(9, 8))])
INTERVAL_EXAMPLES = [(f1_map(), f1_map()), (f1_map(), BENT_FLIP), (BENT_FLIP, f1_map()),
                     (FLIP, BENT_FLIP)]
LIFT_EXAMPLES = [(SMOOTH_SEAM, CircleLift.rotation(F(1, 3))), (KINKED_SEAM, c1_map()),
                 (c1_map(), SMOOTH_SEAM), (c1_map(), c1_map())]


@settings(max_examples=150, deadline=None)
@given(interval_pairs())
@example(INTERVAL_EXAMPLES[0])
@example(INTERVAL_EXAMPLES[1])
@example(INTERVAL_EXAMPLES[2])
@example(INTERVAL_EXAMPLES[3])
def test_compose1d_merge_emits_the_canonical_breakpoints(pair):
    """Both orientations: a decreasing g runs the merge on negated values."""
    check_merges(lambda: compose1d_cases(*pair))


@settings(max_examples=150, deadline=None)
@given(LIFTS, LIFTS)
@example(*LIFT_EXAMPLES[0])
@example(*LIFT_EXAMPLES[1])
@example(*LIFT_EXAMPLES[2])
@example(*LIFT_EXAMPLES[3])
def test_compose_lift_merge_emits_the_canonical_breakpoints(f, g):
    """One rotated period of f, whose seam may or may not be a kink."""
    check_merges(lambda: compose_lift_cases(f, g))


def test_the_examples_meet_every_kind_of_point():
    kinds = Counter()
    for f, g in INTERVAL_EXAMPLES:
        kinds += check_merges(lambda: compose1d_cases(f, g))
    for f, g in LIFT_EXAMPLES:
        kinds += check_merges(lambda: compose_lift_cases(f, g))
    assert set(kinds) == ALL_KINDS
    assert {g.orientation for _, g in INTERVAL_EXAMPLES} == {1, -1}


# -- the row merge against the Fraction merge ----------------------------


def check_against_fraction_merge(compose, oracle, f, g):
    """compose(f, g) makes one row merge, which gives what the Fraction
    merge gives on the same inputs, every ratio in lowest terms with a
    positive denominator (so equal rationals are equal tuples); the map
    built from it has the breakpoints and slopes of oracle(f, g)."""
    made = []
    calls = row_merges(lambda: made.append(compose(f, g)))
    assert len(calls) == 1
    (frows, fslopes, grows, gslopes), (rows, slopes) = calls[0]
    assert as_fractions(rows, slopes) == fraction_merge(*as_fractions(frows, fslopes),
                                                        *as_fractions(grows, gslopes))
    ratios = [r[:2] for r in rows] + [r[2:] for r in rows] + slopes
    assert all(d > 0 and math.gcd(n, d) == 1 for n, d in ratios)
    bps, slopes = oracle(f, g)
    assert (made[0].breakpoints, made[0].slopes) == (tuple(bps), tuple(slopes))


UNIT = st.fractions(min_value=0, max_value=1, max_denominator=12).filter(lambda t: t < 1)


@st.composite
def mixed_lifts(draw):
    """A lift through breakpoints of unlike denominators up to 12, shifted
    by an integer."""
    inner = sorted(draw(st.sets(UNIT.filter(bool), max_size=5)))
    values = sorted(draw(st.sets(UNIT, min_size=len(inner) + 1, max_size=len(inner) + 1)))
    k = draw(SHIFT)
    return CircleLift(list(zip([F(0)] + inner, [k + v for v in values]))
                      + [(1, k + values[0] + 1)])


# unlike denominators on both sides of a merge, and a decreasing g
MIXED_INTERVAL = (PLMap1D([(0, 0), (F(1, 3), F(1, 5)), (F(5, 7), F(2, 3)), (1, 1)]),
                  PLMap1D([(0, 1), (F(2, 9), F(4, 7)), (1, 0)]))
MIXED_LIFT = CircleLift([(0, F(-4, 3)), (F(2, 7), F(-6, 5)), (F(5, 9), F(-5, 7)),
                         (1, F(-1, 3))])
KINKED_ABOVE_ONE = CircleLift([(x, y + 2) for x, y in KINKED_SEAM.breakpoints])
# f with a smooth, a kinked and a mixed-denominator seam; G(0) < 0, in [0, 1), >= 1
SEAMS = [SMOOTH_SEAM, KINKED_SEAM, MIXED_LIFT]
STARTS = [MIXED_LIFT, c1_map(), KINKED_ABOVE_ONE]


def test_the_row_examples_cover_both_seams_and_every_start():
    assert [f.slopes[0] == f.slopes[-1] for f in SEAMS] == [True, False, False]
    assert [math.floor(g.breakpoints[0][1]) for g in STARTS] == [-2, 0, 2]
    assert {g.orientation for _, g in INTERVAL_EXAMPLES + [MIXED_INTERVAL]} == {1, -1}


@settings(max_examples=150, deadline=None)
@given(interval_pairs())
@example(INTERVAL_EXAMPLES[1])
@example(INTERVAL_EXAMPLES[3])
@example(MIXED_INTERVAL)
@example(MIXED_INTERVAL[::-1])
def test_compose1d_row_merge_matches_the_fraction_merge(pair):
    """g increasing, and g decreasing, whose merge runs on negated values."""
    check_against_fraction_merge(compose1d, fraction_compose1d, *pair)


@pytest.mark.parametrize("f", SEAMS)
@pytest.mark.parametrize("g", STARTS)
def test_compose_lift_row_merge_matches_the_fraction_merge_at_each_seam_and_start(f, g):
    check_against_fraction_merge(compose_lift, fraction_compose_lift, f, g)


@settings(max_examples=150, deadline=None)
@given(st.one_of(LIFTS, mixed_lifts()), st.one_of(LIFTS, mixed_lifts()))
def test_compose_lift_row_merge_matches_the_fraction_merge(f, g):
    check_against_fraction_merge(compose_lift, fraction_compose_lift, f, g)


@settings(max_examples=150, deadline=None)
@given(st.one_of(LIFTS, mixed_lifts()))
@example(SEAMS[0])
@example(SEAMS[1])
@example(SEAMS[2])
@example(STARTS[2])
def test_inverse_lift_by_the_row_merge_matches_the_fraction_resampling(f):
    """F's swapped rows, merged with the identity lift's in one merge, give
    the breakpoints and slopes of the `Fraction` resampling of F's inverse:
    smooth, kinked and mixed-denominator seams, and F(0) below 0, in [0, 1)
    and above 1, where the swapped rows start."""
    made = []
    assert len(row_merges(lambda: made.append(inverse_lift(f)))) == 1
    bps, slopes = fraction_inverse_lift(f)
    assert (made[0].breakpoints, made[0].slopes) == (tuple(bps), slopes)


# -- the validating constructor ------------------------------------------

SPLITS = st.sets(st.sampled_from([F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4)]), max_size=3)


@st.composite
def with_collinear_points(draw, bps):
    """bps with up to three points inserted on each piece, inside it."""
    out = [bps[0]]
    for (x0, y0), (x1, y1) in zip(bps, bps[1:]):
        out += [(x0 + t * (x1 - x0), y0 + t * (y1 - y0)) for t in sorted(draw(SPLITS))]
        out.append((x1, y1))
    return out


def check_canonicalization(cls, raw):
    f = cls(raw)
    assert f.breakpoints == canonical_breakpoints(raw)
    assert f.slopes == piece_slopes(f.breakpoints)
    return f


INTERVAL_RAW = st.one_of(
    interval_pairs().map(lambda pair: pair[0]),
    st.sampled_from([f for pair in INTERVAL_EXAMPLES for f in pair]),
).flatmap(lambda f: with_collinear_points(f.breakpoints))
LIFT_RAW = st.one_of(
    LIFTS,
    st.sampled_from([SMOOTH_SEAM, KINKED_SEAM]),
).flatmap(lambda f: with_collinear_points(f.breakpoints))
# a point inserted in the first and in the last piece, at each side of the seam
SEAM_EXAMPLES = [[(0, 0), (F(1, 8), F(1, 16)), (F(1, 4), F(1, 8)), (F(3, 4), F(7, 8)),
                  (F(7, 8), F(15, 16)), (1, 1)],
                 [(0, F(1, 8)), (F(1, 4), F(7, 16)), (F(1, 2), F(3, 4)), (F(3, 4), F(15, 16)),
                  (1, F(9, 8))]]


@settings(max_examples=150, deadline=None)
@given(INTERVAL_RAW)
@example([(0, 1), (F(1, 8), F(3, 4)), (F(1, 4), F(1, 2)), (1, 0)])
@example([(0, 0), (F(1, 8), F(1, 4)), (F(1, 4), F(1, 2)), (F(1, 2), F(2, 3)), (1, 1)])
def test_interval_constructor_drops_exactly_the_collinear_points(raw):
    """Increasing and decreasing maps, with runs of collinear points."""
    check_canonicalization(PLMap1D, [(F(x), F(y)) for x, y in raw])


@settings(max_examples=150, deadline=None)
@given(LIFT_RAW)
@example(SEAM_EXAMPLES[0])
@example(SEAM_EXAMPLES[1])
def test_lift_constructor_drops_exactly_the_collinear_points(raw):
    """The period seam is kept, kink or not: the ends are never dropped."""
    check_canonicalization(CircleLift, [(F(x), F(y)) for x, y in raw])


def test_the_canonicalization_examples_cover_both_orientations_and_seams():
    decreasing = check_canonicalization(PLMap1D, [(0, 1), (F(1, 8), F(3, 4)),
                                                  (F(1, 4), F(1, 2)), (1, 0)])
    assert decreasing == BENT_FLIP and decreasing.orientation == -1
    smooth, kinked = (check_canonicalization(CircleLift, raw) for raw in SEAM_EXAMPLES)
    assert smooth == SMOOTH_SEAM and smooth.slopes[0] == smooth.slopes[-1]
    assert kinked == KINKED_SEAM and kinked.slopes[0] != kinked.slopes[-1]


# -- the validating constructor on rows against the Fraction one ---------

COORD = st.one_of(st.integers(-1, 2), st.fractions(min_value=-1, max_value=2, max_denominator=4))
# a coordinate as given: a Fraction, or a token that the fast path of
# `geometry.ratio` reads, or one that `Fraction` reads
AS_GIVEN = st.sampled_from([F, fmt, lambda q: f" {fmt(q)}"])


@st.composite
def mutated(draw, raw):
    """raw with one breakpoint moved: its x onto or past a neighbour's, or
    its y anywhere, which can break monotonicity, an end or the period."""
    out = list(raw)
    i = draw(st.integers(0, len(out) - 1))
    x, y = out[i]
    if draw(st.booleans()):
        out[i] = (out[i - 1][0] if i else x + F(1, 8), y)
    else:
        out[i] = (x, draw(COORD))
    return out


CONSTRUCTOR_RAW = st.one_of(
    st.lists(st.tuples(COORD, COORD), max_size=6),
    st.lists(st.tuples(COORD, COORD), max_size=6).map(sorted),
    INTERVAL_RAW,
    LIFT_RAW,
    INTERVAL_RAW.flatmap(mutated),
    LIFT_RAW.flatmap(mutated),
    LIFT_RAW.map(lambda raw: raw[:-1] + [(raw[-1][0], raw[-1][1] + F(1, 4))]),
)
# one example of each verdict of each constructor
CONSTRUCTOR_EXAMPLES = [
    (PLMap1D, [(0, 0)]),
    (PLMap1D, [(0, 0), (F(1, 2), F(1, 4)), (F(1, 2), F(1, 2)), (1, 1)]),
    (PLMap1D, [(0, 0), (F(1, 2), F(3, 4)), (1, F(1, 2))]),
    (PLMap1D, [(0, 0), (F(1, 2), F(1, 2)), (1, F(3, 4))]),
    (PLMap1D, [(0, 1), (F(1, 4), F(3, 4)), (F(1, 2), F(1, 2)), (1, 0)]),
    (CircleLift, [(0, F(1, 4))]),
    (CircleLift, [(0, 0), (F(1, 2), F(1, 2)), (F(1, 4), F(3, 4)), (1, 1)]),
    (CircleLift, [(F(-1, 4), 0), (1, F(5, 4))]),
    (CircleLift, [(0, 1), (F(1, 2), F(1, 2)), (1, 2)]),
    (CircleLift, [(0, F(1, 4)), (1, F(3, 2))]),
    (CircleLift, [(0, F(-1, 3)), (F(1, 3), 0), (F(2, 3), F(1, 3)), (1, F(2, 3))]),
]


def built(cls, raw):
    """The canonical breakpoints and slopes of cls(raw), or the message of
    the `InvalidComplex` it raises."""
    try:
        f = cls(raw)
    except InvalidComplex as exc:
        return str(exc)
    return f.breakpoints, f.slopes


def check_against_fraction_constructor(cls, raw):
    try:
        expected = fraction_constructor(cls, raw)
    except InvalidComplex as exc:
        expected = str(exc)
    assert built(cls, raw) == expected
    return expected


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([PLMap1D, CircleLift]), CONSTRUCTOR_RAW, AS_GIVEN)
def test_validating_constructor_matches_the_fraction_constructor(cls, raw, as_given):
    """Collinear, non-increasing, non-monotone, bad ends and bad periods:
    the same canonical breakpoints and slopes, or the same message."""
    check_against_fraction_constructor(cls, [(as_given(F(x)), as_given(F(y))) for x, y in raw])


def test_the_constructor_examples_cover_every_verdict():
    verdicts = [check_against_fraction_constructor(cls, raw) for cls, raw in CONSTRUCTOR_EXAMPLES]
    assert {v for v in verdicts if isinstance(v, str)} == {
        "need at least two breakpoints", "breakpoint x values must strictly increase",
        "map must be strictly monotone", "endpoints must map onto endpoints",
        "breakpoints must span [0, 1]", "lift must be strictly increasing",
        "lift must satisfy F(1) = F(0) + 1"}
    assert [v for v in verdicts if not isinstance(v, str)]
