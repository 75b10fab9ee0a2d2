import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from plstab.circle import format_circle_lift
from plstab.errors import (InvalidComplex, OutOfInterval, ParseError,
                           SideOutsideInterval)
from plstab.geometry import fmt
from plstab.interval import (PLMap1D, compose1d, eval1d, fixed_set_1d,
                             format_plmap1d, inverse1d, one_sided_derivative,
                             parse_plmap1d)

from strategies import LIFTS, interval_pairs
from support import chord_interpolate, f1_map, random_plmap1d


def test_f1_values():
    f = f1_map()
    assert eval1d(f, F(1, 8)) == F(1, 4)
    assert eval1d(f, F(1, 4)) == F(1, 2)
    assert eval1d(f, F(1, 2)) == F(2, 3)
    assert eval1d(f, 0) == 0 and eval1d(f, 1) == 1


def test_eval_out_of_interval():
    with pytest.raises(OutOfInterval):
        eval1d(f1_map(), F(3, 2))


def test_monotone_breakpoints_required():
    with pytest.raises(InvalidComplex):
        PLMap1D([(0, 0), (F(1, 2), F(3, 4)), (F(1, 2), F(1, 4)), (1, 1)])
    with pytest.raises(InvalidComplex):
        PLMap1D([(0, 0), (F(1, 2), F(3, 4)), (1, F(1, 2))])


def test_compose_and_inverse_roundtrip():
    f = f1_map()
    g = inverse1d(f)
    assert compose1d(f, g).is_identity()
    assert compose1d(g, f).is_identity()


def test_compose_matches_double_eval():
    rng = random.Random(5)
    for _ in range(25):
        f = random_plmap1d(rng, max_breaks=8)
        g = random_plmap1d(rng, max_breaks=8)
        h = compose1d(f, g)
        for _ in range(20):
            x = F(rng.randint(0, 64), 64)
            assert eval1d(h, x) == eval1d(f, eval1d(g, x))


def test_one_sided_derivative():
    f = f1_map()
    assert one_sided_derivative(f, 0, "right") == 2
    assert one_sided_derivative(f, 1, "left") == F(2, 3)
    with pytest.raises(SideOutsideInterval):
        one_sided_derivative(f, 0, "left")
    from plstab.errors import NotFixedPoint
    with pytest.raises(NotFixedPoint):
        one_sided_derivative(f, F(1, 4), "left")
    # an interior fixed point sees both sides
    g = PLMap1D([(0, 0), (F(1, 2), F(1, 2)), (F(3, 4), F(7, 8)), (1, 1)])
    assert one_sided_derivative(g, F(1, 2), "left") == 1
    assert one_sided_derivative(g, F(1, 2), "right") == F(3, 2)


def test_refusals_of_one_sided_derivative_and_compose():
    f = f1_map()
    with pytest.raises(OutOfInterval, match="outside the interval"):
        one_sided_derivative(f, 2, "left")
    with pytest.raises(ValueError, match="side must be 'left' or 'right'"):
        one_sided_derivative(f, 0, "up")
    with pytest.raises(OutOfInterval, match="maps must share the interval"):
        compose1d(f, PLMap1D.identity(0, 2))


def test_fixed_set_identity_segment():
    # identity on [0,1/2], push up afterwards
    f = PLMap1D([(0, 0), (F(1, 2), F(1, 2)), (F(3, 4), F(7, 8)), (1, 1)])
    fix = fixed_set_1d(f)
    assert (F(0), F(1, 2)) in fix
    assert (F(1), F(1)) in fix


def brute_fixed_set(f, denom=480):
    """Sample-based fixed check: every claimed piece is pointwise fixed and
    every sampled fixed point lies in a claimed piece."""
    pieces = fixed_set_1d(f)
    a, b = f.interval
    for lo, hi in pieces:
        for t in (lo, (lo + hi) / 2, hi):
            assert eval1d(f, t) == t
    for k in range(denom + 1):
        x = a + (b - a) * F(k, denom)
        if eval1d(f, x) == x:
            assert any(lo <= x <= hi for lo, hi in pieces), x


def test_fixed_set_matches_brute_force():
    rng = random.Random(11)
    for _ in range(40):
        brute_fixed_set(random_plmap1d(rng, max_breaks=10))


def test_parse_format_roundtrip():
    f = f1_map()
    assert parse_plmap1d(format_plmap1d(f)) == f
    rng = random.Random(3)
    for _ in range(10):
        g = random_plmap1d(rng, max_breaks=6)
        assert parse_plmap1d(format_plmap1d(g)) == g


def fraction_lines(header, f):
    """The text of a 1D map as it was printed from its Fraction breakpoints."""
    return "\n".join([header] + [f"{fmt(x)} {fmt(y)}" for x, y in f.breakpoints]) + "\n"


@settings(max_examples=100, deadline=None)
@given(interval_pairs(), LIFTS)
def test_the_row_formatter_prints_what_the_fraction_breakpoints_printed(pair, lift):
    """Negative, integer and fractional coordinates, on any interval."""
    f = pair[0]
    a, b = f.interval
    assert format_plmap1d(f) == fraction_lines(f"interval {fmt(a)} {fmt(b)}", f)
    assert format_circle_lift(lift) == fraction_lines("circle", lift)


def test_the_row_formatter_pins_its_bytes():
    f = PLMap1D([(F(-3, 2), F(1, 2)), (F(-1, 3), F(-1, 5)), (F(1, 2), F(-3, 2))])
    assert format_plmap1d(f) == "interval -3/2 1/2\n-3/2 1/2\n-1/3 -1/5\n1/2 -3/2\n"
    assert repr(f) == "PLMap1D[(-3/2,1/2), (-1/3,-1/5), (1/2,-3/2)]"


def one_sided_by_pieces(f, p, side):
    """The slope of the piece that ends at p (left) or starts at p (right),
    or that holds p inside it, read off the Fraction breakpoints."""
    bps = f.breakpoints
    pieces = range(len(bps) - 1)
    if side == "left":
        return next(f.slopes[i] for i in pieces if bps[i][0] < p <= bps[i + 1][0])
    return next(f.slopes[i] for i in pieces if bps[i][0] <= p < bps[i + 1][0])


@settings(max_examples=100, deadline=None)
@given(interval_pairs())
def test_one_sided_derivative_matches_the_pieces(pair):
    """At every fixed breakpoint and every end of a fixed piece, inside or
    at an end of the interval."""
    f = pair[0]
    a, b = f.interval
    points = {x for x, y in f.breakpoints if x == y}
    points.update(x for piece in fixed_set_1d(f) for x in piece)
    for p in points:
        for side in ("left", "right"):
            if (side, p) in (("left", a), ("right", b)):
                with pytest.raises(SideOutsideInterval):
                    one_sided_derivative(f, p, side)
            else:
                assert one_sided_derivative(f, p, side) == one_sided_by_pieces(f, p, side)


def test_header_must_be_the_word_interval():
    # the command line picks the parser by the header's first token, so
    # only a direct call reaches the parser with another word
    assert parse_plmap1d("interval 0 1\n0 0\n1 1\n") == PLMap1D.identity()
    for header in ("intervalx 0 1", "intervals 0 1", "interval", "circle 0 1"):
        with pytest.raises(ParseError):
            parse_plmap1d(header + "\n0 0\n1 1\n")


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=96))
def test_inverse_pointwise(k):
    f = random_plmap1d(random.Random(9), max_breaks=12)
    x = F(k, 96)
    assert eval1d(inverse1d(f), eval1d(f, x)) == x


@settings(max_examples=100, deadline=None)
@given(interval_pairs(), st.fractions(min_value=0, max_value=1, max_denominator=64))
def test_eval1d_matches_the_chord_of_its_piece(pair, t):
    """Increasing and decreasing maps, at breakpoints and between them."""
    f = pair[0]
    a, b = f.interval
    x = a + t * (b - a)
    assert eval1d(f, x) == chord_interpolate(f.breakpoints, x)


# -- the merge in compose1d against the inverse-and-evaluate formula -------


def reference_compose1d(f, g):
    """The earlier formula: g's breakpoints and the g-preimages of f's,
    each valued by evaluating g, then f."""
    ginv = inverse1d(g)
    xs = {x for x, _ in g.breakpoints}
    xs.update(eval1d(ginv, x) for x, _ in f.breakpoints)
    return PLMap1D([(x, eval1d(f, eval1d(g, x))) for x in sorted(xs)])


@settings(max_examples=150, deadline=None)
@given(interval_pairs())
def test_compose1d_matches_reference(pair):
    f, g = pair
    h = compose1d(f, g)
    assert h.breakpoints == reference_compose1d(f, g).breakpoints
    assert h.orientation == f.orientation * g.orientation


def test_compose1d_reference_cases():
    f = f1_map()
    flip = PLMap1D([(0, 1), (1, 0)])
    bent_flip = PLMap1D([(0, 1), (F(1, 4), F(1, 2)), (1, 0)])
    for a, b in ((f, flip), (flip, f), (bent_flip, f), (f, bent_flip),
                 (flip, flip), (bent_flip, bent_flip), (f, inverse1d(f))):
        assert compose1d(a, b) == reference_compose1d(a, b)
