import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from plstab import circle
from plstab.circle import (CircleLift, compose_lift, compose_lift_rows,
                           detect_rational_rotation, eval_lift, fixed_set_circle,
                           format_circle_lift, inverse_lift, iterate_lift,
                           parse_circle_lift, rotation_enclosure)
from plstab.errors import InvalidComplex

from strategies import LIFTS, periodic_lifts
from support import c1_map, chord_interpolate


def test_rigid_rotation_eval():
    r = CircleLift.rotation(F(1, 3))
    assert eval_lift(r, 0) == F(1, 3)
    assert eval_lift(r, F(5, 6)) == F(7, 6)
    assert eval_lift(r, 2) == F(7, 3)  # periodicity F(x+1) = F(x)+1


def test_degree_one_required():
    with pytest.raises(InvalidComplex):
        CircleLift([(0, 0), (1, 2)])


def test_compose_and_inverse():
    f = c1_map()
    g = inverse_lift(f)
    assert compose_lift(f, g).is_identity()
    assert compose_lift(g, f).is_identity()
    r = CircleLift.rotation(F(1, 4))
    r4 = compose_lift(r, compose_lift(r, compose_lift(r, r)))
    assert eval_lift(r4, F(1, 7)) == F(1, 7) + 1


def test_rotation_enclosure_contains_true_value():
    r = CircleLift.rotation(F(2, 5))
    for n in (4, 16, 64):
        enc = rotation_enclosure(r, n)
        assert enc.lo <= F(2, 5) <= enc.hi
        assert enc.hi - enc.lo <= F(2, n)


def test_rotation_bounds_must_be_positive():
    f = c1_map()
    with pytest.raises(ValueError, match="qmax must be positive"):
        detect_rational_rotation(f, 0)
    with pytest.raises(ValueError, match="n must be positive"):
        rotation_enclosure(f, 0)


def test_enclosure_width_shrinks():
    f = c1_map()
    enc1 = rotation_enclosure(f, 16)
    enc2 = rotation_enclosure(f, 256)
    assert enc2.hi - enc2.lo < enc1.hi - enc1.lo
    assert enc2.hi - enc2.lo <= F(2, 256)


def test_float_orbit_oracle():
    # long float orbit average should land inside the exact enclosure
    f = c1_map()
    enc = rotation_enclosure(f, 512)
    x = F(0)
    n = 512
    y = iterate_lift(f, n, x)
    assert enc.lo <= y / n <= enc.hi
    approx = float(y) / n
    assert abs(approx - (float(enc.lo) + float(enc.hi)) / 2) < 0.01


def test_detect_rational_rotation_rigid():
    for q in (1, 2, 3, 7, 12):
        for p in range(q):
            if math.gcd(p, q) != 1:
                continue
            r = CircleLift.rotation(F(p, q))
            rat, outcome = detect_rational_rotation(r, qmax=16)
            assert outcome == "found"
            assert (rat.p, rat.q) == (p % q, q)


def test_detect_irrational_like():
    # rotation by 5/11 with qmax below 11: certified-none, never a wrong
    # rational; at qmax = 2 the bracket 0/1 < 5/11 < 1/2 proves it
    r = CircleLift.rotation(F(5, 11))
    for qmax in range(1, 11):
        assert detect_rational_rotation(r, qmax) == (None, "certified-none")
    assert detect_rational_rotation(r, qmax=11)[0].value == F(5, 11)


def test_fixed_set_circle_of_power():
    r = CircleLift.rotation(F(1, 3))
    assert fixed_set_circle(r, 0) == []
    r3 = compose_lift(r, compose_lift(r, r))
    full = fixed_set_circle(r3, 1)  # r^3(x) = x + 1
    assert full
    total = sum(hi - lo for lo, hi in full)
    assert total == 1


def test_parse_format_roundtrip():
    f = c1_map()
    assert parse_circle_lift(format_circle_lift(f)) == f
    text = format_circle_lift(f)
    assert text.splitlines()[0] == "circle"


def test_identity_rotation_number():
    rat, outcome = detect_rational_rotation(CircleLift.identity(), qmax=4)
    assert outcome == "found"
    assert (rat.p, rat.q) == (0, 1)


@pytest.mark.parametrize("bps, p, x", [
    ([(0, F(9, 10)), (F(1, 2), F(3, 2)), (1, F(19, 10))], 1, F(1, 2)),  # d rises to n + 1
    ([(0, F(11, 10)), (F(1, 2), F(7, 5)), (1, F(21, 10))], 1, F(1, 4)),  # d falls below n
    ([(0, F(1, 3)), (F(1, 2), F(1, 2)), (1, F(4, 3))], 0, F(1, 2)),  # d is n at a breakpoint
])
def test_detection_finds_the_integer_on_either_side_of_the_start(bps, p, x):
    """The displacement d = F(x) - x reaches the integer p, which is
    n = floor(F(0)) or n + 1."""
    rat, outcome = detect_rational_rotation(CircleLift(bps), qmax=1)
    assert outcome == "found"
    assert (rat.p, rat.q, rat.periodic_point) == (p, 1, x)


# -- the merge and the one-p test against the earlier formulas ------------


def reference_compose_lift(F_, G):
    """The earlier formula: G's breakpoints and the G-preimages of F's, by
    the inverse lift, each valued by evaluating G, then F."""
    Ginv = inverse_lift(G)
    xs = {x for x, _ in G.breakpoints}
    for x, _ in F_.breakpoints:
        t = eval_lift(Ginv, x)
        xs.add(t - math.floor(t))
    xs.add(F(0))
    xs.discard(F(1))
    bps = [(x, eval_lift(F_, eval_lift(G, x))) for x in sorted(xs)]
    bps.append((F(1), bps[0][1] + 1))
    return CircleLift(bps)


def reference_detect(F_, qmax):
    """Detection testing p = floor(F^q(0)) - 1 .. floor(F^q(0)) + 1 for each
    q, powers by the earlier formula: an exhaustive search, so when it
    finds nothing no p/q with q <= qmax is the rotation number."""
    Fq = F_
    for q in range(1, qmax + 1):
        if q > 1:
            Fq = reference_compose_lift(F_, Fq)
        v0 = eval_lift(Fq, 0)
        for p in range(math.floor(v0) - 1, math.floor(v0) + 2):
            sols = fixed_set_circle(Fq, p)
            if sols:
                return (p, q, sols[0][0]), "found", Fq
    return None, "certified-none", None


@settings(max_examples=200, deadline=None)
@given(LIFTS, LIFTS)
def test_compose_lift_matches_reference(f, g):
    assert compose_lift(f, g) == reference_compose_lift(f, g)


@settings(max_examples=60, deadline=None)
@given(LIFTS)
def test_detect_matches_three_p_reference(f):
    rat, outcome = detect_rational_rotation(f, qmax=6)
    ref, ref_outcome, ref_power = reference_detect(f, 6)
    assert outcome == ref_outcome
    if ref is None:
        assert rat is None
    else:
        assert (rat.p, rat.q, rat.periodic_point) == ref
        assert rat.power == ref_power


def sequential_detect(F_, qmax):
    """The earlier detection: build F^q for q = 1, 2, ... by one merge each
    and test the one integer p the displacement F^q(x) - x can reach; when
    no q <= qmax reaches its p, none is the rotation number's denominator."""
    Fq = F_
    for q in range(1, qmax + 1):
        if q > 1:
            Fq = compose_lift(F_, Fq)
        n = math.floor(Fq.breakpoints[0][1])
        for x, y in Fq.breakpoints:
            d = y - x
            if math.floor(d) != n or d == n:
                p = max(math.floor(d), n)
                return (p, q, fixed_set_circle(Fq, p)[0][0], Fq), "found"
    return None, "certified-none"


def assert_detects_as_sequential(f, qmax):
    rat, outcome = detect_rational_rotation(f, qmax)
    ref, ref_outcome = sequential_detect(f, qmax)
    assert outcome == ref_outcome
    if ref is None:
        assert rat is None
    else:
        assert (rat.p, rat.q, rat.periodic_point, rat.power) == ref


@settings(max_examples=100, deadline=None)
@given(LIFTS, st.integers(1, 16))
def test_bisection_matches_sequential_detection(f, qmax):
    assert_detects_as_sequential(f, qmax)


@st.composite
def periodic_lifts_and_qmax(draw):
    """A periodic lift of period q <= 20, and qmax around q."""
    q = draw(st.integers(1, 20))
    f = draw(periodic_lifts(q, q))
    return f, draw(st.sampled_from([1, 2, max(q - 1, 1), q, 3 * q]))


@settings(max_examples=60, deadline=None)
@given(periodic_lifts_and_qmax())
def test_bisection_matches_sequential_detection_on_periodic_lifts(case):
    assert_detects_as_sequential(*case)


@settings(max_examples=60, deadline=None)
@given(LIFTS, st.integers(0, 40), st.fractions(min_value=-3, max_value=3,
                                               max_denominator=16))
def test_iterate_lift_matches_plain_evaluation(f, n, x):
    """Each step of eval_lift is also the value on the chord of its piece."""
    y = x
    for _ in range(n):
        k = math.floor(y)
        chord = k + chord_interpolate(f.breakpoints, y - k)
        y = eval_lift(f, y)
        assert y == chord
    assert iterate_lift(f, n, x) == y


def kinked_rotation(p, q):
    """A lift permuting q points cyclically, x_i -> x_{i+p}, with one kink:
    rotation number p/q."""
    xs = [F(i, q) + F(i % 2, 4 * q) for i in range(q)]
    image = [xs[i + p] if i + p < q else xs[i + p - q] + 1 for i in range(q)]
    kink = ((xs[0] + xs[1]) / 2, image[0] + (image[1] - image[0]) / 4)
    return CircleLift(sorted(list(zip(xs, image)) + [kink]) + [(F(1), image[0] + 1)])


def stern_brocot_depth(p, q):
    """The mediants between n/1 and (n+1)/1 taken to reach p/q: the partial
    quotients of p/q's continued fraction past the integer part, summed,
    less one (0 when q = 1)."""
    num, den = q, p % q
    total = 0
    while den:
        total += num // den
        num, den = den, num % den
    return max(total - 1, 0)


@pytest.mark.parametrize("p, q, depth", [
    (1, 2, 1), (1, 9, 8), (2, 11, 6), (5, 12, 5), (3, 13, 6), (7, 17, 6),
    (8, 21, 6), (19, 20, 19),
])
def test_detection_merges_once_per_stern_brocot_level(monkeypatch, p, q, depth):
    """Detecting p/q takes one merge per level of the Stern-Brocot tree
    down to p/q; past qmax, fewer: the last level, which builds F^q, is
    never reached."""
    assert stern_brocot_depth(p, q) == depth
    merges = []

    def counted(f, g):
        merges.append(1)
        return compose_lift_rows(f, g)

    monkeypatch.setattr(circle, "compose_lift_rows", counted)
    f = kinked_rotation(p, q)
    for qmax in (q, 3 * q):
        merges.clear()
        assert detect_rational_rotation(f, qmax)[0].value == F(p, q)
        assert len(merges) == depth
    for qmax in {1, 2, q // 2, q - 1} - {q}:
        merges.clear()
        assert detect_rational_rotation(f, qmax) == (None, "certified-none")
        assert len(merges) < depth
