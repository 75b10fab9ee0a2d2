"""Hypothesis strategies that more than one test module draws from:
interval maps and pairs of them on a shared interval, and circle lifts
(kinked, periodic like the benchmark's, rigid rotations, integer shifts).
Kept apart from `support`, whose builders need no hypothesis."""

import math
from fractions import Fraction as F

from hypothesis import strategies as st

from plstab.circle import CircleLift
from plstab.interval import PLMap1D


DYADIC = st.integers(min_value=1, max_value=63).map(lambda k: F(k, 64))


@st.composite
def interval_maps(draw, a, b):
    """A PL bijection of [a, b], increasing or decreasing, whose breakpoints
    may share x or y values with another draw's."""
    inner = sorted(draw(st.sets(DYADIC, max_size=6)))
    values = sorted(draw(st.sets(DYADIC, min_size=len(inner), max_size=len(inner))))
    xs = [a] + [a + (b - a) * t for t in inner] + [b]
    ys = [a] + [a + (b - a) * t for t in values] + [b]
    if draw(st.booleans()):
        ys.reverse()
    return PLMap1D(list(zip(xs, ys)))


@st.composite
def interval_pairs(draw):
    a = F(draw(st.integers(-5, 5)), draw(st.integers(1, 3)))
    b = a + F(draw(st.integers(1, 6)), draw(st.integers(1, 3)))
    return draw(interval_maps(a, b)), draw(interval_maps(a, b))


SHIFT = st.sampled_from([0, 1, -1, 3, -7, 10**6, -10**9])


@st.composite
def kinked_lifts(draw):
    """A lift through increasing dyadic breakpoints, shifted by an integer."""
    inner = sorted(draw(st.sets(st.integers(1, 63), max_size=6)))
    values = sorted(draw(st.sets(st.integers(0, 63), min_size=len(inner) + 1,
                                 max_size=len(inner) + 1)))
    k = draw(SHIFT)
    xs = [F(0)] + [F(t, 64) for t in inner]
    ys = [k + F(t, 64) for t in values]
    return CircleLift(list(zip(xs, ys)) + [(1, ys[0] + 1)])


@st.composite
def periodic_lifts(draw, qlo=1, qhi=7):
    """A lift like the benchmark's: q points permuted cyclically by p, kinks
    inside some gaps, then an integer shift."""
    q = draw(st.integers(qlo, qhi))
    p = draw(st.integers(0, q - 1).filter(lambda p: math.gcd(p, q) == 1))
    den = 4 * q
    xs = [F(0)] + sorted(F(t, den) for t in draw(
        st.sets(st.integers(1, den - 1), min_size=q - 1, max_size=q - 1)))
    image = [xs[i + p] if i + p < q else xs[i + p - q] + 1 for i in range(q)]
    bps = list(zip(xs, image))
    for g in draw(st.sets(st.integers(0, q - 1), max_size=2)):
        (x0, y0) = bps[g]
        x1, y1 = (xs[g + 1], image[g + 1]) if g + 1 < q else (F(1), image[0] + 1)
        bps.append(((x0 + x1) / 2, y0 + draw(st.sampled_from([F(1, 4), F(3, 4)])) * (y1 - y0)))
    bps.sort()
    bps.append((F(1), image[0] + 1))
    k = draw(SHIFT)
    return CircleLift([(x, y + k) for x, y in bps])


LIFTS = st.one_of(
    kinked_lifts(),
    periodic_lifts(),
    st.builds(CircleLift.rotation, st.fractions(min_value=-20, max_value=20,
                                                max_denominator=12)),
    st.builds(CircleLift.rotation, SHIFT),
    st.just(CircleLift.identity()),
)
