"""PL circle homeomorphisms via lifts, and exact rotation-number machinery.

Rotation numbers are never floated: detection returns an exact rational
(with an exact periodic point) or proves that none of bounded denominator
is one, and otherwise only rational enclosures of width <= 2/n are made.

A lift is an `interval.BreakpointMap`: it carries its canonical
breakpoint rows, integer ratios in lowest terms, and the slope ratio of
each piece. Only parsed or user-built lifts go through the validating
constructor, which canonicalizes and then checks, on the ratios, that the
slopes are positive and that F(1) = F(0) + 1 on [0, 1]. Lifts compose by
one linear merge of G's rows with one rotated period of F's
(`compose_lift_rows` over `interval.compose_breakpoints`), which keeps
only the points where the slope changes, so its output is canonical. F's
rows with x and y swapped, merged with the identity's, give the inverse;
both results are built with `CircleLift.trusted`, and evaluation and
`iterate_lift` run on the rows too.

Detection bisects the Stern-Brocot tree of rationals: each level builds
one power F^(b+d) from the two powers F^b, F^d of its bracket's bounds by
that merge, and the sign of the displacement F^(b+d)(x) - x against the
mediant's numerator moves one bound or proves the mediant. Every level
stays on rows: the power F^q that proves p/q becomes a trusted
`CircleLift` of its rows, and its periodic point is solved only when
read. A rotation number p/q costs one merge per level down to p/q, at
most q - 1; past qmax, the bracket proves that no p/q with q <= qmax is
the rotation number.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import InvalidComplex, ParseError
from .geometry import fmt, rat, ratio
from .interval import (BreakpointMap, Ratio, Row, compose_breakpoints,
                       format_breakpoint_lines, read_breakpoint_lines, shifted_fixed_pieces,
                       value_at)

Lift = Tuple[Sequence[Row], Sequence[Ratio]]  # a lift's breakpoint rows and slope ratios
IDENTITY: Lift = (((0, 1, 0, 1), (1, 1, 1, 1)), ((1, 1),))  # the identity lift


class CircleLift(BreakpointMap):
    """Lift F of an orientation-preserving circle map, sampled on [0, 1].

    Canonical breakpoints run from x = 0 to x = 1 with F(1) = F(0) + 1; the
    map on the rest of the line is determined by F(x + 1) = F(x) + 1.
    """

    __slots__ = ()
    domain = (Fraction(0), Fraction(1))  # the period every lift is sampled on

    def __init__(self, breakpoints: Sequence):
        super().__init__(breakpoints)
        (xn0, xd0, yn0, yd0), last = self.rows[0], self.rows[-1]
        if (xn0, xd0) != (0, 1) or last[:2] != (1, 1):
            raise InvalidComplex("breakpoints must span [0, 1]")
        if any(n <= 0 for n, _ in self.slope_ratios):
            raise InvalidComplex("lift must be strictly increasing")
        if last[2:] != (yn0 + yd0, yd0):  # F(0) + 1, in lowest terms
            raise InvalidComplex("lift must satisfy F(1) = F(0) + 1")

    @classmethod
    def rotation(cls, angle) -> "CircleLift":
        a = rat(angle)
        return cls([(0, a), (1, a + 1)])

    @classmethod
    def identity(cls) -> "CircleLift":
        return cls.rotation(0)

    def identity_like(self) -> "CircleLift":
        return CircleLift.identity()

    def is_identity(self) -> bool:
        """Is the circle map the identity: is the lift x -> x + k, k an integer?"""
        return len(self.rows) == 2 and self.rows[0][3] == 1

    def moved_point(self) -> Optional[Fraction]:
        """A breakpoint the circle map moves, or None for the identity.

        F increases and F(1) = F(0) + 1, so F(x) - x lies strictly between
        F(0) - 1 and F(0) + 1 inside (0, 1): if it is an integer at every
        breakpoint, it is the one integer F(0) and the map is the identity.
        In lowest terms, y - x is an integer iff y and x share their
        denominator and it divides yn - xn.
        """
        return next((Fraction(xn, xd) for xn, xd, yn, yd in self.rows
                     if xd != yd or (yn - xn) % xd), None)

    def compose(self, g: "CircleLift") -> "CircleLift":
        return compose_lift(self, g)

    def inverse(self) -> "CircleLift":
        return inverse_lift(self)

    def eval(self, x) -> Fraction:
        return eval_lift(self, x)


def eval_lift(F: CircleLift, x) -> Fraction:
    """F(x): one step of `iterate_lift`."""
    return iterate_lift(F, 1, x)


def compose_lift(F: CircleLift, G: CircleLift) -> CircleLift:
    """Lift of the composed circle map: x -> F(G(x)), by one linear merge
    of breakpoint rows (`compose_lift_rows`)."""
    return CircleLift.trusted(*compose_lift_rows((F.rows, F.slope_ratios),
                                                 (G.rows, G.slope_ratios)))


def compose_lift_rows(F: Lift, G: Lift) -> Lift:
    """The breakpoint rows and slope ratios of x -> F(G(x)), for F and G
    given by theirs.

    F's rows span one period [c, c + 1] (c = 0 for a lift) and G's values
    run from y0 = G(0) to y0 + 1, so the F breakpoints they meet are one
    rotated pass over F's period, shifted by k = floor(y0 - c) and then by
    k + 1; F's piece slopes rotate with it, unchanged. Adding an integer
    to a ratio in lowest terms keeps it in lowest terms. The merge walks
    them together with G's breakpoints.
    """
    (fr, fs), (gr, gs) = F, G
    yn, yd = gr[0][2:]
    cn, cd = fr[0][:2]
    k = (yn * cd - cn * yd) // (yd * cd)
    tn = yn - k * yd  # y0 - k = tn / yd, in [c, c + 1)
    # the last F breakpoint with x <= y0 - k, cross-multiplied
    i = bisect_right(fr, False, key=lambda row: row[0] * yd > tn * row[1]) - 1
    rotated = [(un + k * ud, ud, vn + k * vd, vd) for un, ud, vn, vd in fr[i:]]
    k += 1  # the next period
    rotated += [(un + k * ud, ud, vn + k * vd, vd) for un, ud, vn, vd in fr[1:i + 2]]
    return compose_breakpoints(rotated, fs[i:] + fs[:i + 1], gr, gs)


def inverse_lift(F: CircleLift) -> CircleLift:
    """Lift of the inverse circle map, resampled on [0, 1]: F's rows with x
    and y swapped and slopes inverted are the inverse on [F(0), F(0) + 1],
    and their merge with the identity lift resamples them, keeping the kinks."""
    swapped = ([(yn, yd, xn, xd) for xn, xd, yn, yd in F.rows],
               [(d, n) for n, d in F.slope_ratios])
    return CircleLift.trusted(*compose_lift_rows(swapped, IDENTITY))


@dataclass(frozen=True)
class RotationEnclosure:
    lo: Fraction
    hi: Fraction

    def __repr__(self):
        return f"[{fmt(self.lo)}, {fmt(self.hi)}]"


def iterate_lift(F: CircleLift, n: int, x) -> Fraction:
    """F^n(x) by plain iteration of the evaluation (no breakpoint growth):
    a step is a floor and one `value_at`, on integer ratios."""
    yn, yd = ratio(x)
    rows, slopes = F.rows, F.slope_ratios
    for _ in range(n):
        k = yn // yd
        vn, vd = value_at(rows, slopes, yn - k * yd, yd)
        yn, yd = vn + k * vd, vd
    return Fraction(yn, yd)


def rotation_enclosure(F: CircleLift, n: int) -> RotationEnclosure:
    """Interval of width <= 2/n certainly containing the rotation number.

    Uses the classical displacement bound |F^n(0) - n a| <= 1 around the
    average displacement a = rot(F).
    """
    if n < 1:
        raise ValueError("n must be positive")
    v = iterate_lift(F, n, 0)
    return RotationEnclosure(lo=(v - 1) / n, hi=(v + 1) / n)


@dataclass(frozen=True)
class RationalRotation:
    p: int
    q: int
    # the lift F^q that detection built, so callers need not compose it again
    power: CircleLift = field(compare=False, repr=False)

    @property
    def periodic_point(self) -> Fraction:
        """The least x in [0, 1) with F^q(x) = x + p, solved when read."""
        return fixed_set_circle(self.power, self.p)[0][0]

    @property
    def value(self) -> Fraction:
        return Fraction(self.p, self.q)


def fixed_set_circle(F: CircleLift, p: int) -> List[Tuple[Fraction, Fraction]]:
    """Exact solution set of F(x) = x + p on one period [0, 1), sorted.

    A piece ending at 1 and one starting at 0 are both reported, though they
    meet at 0 ~ 1 on the circle.
    """
    merged = shifted_fixed_pieces(F.breakpoints, F.slopes, p)
    # drop a pure right-endpoint hit duplicated at 0
    return [piece for piece in merged if not (piece == (1, 1) and (0, 0) in merged)]


def _displacement_side(rows: Sequence[Row], p: int) -> int:
    """Where the displacement d(x) = F^q(x) - x lies against the integer p,
    for F^q given by its breakpoint rows: 1 if above it everywhere, -1 if
    below it everywhere, 0 if d reaches p. d is PL, so its extremes are
    taken at breakpoints; at each, the sign of d - p is read off the
    cross-multiplied numerators and denominators."""
    above = rows[0][2] > p * rows[0][3]  # d(0) = F^q(0)
    for xn, xd, yn, yd in rows:
        s = (yn - p * yd) * xd - xn * yd
        if not s or (s > 0) != above:
            return 0
    return 1 if above else -1


def detect_rational_rotation(F: CircleLift, qmax: int = 64):
    """Smallest q <= qmax with F^q(x) = x + p solvable; exact witness point.

    Returns (RationalRotation, 'found'), or (None, 'certified-none') when
    no p/q with q <= qmax is the rotation number.

    F^q(x) = x + p is solvable iff rot(F) = p/q, so the smallest such q is
    the denominator of rot(F) in lowest terms, and detection bisects the
    Stern-Brocot tree. The displacement F(x) - x ranges over less than 1
    and takes the value F(0), so q = 1 can only reach n = floor(F(0)) or
    n + 1; if it reaches neither, n/1 < rot(F) < (n+1)/1 strictly. Given
    Farey neighbours a/b < rot(F) < c/d (bc - ad = 1) and F^b, F^d, one
    merge builds F^(b+d), whose displacement lies strictly above a + c
    everywhere (a new left bound), strictly below (a new right bound), or
    reaches it: then rot(F) is the mediant, in lowest terms. The new
    bounds are again Farey neighbours, and the loop ends only when
    b + d > qmax; every fraction strictly between Farey neighbours has a
    denominator of at least b + d, so then no p/q with q <= qmax is
    rot(F), qmax = 1 included. Each level of the tree costs one merge of
    breakpoint rows (`compose_lift_rows`); only the power found is built
    as a `CircleLift`.
    """
    if qmax < 1:
        raise ValueError("qmax must be positive")
    rows = (F.rows, F.slope_ratios)
    n = F.rows[0][2] // F.rows[0][3]  # floor(F(0))
    for p in (n, n + 1):
        if _displacement_side(rows[0], p) == 0:
            return RationalRotation(p, 1, F), "found"
    a, b, Fb, c, d, Fd = n, 1, rows, n + 1, 1, rows
    while b + d <= qmax:
        p, q = a + c, b + d
        # powers of F commute, and compose_lift_rows shifts its first
        # argument's breakpoints, so the power with fewer breakpoints goes first
        Fq = (compose_lift_rows(Fb, Fd) if len(Fb[0]) <= len(Fd[0])
              else compose_lift_rows(Fd, Fb))
        side = _displacement_side(Fq[0], p)
        if side == 0:
            return RationalRotation(p, q, CircleLift.trusted(*Fq)), "found"
        if side > 0:
            a, b, Fb = p, q, Fq
        else:
            c, d, Fd = p, q, Fq
    return None, "certified-none"


# -- text format ---------------------------------------------------------


def parse_circle_lift(text: str) -> CircleLift:
    header, pairs = read_breakpoint_lines(text)
    if header != "circle":
        raise ParseError("expected 'circle' header")
    return CircleLift(pairs)


def format_circle_lift(F: CircleLift) -> str:
    return format_breakpoint_lines("circle", F.rows)
