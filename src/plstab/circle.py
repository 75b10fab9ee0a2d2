"""PL circle homeomorphisms via lifts, and exact rotation-number machinery.

Rotation numbers are never floated: detection returns an exact rational
(with an exact periodic point), and otherwise only rational-interval
enclosures of width <= 2/n are produced.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor
from typing import List, Optional, Sequence, Tuple

from .errors import InvalidComplex, ParseError
from .geometry import fmt, rat
from .interval import canonical_breakpoints, interpolate, shifted_fixed_pieces


class CircleLift:
    """Lift F of an orientation-preserving circle map, sampled on [0, 1].

    Breakpoints run from x = 0 to x = 1 with F(1) = F(0) + 1; the map on the
    rest of the line is determined by F(x + 1) = F(x) + 1.
    """

    __slots__ = ("breakpoints",)

    def __init__(self, breakpoints: Sequence):
        bps = [(rat(x), rat(y)) for x, y in breakpoints]
        if len(bps) < 2:
            raise InvalidComplex("need at least two breakpoints")
        xs = [x for x, _ in bps]
        ys = [y for _, y in bps]
        if xs[0] != 0 or xs[-1] != 1:
            raise InvalidComplex("breakpoints must span [0, 1]")
        if any(xs[i] >= xs[i + 1] for i in range(len(xs) - 1)):
            raise InvalidComplex("breakpoint x values must strictly increase")
        if any(ys[i] >= ys[i + 1] for i in range(len(ys) - 1)):
            raise InvalidComplex("lift must be strictly increasing")
        if ys[-1] != ys[0] + 1:
            raise InvalidComplex("lift must satisfy F(1) = F(0) + 1")
        self.breakpoints = canonical_breakpoints(bps)

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
        return self.breakpoints == ((Fraction(0), Fraction(0)),
                                    (Fraction(1), Fraction(1)))

    def moved_point(self) -> Optional[Fraction]:
        """A breakpoint the lift moves, or None for the identity lift."""
        return next((x for x, y in self.breakpoints if x != y), None)

    def compose(self, g: "CircleLift") -> "CircleLift":
        return compose_lift(self, g)

    def inverse(self) -> "CircleLift":
        return inverse_lift(self)

    def eval(self, x) -> Fraction:
        return eval_lift(self, x)

    def __eq__(self, other):
        return isinstance(other, CircleLift) and self.breakpoints == other.breakpoints

    def __hash__(self):
        return hash(self.breakpoints)

    def __repr__(self):
        pts = ", ".join(f"({fmt(x)},{fmt(y)})" for x, y in self.breakpoints)
        return f"CircleLift[{pts}]"

    __call__ = eval


def eval_lift(F: CircleLift, x) -> Fraction:
    x = rat(x)
    k = floor(x)  # exact for Fraction
    return k + interpolate(F.breakpoints, x - k)


def compose_lift(F: CircleLift, G: CircleLift) -> CircleLift:
    """Lift of the composed circle map: x -> F(G(x))."""
    Ginv = inverse_lift(G)
    xs = {x for x, _ in G.breakpoints}
    for x, _ in F.breakpoints:
        t = eval_lift(Ginv, x)
        xs.add(t - floor(t))
    xs.add(Fraction(0))
    xs.discard(Fraction(1))
    pts = sorted(xs)
    bps = [(x, eval_lift(F, eval_lift(G, x))) for x in pts]
    bps.append((Fraction(1), bps[0][1] + 1))
    return CircleLift(bps)


def inverse_lift(F: CircleLift) -> CircleLift:
    """Lift of the inverse circle map, resampled on [0, 1]."""
    sw = [(y, x) for x, y in F.breakpoints]  # inverse, sampled on [F(0), F(0)+1]
    c = sw[0][0]

    def geval(y: Fraction) -> Fraction:
        k = floor(y - c)
        return k + interpolate(sw, y - k)

    kinks = sorted({y - floor(y) for y, _ in sw if y - floor(y) != 1} | {Fraction(0)})
    bps = [(t, geval(t)) for t in kinks]
    bps.append((Fraction(1), bps[0][1] + 1))
    return CircleLift(bps)


@dataclass(frozen=True)
class RotationEnclosure:
    lo: Fraction
    hi: Fraction
    iterations: int

    def __contains__(self, alpha) -> bool:
        return self.lo <= rat(alpha) <= self.hi

    def __repr__(self):
        return f"[{fmt(self.lo)}, {fmt(self.hi)}]"


def iterate_lift(F: CircleLift, n: int, x) -> Fraction:
    """F^n(x) by plain iteration of the evaluation (no breakpoint growth)."""
    y = rat(x)
    for _ in range(n):
        y = eval_lift(F, y)
    return y


def rotation_enclosure(F: CircleLift, n: int) -> RotationEnclosure:
    """Interval of width <= 2/n certainly containing the rotation number.

    Uses the classical displacement bound |F^n(0) - n a| <= 1 around the
    average displacement a = rot(F).
    """
    if n < 1:
        raise ValueError("n must be positive")
    v = iterate_lift(F, n, 0)
    return RotationEnclosure(lo=(v - 1) / n, hi=(v + 1) / n, iterations=n)


@dataclass(frozen=True)
class RationalRotation:
    p: int
    q: int
    periodic_point: Fraction

    @property
    def value(self) -> Fraction:
        return Fraction(self.p, self.q)


def fixed_set_circle(F: CircleLift, p: int) -> List[Tuple[Fraction, Fraction]]:
    """Exact solution set of F(x) = x + p on one period [0, 1), sorted.

    A piece ending at 1 and one starting at 0 are both reported, though they
    meet at 0 ~ 1 on the circle.
    """
    merged = shifted_fixed_pieces(F.breakpoints, p)
    # drop a pure right-endpoint hit duplicated at 0
    return [piece for piece in merged if not (piece == (1, 1) and (0, 0) in merged)]


def detect_rational_rotation(F: CircleLift, qmax: int = 64):
    """Smallest q <= qmax with F^q(x) = x + p solvable; exact witness point.

    Returns (RationalRotation, 'found'), (None, 'certified-none') when the
    enclosure excludes every p/q with q <= qmax, or (None, 'inconclusive').
    """
    if qmax < 1:
        raise ValueError("qmax must be positive")
    Fq = F
    for q in range(1, qmax + 1):
        if q > 1:
            Fq = compose_lift(F, Fq)
        v0 = eval_lift(Fq, 0)
        for p in range(floor(v0) - 1, floor(v0) + 2):
            sols = fixed_set_circle(Fq, p)
            if sols:
                # scanning q upward makes the first hit automatically reduced
                return RationalRotation(p=p, q=q, periodic_point=sols[0][0]), "found"
    # no periodic point up to qmax: see whether the enclosure rules out
    # every rational with denominator <= qmax
    n = 4 * qmax * qmax
    enc = rotation_enclosure(F, n)
    for q in range(1, qmax + 1):
        lo_p = floor(enc.lo * q)
        for p in range(lo_p, floor(enc.hi * q) + 2):
            if enc.lo <= Fraction(p, q) <= enc.hi:
                return None, "inconclusive"
    return None, "certified-none"


# -- text format ---------------------------------------------------------


def parse_circle_lift(text: str) -> CircleLift:
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or lines[0] != "circle":
        raise ParseError("expected 'circle' header")
    bps = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError(f"bad breakpoint line {ln!r}")
        bps.append((rat(parts[0]), rat(parts[1])))
    return CircleLift(bps)


def format_circle_lift(F: CircleLift) -> str:
    lines = ["circle"]
    lines += [f"{fmt(x)} {fmt(y)}" for x, y in F.breakpoints]
    return "\n".join(lines) + "\n"
