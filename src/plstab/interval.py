"""PL homeomorphisms of a closed interval, as breakpoint lists.

Breakpoint representations are canonicalized on construction (no collinear
interior breakpoints), so map equality is representational equality and
"is the identity" is an O(1)-per-breakpoint check.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import List, Optional, Sequence, Tuple, Union

from .errors import (
    InvalidComplex,
    NotFixedPoint,
    OutOfInterval,
    ParseError,
    SideOutsideInterval,
)
from .geometry import fmt, rat

Break = Tuple[Fraction, Fraction]
Piece = Tuple[Fraction, Fraction]


# -- breakpoint lists, shared with circle lifts ---------------------------


def canonical_breakpoints(bps: List[Break]) -> Tuple[Break, ...]:
    out: List[Break] = [bps[0]]
    for i in range(1, len(bps) - 1):
        x0, y0 = out[-1]
        x1, y1 = bps[i]
        x2, y2 = bps[i + 1]
        # drop (x1, y1) when collinear with its neighbors
        if (y1 - y0) * (x2 - x1) == (y2 - y1) * (x1 - x0):
            continue
        out.append(bps[i])
    out.append(bps[-1])
    return tuple(out)


def interpolate(bps: Sequence[Break], x: Fraction) -> Fraction:
    """Value at x of the PL function through the breakpoints (x in range)."""
    i = bisect_right(bps, x, key=itemgetter(0)) - 1
    if i == len(bps) - 1:
        i -= 1
    (x0, y0), (x1, y1) = bps[i], bps[i + 1]
    return y0 + (x - x0) * (y1 - y0) / (x1 - x0)


def shifted_fixed_pieces(bps: Sequence[Break], p) -> List[Piece]:
    """Maximal closed intervals (possibly points) where y(x) = x + p, sorted."""
    raw: List[Piece] = []
    for i in range(len(bps) - 1):
        (x0, y0), (x1, y1) = bps[i], bps[i + 1]
        sl = (y1 - y0) / (x1 - x0)
        if sl == 1:
            if y0 == x0 + p:
                raw.append((x0, x1))
        else:
            # solve y0 + sl (x - x0) = x + p
            x = (y0 - sl * x0 - p) / (1 - sl)
            if x0 <= x <= x1:
                raw.append((x, x))
    # merge adjacent/overlapping pieces
    raw.sort()
    merged: List[Piece] = []
    for lo, hi in raw:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


class PLMap1D:
    """PL homeomorphism of [a, b] onto itself, given by breakpoints."""

    __slots__ = ("breakpoints", "orientation")

    def __init__(self, breakpoints: Sequence):
        bps = [(rat(x), rat(y)) for x, y in breakpoints]
        if len(bps) < 2:
            raise InvalidComplex("need at least two breakpoints")
        xs = [x for x, _ in bps]
        ys = [y for _, y in bps]
        if any(xs[i] >= xs[i + 1] for i in range(len(xs) - 1)):
            raise InvalidComplex("breakpoint x values must strictly increase")
        inc = all(ys[i] < ys[i + 1] for i in range(len(ys) - 1))
        dec = all(ys[i] > ys[i + 1] for i in range(len(ys) - 1))
        if not (inc or dec):
            raise InvalidComplex("map must be strictly monotone")
        a, b = xs[0], xs[-1]
        if inc and not (ys[0] == a and ys[-1] == b):
            raise InvalidComplex("endpoints must map onto endpoints")
        if dec and not (ys[0] == b and ys[-1] == a):
            raise InvalidComplex("endpoints must map onto endpoints")
        self.orientation = 1 if inc else -1
        self.breakpoints = canonical_breakpoints(bps)

    # -- basics ----------------------------------------------------------

    @property
    def interval(self) -> Tuple[Fraction, Fraction]:
        return (self.breakpoints[0][0], self.breakpoints[-1][0])

    @classmethod
    def identity(cls, a=0, b=1) -> "PLMap1D":
        return cls([(a, a), (b, b)])

    def identity_like(self) -> "PLMap1D":
        return PLMap1D.identity(*self.interval)

    def is_identity(self) -> bool:
        return self.breakpoints == (
            (self.interval[0],) * 2,
            (self.interval[1],) * 2,
        )

    def moved_point(self) -> Optional[Fraction]:
        """A breakpoint the map moves, or None for the identity."""
        return next((x for x, y in self.breakpoints if x != y), None)

    def compose(self, g: "PLMap1D") -> "PLMap1D":
        return compose1d(self, g)

    def inverse(self) -> "PLMap1D":
        return inverse1d(self)

    def eval(self, x) -> Fraction:
        return eval1d(self, x)

    def __eq__(self, other):
        return isinstance(other, PLMap1D) and self.breakpoints == other.breakpoints

    def __hash__(self):
        return hash(self.breakpoints)

    def __repr__(self):
        pts = ", ".join(f"({fmt(x)},{fmt(y)})" for x, y in self.breakpoints)
        return f"PLMap1D[{pts}]"

    __call__ = eval


def eval1d(f: PLMap1D, x) -> Fraction:
    x = rat(x)
    a, b = f.interval
    if not a <= x <= b:
        raise OutOfInterval(f"{fmt(x)} outside [{fmt(a)}, {fmt(b)}]")
    return interpolate(f.breakpoints, x)


def inverse1d(f: PLMap1D) -> PLMap1D:
    bps = [(y, x) for x, y in f.breakpoints]
    if f.orientation < 0:
        bps.reverse()
    return PLMap1D(bps)


def compose1d(f: PLMap1D, g: PLMap1D) -> PLMap1D:
    """The map x -> f(g(x)); breakpoints are g's merged with g-preimages of f's."""
    if f.interval != g.interval:
        raise OutOfInterval("maps must share the interval")
    ginv = inverse1d(g)
    xs = {x for x, _ in g.breakpoints}
    xs.update(eval1d(ginv, x) for x, _ in f.breakpoints)
    return PLMap1D([(x, eval1d(f, eval1d(g, x))) for x in sorted(xs)])


def one_sided_derivative(f: PLMap1D, p, side: str) -> Fraction:
    """Slope of the affine piece adjacent to a fixed point p on the given side."""
    p = rat(p)
    a, b = f.interval
    if not a <= p <= b:
        raise OutOfInterval(f"{fmt(p)} outside the interval")
    if eval1d(f, p) != p:
        raise NotFixedPoint(f"{fmt(p)} is not fixed")
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    if (side == "left" and p == a) or (side == "right" and p == b):
        raise SideOutsideInterval(f"no {side} side at {fmt(p)}")
    xs = [x for x, _ in f.breakpoints]
    i = bisect_right(xs, p) - 1
    if side == "left":
        if xs[i] == p:
            i -= 1
    else:
        if i == len(xs) - 1:
            i -= 1
    (x0, y0), (x1, y1) = f.breakpoints[i], f.breakpoints[i + 1]
    return (y1 - y0) / (x1 - x0)


def derivative_homomorphism_check(maps: Sequence[PLMap1D]) -> dict:
    """Verify g -> dg(0+) is multiplicative over all pairs; report characters."""
    left = maps[0].interval[0]
    for f in maps:
        if f.orientation < 0:
            raise InvalidComplex("derivative characters need orientation-preserving maps")
        if eval1d(f, left) != left:
            raise NotFixedPoint("every map must fix the left endpoint")
    chars = [one_sided_derivative(f, left, "right") for f in maps]
    failures = []
    for i, f in enumerate(maps):
        for j, g in enumerate(maps):
            d = one_sided_derivative(compose1d(f, g), left, "right")
            if d != chars[i] * chars[j]:
                failures.append((i, j, d))
    return {"characters": chars, "failures": failures, "ok": not failures}


def fixed_set_1d(f: PLMap1D) -> List[Piece]:
    """Maximal closed intervals (possibly points) where f(x) = x, sorted."""
    return shifted_fixed_pieces(f.breakpoints, 0)


@dataclass(frozen=True)
class Trivial:
    pass


@dataclass(frozen=True)
class Witness:
    a: Fraction
    gen: int


def ray_triviality_certifier(gens: Sequence[PLMap1D]) -> Union[Trivial, Witness]:
    """Certify that every generator is the identity, or pin the obstruction.

    Returns the supremum a of the initial segment [left, a] on which all
    generators agree with the identity, together with one generator that is
    not the identity just to the right of a.
    """
    if not gens:
        return Trivial()
    left = gens[0].interval[0]
    right = gens[0].interval[1]
    for f in gens:
        if eval1d(f, left) != left:
            raise NotFixedPoint("generators must fix the left endpoint")
    best = right
    best_gen: Optional[int] = None
    for i, f in enumerate(gens):
        a = _identity_prefix(f)
        if a < best:
            best = a
            best_gen = i
    if best_gen is None:
        return Trivial()
    return Witness(a=best, gen=best_gen)


def _identity_prefix(f: PLMap1D) -> Fraction:
    """Largest a with f = id on [left, a] (= right endpoint iff f is id)."""
    left, right = f.interval
    if f.is_identity():
        return right
    a = left
    for i in range(len(f.breakpoints) - 1):
        (x0, y0), (x1, y1) = f.breakpoints[i], f.breakpoints[i + 1]
        if y0 == x0 and y1 == x1:
            a = x1
        else:
            break
    return a


# -- text format ---------------------------------------------------------


def parse_plmap1d(text: str) -> PLMap1D:
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or not lines[0].startswith("interval"):
        raise ParseError("expected 'interval <a> <b>' header")
    tok = lines[0].split()
    if len(tok) != 3:
        raise ParseError("bad interval header")
    a, b = rat(tok[1]), rat(tok[2])
    bps = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError(f"bad breakpoint line {ln!r}")
        bps.append((rat(parts[0]), rat(parts[1])))
    f = PLMap1D(bps)
    if f.interval != (a, b):
        raise ParseError("breakpoints do not span the declared interval")
    return f


def format_plmap1d(f: PLMap1D) -> str:
    a, b = f.interval
    lines = [f"interval {fmt(a)} {fmt(b)}"]
    lines += [f"{fmt(x)} {fmt(y)}" for x, y in f.breakpoints]
    return "\n".join(lines) + "\n"
