"""PL homeomorphisms of a closed interval, as breakpoint lists.

`BreakpointMap`, the core that interval maps and circle lifts share, holds
canonical breakpoints (no collinear interior breakpoints) and the slope of
each piece, so map equality is representational equality and "is the
identity" is an O(1)-per-breakpoint check. Its validating constructor
serves parsed or user-built maps: it converts each coordinate once, divides
once per piece and keeps an interior breakpoint iff its two slopes differ.
Composition and inversion build their results with `trusted`, unchecked.
Composition is one linear merge of the two breakpoint lists that emits only
the kinks (`compose_breakpoints`, which circle lifts share), and the
inverse of a canonical map is canonical.

The merge runs on integer ratios, not `Fraction`s: a breakpoint row is
(xn, xd, yn, yd) and a slope is (n, d), each ratio in lowest terms with a
positive denominator, as `Fraction.as_integer_ratio()` gives it. So equal
rationals are equal tuples. `BreakpointMap.rows` converts a map to rows
and `BreakpointMap.from_rows` builds the trusted map back; they are the
only places on that path that convert between the two forms.

An interval action is certified by `stability.certify_trivial` as the
same action on the one-edge complex [a, b], whose refinement is each
map's canonical breakpoints.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import gcd
from operator import itemgetter
from typing import List, Optional, Sequence, Tuple

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
Ratio = Tuple[int, int]  # (numerator, denominator), in lowest terms, denominator > 0
Row = Tuple[int, int, int, int]  # a breakpoint (x, y) as (xn, xd, yn, yd)


# -- breakpoint lists, shared with circle lifts ---------------------------


def interpolate(bps: Sequence[Break], slopes: Sequence[Fraction], x: Fraction) -> Fraction:
    """Value at x of the PL function through the breakpoints with the given
    piece slopes (x in range): one multiply-add on the piece holding x."""
    i = bisect_right(bps, x, key=itemgetter(0)) - 1
    if i == len(slopes):
        i -= 1
    x0, y0 = bps[i]
    return y0 + (x - x0) * slopes[i]


def _along(row, slope, tn, td):
    """v + (t - u) * slope in lowest terms, for row = (u, v) and t = tn/td:
    the value at t of the line through (u, v) with that slope."""
    un, ud, vn, vd = row
    sn, sd = slope
    d = vd * ud * td * sd
    n = vn * ud * td * sd + (tn * ud - un * td) * sn * vd
    g = gcd(n, d)
    return n // g, d // g


def _times(s, t):
    """The product of two ratios, in lowest terms."""
    n, d = s[0] * t[0], s[1] * t[1]
    g = gcd(n, d)
    return n // g, d // g


def compose_breakpoints(frows: Sequence[Row], fslopes: Sequence[Ratio],
                        grows: Sequence[Row], gslopes: Sequence[Ratio]
                        ) -> Tuple[List[Row], List[Ratio]]:
    """Canonical breakpoint rows and piece slopes of x -> f(g(x)), by one merge.

    Precondition: g, given by grows and the slope of each of its pieces, has
    increasing values; f, the PL function through frows with piece slopes
    fslopes, has x values covering g's values, and frows starts at the last
    f breakpoint at or before g's first value. frows need not be canonical:
    a circle lift's period seam may not be a kink.

    The candidate points are g's breakpoints, valued from the current f
    piece, and the g-preimage of each f breakpoint strictly inside a g
    piece, valued exactly as that breakpoint's y. On the piece right of a
    candidate, f(g(x)) has slope f's slope times g's; an interior candidate
    is kept iff that product differs from the slope left of it, so the
    result is canonical. Every ratio is in lowest terms with a positive
    denominator, so that test is tuple inequality, and an order test
    cross-multiplies. O(len(frows) + len(grows)) int operations: no
    Fraction, no inverse, no bisect, and no slope computed from breakpoints.
    """
    end = len(grows) - 1
    xan, xad, yan, yad = grows[0]
    j = 0
    f0, f1, fsl = frows[0], frows[1], fslopes[0]
    out = [(xan, xad) + _along(f0, fsl, yan, yad)]
    slopes = [_times(fsl, gslopes[0])]
    # invariant: f0's u <= ya < f1's u
    for m in range(1, end + 1):
        xbn, xbd, ybn, ybd = grows[m]
        gsl = gslopes[m - 1]
        while f1[0] * ybd < ybn * f1[1]:  # an f breakpoint strictly inside the g piece
            j += 1
            f0, f1, fsl = f1, frows[j + 1], fslopes[j]
            h = _times(fsl, gsl)
            if h != slopes[-1]:
                # its g-preimage, on g's inverse piece through (ya, xa)
                out.append(_along((yan, yad, xan, xad), gsl[::-1], f0[0], f0[1]) + f0[2:])
                slopes.append(h)
        on_f1 = f1[0] == ybn and f1[1] == ybd
        if m == end:
            out.append((xbn, xbd) + (f1[2:] if on_f1 else _along(f0, fsl, ybn, ybd)))
            break
        if on_f1:
            j += 1
            f0, f1, fsl = f1, frows[j + 1], fslopes[j]
        h = _times(fsl, gslopes[m])
        if h != slopes[-1]:
            out.append((xbn, xbd) + (f0[2:] if on_f1 else _along(f0, fsl, ybn, ybd)))
            slopes.append(h)
        xan, xad, yan, yad = xbn, xbd, ybn, ybd
    return out, slopes


def shifted_fixed_pieces(bps: Sequence[Break], slopes: Sequence[Fraction], p) -> List[Piece]:
    """Maximal closed intervals (possibly points) where y(x) = x + p, sorted."""
    raw: List[Piece] = []
    for i, sl in enumerate(slopes):
        (x0, y0), (x1, y1) = bps[i], bps[i + 1]
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


class BreakpointMap:
    """A PL map given by its canonical breakpoints, x strictly increasing,
    and the slope of each piece between them: the core that interval maps
    and circle lifts share. Subclasses check monotonicity and their ends
    on the slopes, and call their module's functions from `eval`."""

    __slots__ = ("breakpoints", "slopes")

    def __init__(self, breakpoints: Sequence):
        bps = [(rat(x), rat(y)) for x, y in breakpoints]
        if len(bps) < 2:
            raise InvalidComplex("need at least two breakpoints")
        kept, slopes = [bps[0]], []
        for (x0, y0), (x1, y1) in zip(bps, bps[1:]):
            if x1 <= x0:
                raise InvalidComplex("breakpoint x values must strictly increase")
            s = (y1 - y0) / (x1 - x0)
            if slopes and s == slopes[-1]:  # kept[-1] is no kink: extend its piece
                kept[-1] = (x1, y1)
            else:
                kept.append((x1, y1))
                slopes.append(s)
        self.breakpoints = tuple(kept)
        self.slopes = tuple(slopes)

    @classmethod
    def trusted(cls, breakpoints: Sequence[Break], slopes: Sequence[Fraction]):
        """A map that compose or invert built from validated maps, so valid
        and canonical by construction, with the slope of each piece: not
        checked."""
        self = cls.__new__(cls)
        self.breakpoints = tuple(breakpoints)
        self.slopes = tuple(slopes)
        return self

    @classmethod
    def from_rows(cls, rows: Sequence[Row], slopes: Sequence[Ratio]):
        """The trusted map of breakpoint rows and slope ratios that a merge
        emitted: one Fraction per coordinate and per slope."""
        return cls.trusted([(Fraction(xn, xd), Fraction(yn, yd)) for xn, xd, yn, yd in rows],
                           [Fraction(n, d) for n, d in slopes])

    def rows(self) -> Tuple[List[Row], List[Ratio]]:
        """The breakpoint rows and slope ratios that `compose_breakpoints`
        merges."""
        return ([x.as_integer_ratio() + y.as_integer_ratio() for x, y in self.breakpoints],
                [s.as_integer_ratio() for s in self.slopes])

    def __eq__(self, other):
        return type(other) is type(self) and self.breakpoints == other.breakpoints

    def __hash__(self):
        return hash(self.breakpoints)

    def __repr__(self):
        pts = ", ".join(f"({fmt(x)},{fmt(y)})" for x, y in self.breakpoints)
        return f"{type(self).__name__}[{pts}]"

    def __call__(self, x) -> Fraction:
        return self.eval(x)


class PLMap1D(BreakpointMap):
    """PL homeomorphism of [a, b] onto itself."""

    __slots__ = ()

    def __init__(self, breakpoints: Sequence):
        super().__init__(breakpoints)
        (a, ya), (b, yb) = self.breakpoints[0], self.breakpoints[-1]
        if all(s > 0 for s in self.slopes):
            ends = (a, b)
        elif all(s < 0 for s in self.slopes):
            ends = (b, a)
        else:
            raise InvalidComplex("map must be strictly monotone")
        if (ya, yb) != ends:
            raise InvalidComplex("endpoints must map onto endpoints")

    # -- basics ----------------------------------------------------------

    @property
    def orientation(self) -> int:
        return 1 if self.slopes[0] > 0 else -1

    @property
    def interval(self) -> Tuple[Fraction, Fraction]:
        return (self.breakpoints[0][0], self.breakpoints[-1][0])

    domain = interval

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


def eval1d(f: PLMap1D, x) -> Fraction:
    x = rat(x)
    a, b = f.interval
    if not a <= x <= b:
        raise OutOfInterval(f"{fmt(x)} outside [{fmt(a)}, {fmt(b)}]")
    return interpolate(f.breakpoints, f.slopes, x)


def inverse1d(f: PLMap1D) -> PLMap1D:
    bps = [(y, x) for x, y in f.breakpoints]
    slopes = [1 / s for s in f.slopes]
    if f.orientation < 0:
        bps.reverse()
        slopes.reverse()
    return PLMap1D.trusted(bps, slopes)


def compose1d(f: PLMap1D, g: PLMap1D) -> PLMap1D:
    """The map x -> f(g(x)), by one merge of g's and f's breakpoints.

    A decreasing g runs through f's breakpoints in reverse, so the merge
    sees f reflected, u -> f(-u), after -g; both have their slopes negated.
    """
    if f.interval != g.interval:
        raise OutOfInterval("maps must share the interval")
    (frows, fslopes), (grows, gslopes) = f.rows(), g.rows()
    if g.orientation < 0:
        frows = [(-un, ud, vn, vd) for un, ud, vn, vd in reversed(frows)]
        fslopes = [(-n, d) for n, d in reversed(fslopes)]
        grows = [(xn, xd, -yn, yd) for xn, xd, yn, yd in grows]
        gslopes = [(-n, d) for n, d in gslopes]
    return PLMap1D.from_rows(*compose_breakpoints(frows, fslopes, grows, gslopes))


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
    return f.slopes[i]


def fixed_set_1d(f: PLMap1D) -> List[Piece]:
    """Maximal closed intervals (possibly points) where f(x) = x, sorted."""
    return shifted_fixed_pieces(f.breakpoints, f.slopes, 0)


# -- text format ---------------------------------------------------------


def read_breakpoint_lines(text: str) -> Tuple[str, List[Tuple[str, str]]]:
    """The header line ('' if none) and the `x y` string pair of each later
    line, with comments and blank lines dropped; converts nothing."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    pairs = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError(f"bad breakpoint line {ln!r}")
        pairs.append((parts[0], parts[1]))
    return (lines[0] if lines else ""), pairs


def format_breakpoint_lines(header: str, bps: Sequence[Break]) -> str:
    return "\n".join([header] + [f"{fmt(x)} {fmt(y)}" for x, y in bps]) + "\n"


def parse_plmap1d(text: str) -> PLMap1D:
    header, pairs = read_breakpoint_lines(text)
    tok = header.split()
    if not tok or tok[0] != "interval":
        raise ParseError("expected 'interval <a> <b>' header")
    if len(tok) != 3:
        raise ParseError("bad interval header")
    a, b = rat(tok[1]), rat(tok[2])
    f = PLMap1D(pairs)
    if f.interval != (a, b):
        raise ParseError("breakpoints do not span the declared interval")
    return f


def format_plmap1d(f: PLMap1D) -> str:
    a, b = f.interval
    return format_breakpoint_lines(f"interval {fmt(a)} {fmt(b)}", f.breakpoints)
