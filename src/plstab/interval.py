"""PL homeomorphisms of a closed interval, as breakpoint rows.

`BreakpointMap`, the core that interval maps and circle lifts share, keeps
a map in one form: its canonical breakpoints (no collinear interior
breakpoint) as rows (xn, xd, yn, yd) and the slope of each piece as a
ratio (n, d), every ratio in lowest terms with a positive denominator, as
`Fraction.as_integer_ratio()` gives it. So equal rationals are equal
tuples, map equality is row equality, and "is the identity" is an
O(1)-per-breakpoint check. The validating constructor serves parsed or
user-built maps: it reads each coordinate once (`geometry.ratio`),
cross-multiplies to check that x strictly increases, reduces each slope
with one gcd and keeps an interior breakpoint iff the slope ratio changes
there. Composition, inversion and rotation detection build their results
with `trusted`, unchecked. Composition is one linear merge of the two row
lists that emits only the kinks (`compose_breakpoints`, which circle lifts
share), and the inverse of a canonical map is canonical.

Parsing, validation, composition, inversion, evaluation and printing run
on the rows and build no `Fraction` but a value they return; the
`breakpoints` and `slopes` of a map are its rows and slope ratios as
Fractions, built on each read, for the fixed-set solver
(`shifted_fixed_pieces`), which reads them once per request.  The
certifier's one-edge embedding (`stability._on_one_edge`) reads rows.

An interval action is certified by `stability.certify_trivial` as the
same action on the one-edge complex [a, b], whose refinement is each
map's canonical breakpoints.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import gcd
from typing import List, Optional, Sequence, Tuple

from .errors import (
    InvalidComplex,
    NotFixedPoint,
    OutOfInterval,
    ParseError,
    SideOutsideInterval,
)
from .geometry import fmt_ratio, ratio, records

Break = Tuple[Fraction, Fraction]
Piece = Tuple[Fraction, Fraction]
Ratio = Tuple[int, int]  # (numerator, denominator), in lowest terms, denominator > 0
Row = Tuple[int, int, int, int]  # a breakpoint (x, y) as (xn, xd, yn, yd)


# -- breakpoint lists, shared with circle lifts ---------------------------


def piece_at(rows: Sequence[Row], xn: int, xd: int) -> int:
    """Index of the piece that holds x = xn/xd, x in range: the piece
    right of the last row at or before x, or the last piece at the right
    end. One bisect, cross-multiplied."""
    i = bisect_right(rows, False, key=lambda row: row[0] * xd > xn * row[1]) - 1
    return min(i, len(rows) - 2)


def value_at(rows: Sequence[Row], slopes: Sequence[Ratio], xn: int, xd: int) -> Ratio:
    """Value at x = xn/xd (x in range) of the PL function through the rows
    with the given piece slopes: one multiply-add on the piece holding x."""
    i = piece_at(rows, xn, xd)
    return _along(rows[i], slopes[i], xn, xd)


def covers(rows: Sequence[Row], xn: int, xd: int) -> bool:
    """Does x = xn/xd lie between the first and the last row's x?"""
    return rows[0][0] * xd <= xn * rows[0][1] and xn * rows[-1][1] <= rows[-1][0] * xd


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
    """A PL map given by its canonical breakpoint rows, x strictly
    increasing, and the slope ratio of each piece between them: the core
    that interval maps and circle lifts share. Subclasses check
    monotonicity and their ends on the ratios, and call their module's
    functions from `eval`."""

    __slots__ = ("rows", "slope_ratios")

    def __init__(self, breakpoints: Sequence):
        pts = [ratio(x) + ratio(y) for x, y in breakpoints]
        if len(pts) < 2:
            raise InvalidComplex("need at least two breakpoints")
        rows, slopes = [pts[0]], []
        xn0, xd0, yn0, yd0 = pts[0]
        for row in pts[1:]:
            xn1, xd1, yn1, yd1 = row
            dx = xn1 * xd0 - xn0 * xd1  # (x1 - x0) xd0 xd1
            if dx <= 0:
                raise InvalidComplex("breakpoint x values must strictly increase")
            n, d = (yn1 * yd0 - yn0 * yd1) * xd0 * xd1, dx * yd0 * yd1
            g = gcd(n, d)
            s = (n // g, d // g)
            if slopes and s == slopes[-1]:  # rows[-1] is no kink: extend its piece
                rows[-1] = row
            else:
                rows.append(row)
                slopes.append(s)
            xn0, xd0, yn0, yd0 = row
        self.rows, self.slope_ratios = tuple(rows), tuple(slopes)

    @classmethod
    def trusted(cls, rows: Sequence[Row], slopes: Sequence[Ratio]):
        """A map that compose, invert or detection built from validated
        maps, so valid and canonical by construction, given by its
        breakpoint rows and the slope ratio of each piece: not checked."""
        self = cls.__new__(cls)
        self.rows, self.slope_ratios = tuple(rows), tuple(slopes)
        return self

    @property
    def breakpoints(self) -> Tuple[Break, ...]:
        """The breakpoints as (x, y) Fraction pairs, built on each read."""
        return tuple([(Fraction(xn, xd), Fraction(yn, yd)) for xn, xd, yn, yd in self.rows])

    @property
    def slopes(self) -> Tuple[Fraction, ...]:
        """The piece slopes as Fractions, built on each read."""
        return tuple([Fraction(n, d) for n, d in self.slope_ratios])

    def __eq__(self, other):
        return type(other) is type(self) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        pts = ", ".join(f"({fmt_ratio(xn, xd)},{fmt_ratio(yn, yd)})"
                        for xn, xd, yn, yd in self.rows)
        return f"{type(self).__name__}[{pts}]"

    def __call__(self, x) -> Fraction:
        return self.eval(x)


class PLMap1D(BreakpointMap):
    """PL homeomorphism of [a, b] onto itself."""

    __slots__ = ()

    def __init__(self, breakpoints: Sequence):
        super().__init__(breakpoints)
        first, last = self.rows[0], self.rows[-1]
        if all(n > 0 for n, _ in self.slope_ratios):
            ends = (first[:2], last[:2])
        elif all(n < 0 for n, _ in self.slope_ratios):
            ends = (last[:2], first[:2])
        else:
            raise InvalidComplex("map must be strictly monotone")
        if (first[2:], last[2:]) != ends:
            raise InvalidComplex("endpoints must map onto endpoints")

    # -- basics ----------------------------------------------------------

    @property
    def orientation(self) -> int:
        return 1 if self.slope_ratios[0][0] > 0 else -1

    @property
    def interval(self) -> Tuple[Fraction, Fraction]:
        return (Fraction(*self.rows[0][:2]), Fraction(*self.rows[-1][:2]))

    domain = interval

    @classmethod
    def identity(cls, a=0, b=1) -> "PLMap1D":
        return cls([(a, a), (b, b)])

    def identity_like(self) -> "PLMap1D":
        return PLMap1D.identity(*self.interval)

    def is_identity(self) -> bool:
        return len(self.rows) == 2 and all(row[:2] == row[2:] for row in self.rows)

    def moved_point(self) -> Optional[Fraction]:
        """A breakpoint the map moves, or None for the identity."""
        return next((Fraction(xn, xd) for xn, xd, yn, yd in self.rows
                     if (xn, xd) != (yn, yd)), None)

    def compose(self, g: "PLMap1D") -> "PLMap1D":
        return compose1d(self, g)

    def inverse(self) -> "PLMap1D":
        return inverse1d(self)

    def eval(self, x) -> Fraction:
        return eval1d(self, x)


def eval1d(f: PLMap1D, x) -> Fraction:
    xn, xd = ratio(x)
    rows = f.rows
    if not covers(rows, xn, xd):
        raise OutOfInterval(f"{fmt_ratio(xn, xd)} outside [{fmt_ratio(*rows[0][:2])}, "
                            f"{fmt_ratio(*rows[-1][:2])}]")
    return Fraction(*value_at(rows, f.slope_ratios, xn, xd))


def inverse1d(f: PLMap1D) -> PLMap1D:
    """x and y swapped in each row, each slope ratio inverted; a decreasing
    map's rows, swapped, run backwards."""
    rows = [(yn, yd, xn, xd) for xn, xd, yn, yd in f.rows]
    slopes = [(d, n) if n > 0 else (-d, -n) for n, d in f.slope_ratios]
    if f.orientation < 0:
        rows.reverse()
        slopes.reverse()
    return PLMap1D.trusted(rows, slopes)


def compose1d(f: PLMap1D, g: PLMap1D) -> PLMap1D:
    """The map x -> f(g(x)), by one merge of g's and f's breakpoint rows.

    A decreasing g runs through f's breakpoints in reverse, so the merge
    sees f reflected, u -> f(-u), after -g; both have their slopes negated.
    """
    frows, fslopes, grows, gslopes = f.rows, f.slope_ratios, g.rows, g.slope_ratios
    if frows[0][:2] != grows[0][:2] or frows[-1][:2] != grows[-1][:2]:
        raise OutOfInterval("maps must share the interval")
    if g.orientation < 0:
        frows = [(-un, ud, vn, vd) for un, ud, vn, vd in reversed(frows)]
        fslopes = [(-n, d) for n, d in reversed(fslopes)]
        grows = [(xn, xd, -yn, yd) for xn, xd, yn, yd in grows]
        gslopes = [(-n, d) for n, d in gslopes]
    return PLMap1D.trusted(*compose_breakpoints(frows, fslopes, grows, gslopes))


def one_sided_derivative(f: PLMap1D, p, side: str) -> Fraction:
    """Slope of the affine piece adjacent to a fixed point p on the given
    side: the piece holding p, found once, or the one left of it when p is
    that piece's left end and the left side is asked for."""
    pn, pd = ratio(p)
    rows = f.rows
    if not covers(rows, pn, pd):
        raise OutOfInterval(f"{fmt_ratio(pn, pd)} outside the interval")
    i = piece_at(rows, pn, pd)
    if _along(rows[i], f.slope_ratios[i], pn, pd) != (pn, pd):
        raise NotFixedPoint(f"{fmt_ratio(pn, pd)} is not fixed")
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    if (rows[0] if side == "left" else rows[-1])[:2] == (pn, pd):
        raise SideOutsideInterval(f"no {side} side at {fmt_ratio(pn, pd)}")
    if side == "left" and rows[i][:2] == (pn, pd):
        i -= 1
    return Fraction(*f.slope_ratios[i])


def fixed_set_1d(f: PLMap1D) -> List[Piece]:
    """Maximal closed intervals (possibly points) where f(x) = x, sorted."""
    return shifted_fixed_pieces(f.breakpoints, f.slopes, 0)


# -- text format ---------------------------------------------------------


def read_breakpoint_lines(text: str) -> Tuple[str, List[Tuple[str, str]]]:
    """The header line ('' if none) and the `x y` string pair of each later
    line, with comments and blank lines dropped; converts nothing."""
    lines = records(text)
    _, _, header = next(lines, (0, [], ""))
    pairs = []
    for lineno, tok, line in lines:
        if len(tok) != 2:
            raise ParseError(f"line {lineno}: bad breakpoint record {line!r}")
        pairs.append((tok[0], tok[1]))
    return header, pairs


def format_breakpoint_lines(header: str, rows: Sequence[Row]) -> str:
    """The header, then one `x y` line per breakpoint row, each coordinate
    printed as `geometry.fmt` prints its Fraction."""
    return "\n".join([header] + [f"{fmt_ratio(xn, xd)} {fmt_ratio(yn, yd)}"
                                 for xn, xd, yn, yd in rows]) + "\n"


def parse_plmap1d(text: str) -> PLMap1D:
    header, pairs = read_breakpoint_lines(text)
    tok = header.split()
    if not tok or tok[0] != "interval":
        raise ParseError("expected 'interval <a> <b>' header")
    if len(tok) != 3:
        raise ParseError("bad interval header")
    a, b = ratio(tok[1]), ratio(tok[2])
    f = PLMap1D(pairs)
    if (f.rows[0][:2], f.rows[-1][:2]) != (a, b):
        raise ParseError("breakpoints do not span the declared interval")
    return f


def format_plmap1d(f: PLMap1D) -> str:
    a, b = f.rows[0][:2], f.rows[-1][:2]
    return format_breakpoint_lines(f"interval {fmt_ratio(*a)} {fmt_ratio(*b)}", f.rows)
