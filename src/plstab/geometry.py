"""Exact rational scalars, the one geometry kernel, and small matrices.

Scalars are ``fractions.Fraction``s: arbitrary precision, always in
lowest terms with positive denominator, which is exactly the canonical
form the rest of the toolkit assumes.  The one literal parser, `ratio`,
reads a token as an integer ratio in that form; `rat` builds the Fraction
of it, and 1D maps keep the ratio.

`homogeneous` is the one integer form of a point: (X, W) for X/W,
(X, Y, W) for (X/W, Y/W), W > 0 and gcd 1, so equal points have equal
tuples.  Complexes and maps store their points as these rows, and every
geometric decision runs on them: `orient2`, the sign of `det3`, orients
three points, `hom_cmp` orders two (monotone along any line, so the
segment tests `on_segment` and `span_overlap` need no parameter), and a
`HomCell`'s edge lines L = a × b give `orient2` as L·x, three products
and no call.  New points are rows too (`hom_barycentre`), and so are the
rays between two points (`hom_direction`), sweep boxes (`row_boxes`) and
measures, as integer ratios (`extent`, `ratio_sum`).  `affine_point` is
the one way back, and `fmt_hom` prints a row as `fmt` prints its point.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import Iterable, NamedTuple, Sequence, Tuple

from .errors import NondegenerateViolation, ParseError

Point = Tuple[Fraction, ...]
Hom = Tuple[int, ...]

# `Fraction` builds 10**e in full for an exponent e, in superlinear time, so
# a larger one is refused first (CPython bounds int literals to 4300 digits)
MAX_EXPONENT = 4300


def ratio(value) -> Tuple[int, int]:
    """The (numerator, denominator) of a rational literal, in lowest terms
    with a positive denominator, as `Fraction.as_integer_ratio()` gives it.

    Accepts what `rat` accepts.  An ASCII ``int`` or ``int/int`` token is
    read by `int` and one `gcd`; any other string goes through `Fraction`,
    with an exponent at most `MAX_EXPONENT` in size, and a refused one
    raises the same `ParseError` whichever way it was read.
    """
    if isinstance(value, str):
        num, slash, den = value.partition("/")
        if num.isascii() and (num[1:] if num[:1] == "-" else num).isdigit():
            if not slash:
                return int(num), 1
            if den.isascii() and den.isdigit():
                n, d = int(num), int(den)
                if d:
                    g = gcd(n, d)
                    return n // g, d // g
        try:
            digits = value.lower().partition("e")[2].replace("_", "").strip().lstrip("+-0")
            if digits.isdecimal() and (len(digits) > len(str(MAX_EXPONENT))
                                       or int(digits) > MAX_EXPONENT):
                raise ValueError(f"exponent beyond {MAX_EXPONENT}")
            return Fraction(value).as_integer_ratio()
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational literal {value!r}") from exc
    if isinstance(value, (int, Fraction)):
        return value.as_integer_ratio()
    raise ParseError(f"cannot interpret {value!r} as a rational")


def rat(value) -> Fraction:
    """Coerce ints, strings like '3/4', '-2' or '1e-3' (an exponent at most
    `MAX_EXPONENT` in size), and Fractions to Fraction: a string is read by
    `ratio`."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    return Fraction(*ratio(value))


class TokenTable(dict):
    """Coordinate tokens of one request's files, each converted by `rat` on
    its first lookup: ``table[token]`` is ``rat(token)``, and equal tokens
    give the same Fraction object.  A token `rat` refuses raises its
    `ParseError` on every lookup and is never stored.  One table serves
    one request (a command's base and map files), never a process."""

    __slots__ = ()

    def __missing__(self, token: str) -> Fraction:
        q = self[token] = rat(token)
        return q


def records(text: str):
    """(line number, tokens, text) of each line that is not blank or a
    comment; a comment runs from `#` to the end of its line.  The one rule
    for comments and blank lines of the text formats."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split(), line


def fmt(q: Fraction) -> str:
    """Print a rational, a Fraction or an int, canonically: 'p/q', or just
    'p' when q = 1."""
    return fmt_ratio(*q.as_integer_ratio())


def fmt_ratio(n: int, d: int) -> str:
    """Print the rational n/d, in lowest terms with d > 0, as `fmt` does."""
    return str(n) if d == 1 else f"{n}/{d}"


def cross2(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return a[0] * b[1] - a[1] * b[0]


def orient2(a: Hom, b: Hom, c: Hom) -> int:
    """The orientation of the points abc, given by their `homogeneous`
    rows: 1 counter-clockwise, -1 clockwise, 0 collinear.  The sign of
    `det3`, W_a W_b W_c `area2(a, b, c)` with each W > 0."""
    d = det3(a, b, c)
    return (d > 0) - (d < 0)


def area2(a: Point, b: Point, c: Point) -> Fraction:
    """Twice the signed area of the triangle abc (exact): the value whose
    sign `orient2` decides, as the `det3` of the `homogeneous` rows a, b, c
    over the product of their W.  Only the first two coordinates count."""
    a, b, c = homogeneous(a), homogeneous(b), homogeneous(c)
    return Fraction(det3(a, b, c), a[2] * b[2] * c[2])


def homogeneous(p: Point) -> Hom:
    """(X, W) for a point X/W, or (X, Y, W) for (X/W, Y/W), its coordinates
    ints or Fractions: W, the lcm of the denominators, is positive, and the
    gcd is 1 as each coordinate is in lowest terms, so equal points have
    equal tuples."""
    xn, xd = p[0].as_integer_ratio()
    if len(p) == 1:
        return xn, xd
    yn, yd = p[1].as_integer_ratio()
    if xd == yd:
        return xn, yn, xd
    w = xd * yd // gcd(xd, yd)
    return xn * (w // xd), yn * (w // yd), w


def hom_cmp(a: Hom, b: Hom) -> int:
    """Negative, 0 or positive as the point of the `homogeneous` row a is
    before, at or after that of b in coordinate order: axis by axis, X W'
    against X' W (W, W' > 0); a 1D row (X, W) has second term 0."""
    return a[0] * b[-1] - b[0] * a[-1] or a[1] * b[-1] - b[1] * a[-1]


def det3(a: Hom, b: Hom, c: Hom) -> int:
    """The determinant of the rows a, b, c: W_a W_b W_c `area2(a, b, c)`."""
    (ax, ay, aw), (bx, by, bw), (cx, cy, cw) = a, b, c
    return ax * (by * cw - bw * cy) - ay * (bx * cw - bw * cx) + aw * (bx * cy - by * cx)


def line_through(a: Hom, b: Hom) -> Hom:
    """The line a × b through two points in homogeneous coordinates: for
    every point x, L·x is the determinant of the rows a, b, x, which is
    W_a W_b W_x times `area2(a, b, x)`, so it has the sign of `orient2`."""
    (ax, ay, aw), (bx, by, bw) = a, b
    return ay * bw - aw * by, aw * bx - ax * bw, ax * by - ay * bx


def affine_point(h: Hom) -> Point:
    """The point X/W, or (X/W, Y/W), of a `homogeneous` row, as Fractions:
    the one conversion out of the integer form."""
    if len(h) == 2:
        return (Fraction(h[0], h[1]),)
    return Fraction(h[0], h[2]), Fraction(h[1], h[2])


def fmt_hom(h: Hom) -> str:
    """The coordinates of a `homogeneous` row, printed as `fmt` prints
    those of its point: each X/W reduced by one gcd, joined by spaces."""
    w, out = h[-1], []
    for x in h[:-1]:
        g = gcd(x, w)
        out.append(fmt_ratio(x // g, w // g))
    return " ".join(out)


class HomCell(NamedTuple):
    """A counter-clockwise convex cell of the integer kernel: its vertices'
    `homogeneous` rows, and the `line_through` each edge homs[i] ->
    homs[i + 1], the last closing the cycle, so a point x is in the closed
    cell iff L·x >= 0 for every line L."""

    homs: Tuple[Hom, ...]
    lines: Tuple[Hom, ...]


def hom_cell(points: Sequence[Point]) -> HomCell:
    """The `HomCell` of a loose convex polygon's distinct points, reversed
    if the first nonzero `orient2` of its fan is negative (clockwise)."""
    homs = tuple(map(homogeneous, points))
    fan = (orient2(homs[0], b, c) for b, c in zip(homs[1:], homs[2:]))
    if next((o for o in fan if o), 0) < 0:
        homs = homs[::-1]
    return HomCell(homs, tuple(map(line_through, homs, homs[1:] + homs[:1])))


def on_segment(a: Hom, b: Hom, x: Hom) -> bool:
    """Is the point of row x on the closed segment of the rows a, b?  On
    the line (`orient2`, in the plane) and between the ends in coordinate
    order (`hom_cmp`), which is monotone along a line."""
    if len(x) == 3 and orient2(a, b, x):
        return False
    return hom_cmp(a, x) * hom_cmp(x, b) >= 0


def between(a: Point, b: Point, x: Point) -> bool:
    """True iff the point x lies on the closed segment [a, b]: `on_segment`
    of their `homogeneous` rows."""
    return on_segment(homogeneous(a), homogeneous(b), homogeneous(x))


def extent(seg: Sequence[Hom]) -> Tuple[int, int]:
    """The measure along its line of a segment, given by its ends' rows, as
    an integer ratio (n, d): the largest absolute coordinate of its direction."""
    (*p, pw), (*q, qw) = seg
    return max(abs(b * pw - a * qw) for a, b in zip(p, q)), pw * qw


def ratio_sum(ratios: Sequence[Tuple[int, int]]) -> Tuple[int, int]:
    """The sum of integer ratios (n, d), d > 0, over the lcm of the d."""
    d = lcm(*(q for _, q in ratios))
    return sum(p * (d // q) for p, q in ratios), d


def collinear_overlap(p: Hom, q: Hom, a: Hom, b: Hom):
    """Overlap of segment [p, q] with [a, b], all rows, when collinear:
    its two ends, in the direction p -> q, when it has positive length,
    or None."""
    if len(p) == 3 and (orient2(p, q, a) or orient2(p, q, b)):
        return None
    return span_overlap(p, q, a, b)


def span_overlap(p: Hom, q: Hom, a: Hom, b: Hom):
    """Where [a, b] on the line of [p, q] overlaps it, all rows: the ends
    in the direction p -> q when it has positive length, or None.  The one
    test of collinear overlap, by `hom_cmp`, monotone along the line."""
    sense = -1 if hom_cmp(p, q) > 0 else 1

    def before(u, v):
        return sense * hom_cmp(u, v) < 0

    if before(b, a):
        a, b = b, a
    lo, hi = (a if before(p, a) else p), (b if before(b, q) else q)
    return (lo, hi) if before(lo, hi) else None


def row_boxes(*lists):
    """The integer box (lower corner, upper corner) of each cell, a list of
    `homogeneous` rows, of each list: each X/W times 2^k >= 2 D^2, D the
    largest W of all the lists, floored for the lower corner and ceiled for
    the upper.  Two distinct X/W of denominators at most D differ by at
    least 1/D^2, so by at least 2 scaled: the ints order and meet as the
    rationals do, and take no lcm, so they stay near the rows' size."""
    k = 2 * max(h[-1] for cells in lists for cell in cells for h in cell).bit_length() + 1

    def corner(cell, sign):
        return tuple(sign * min((sign * h[i] << k) // h[-1] for h in cell)
                     for i in range(len(cell[0]) - 1))

    return [[(corner(cell, 1), corner(cell, -1)) for cell in cells] for cells in lists]


def candidate_pairs(boxes_a, boxes_b=None):
    """Index pairs (i, j) of the integer boxes (lower corner, upper corner)
    that meet: the boxes of the cells that `overlay.triangle_pieces` does
    not walk, which each caller builds once (the sides of
    `is_simple_polygon` on one grid, and the `row_boxes` of the all-pairs
    fallback of `Complex` and of the segments of `overlay.segment_pieces`).

    Pairs come in row-major order; with one list, only the pairs i < j.
    Cells whose boxes are apart share no point.  A sweep over the boxes in
    order of their lower x compares only boxes whose x ranges meet, and
    then only the last axis of these boxes of dimension 1 or 2.
    """
    one = boxes_b is None
    na, boxes = len(boxes_a), boxes_a if one else [*boxes_a, *boxes_b]
    los, his = [lo[0] for lo, _ in boxes], [hi[0] for _, hi in boxes]
    # a stable sort keeps the first list, then the lower index, first among
    # equal lower x; with one list every box is on both sides
    active, pairs = ([], []), []
    for k in sorted(range(len(boxes)), key=los.__getitem__):
        side = 0 if one else int(k >= na)
        other = active[0 if one else 1 - side]
        # a box whose x range ends before this one's starts misses it and
        # every later box
        other[:] = [m for m in other if his[m] >= los[k]]
        lo, hi = boxes[k]
        for m in other:
            mlo, mhi = boxes[m]
            if lo[-1] <= mhi[-1] and mlo[-1] <= hi[-1]:
                pairs.append((min(k, m), max(k, m)) if one
                             else (m, k - na) if side else (k, m - na))
        active[side].append(k)
    pairs.sort()
    return pairs


def closed_segments_meet(a: Hom, b: Hom, c: Hom, d: Hom) -> bool:
    """Do the closed planar segments [a, b] and [c, d], a != b and c != d,
    given by their ends' rows, share a point? Exact.

    They do not when both ends of one lie strictly on one side of the
    other's line (`orient2`); when all four lie on one line, iff an end of
    one is `on_segment` of the other.
    """
    o1, o2 = orient2(a, b, c), orient2(a, b, d)
    if o1 == o2 == 0:
        return on_segment(a, b, c) or on_segment(a, b, d) or on_segment(c, d, a)
    return o1 * o2 <= 0 and orient2(c, d, a) * orient2(c, d, b) <= 0


def on_one_grid(homs: Sequence[Hom]):
    """Planar `homogeneous` rows over one W, the lcm of theirs: the rows
    (X, Y, 1) of the points scaled by W onto an integer grid, and W.  A
    positive scale keeps the sign of every orientation, dot product and
    comparison."""
    w = lcm(*(h[2] for h in homs))
    return [(x * (w // c), y * (w // c), 1) for x, y, c in homs], w


def is_simple_polygon(homs: Sequence[Hom]) -> bool:
    """Is the closed polyline through distinct planar points, given by
    their `homogeneous` rows, in order, a simple polygon?

    Two consecutive sides share their common vertex and meet nowhere else
    unless they fold back onto each other: collinear (`orient2`), with the
    second running back along the first (a positive dot product).  Two
    sides that are not consecutive must not meet at all; only the pairs
    whose boxes meet are tested.

    The rows are first put `on_one_grid`, so the boxes of the sides are
    ints too, for `candidate_pairs`.
    """
    pts = on_one_grid(homs)[0]
    n = len(pts)
    for k in range(n):
        a, b, c = pts[k - 1], pts[k], pts[(k + 1) % n]
        if (orient2(a, b, c) == 0
                and (a[0] - b[0]) * (c[0] - b[0]) + (a[1] - b[1]) * (c[1] - b[1]) > 0):
            return False
    sides = list(zip(pts, pts[1:] + pts[:1]))
    boxes = [((ax if ax < bx else bx, ay if ay < by else by),
              (bx if ax < bx else ax, by if ay < by else ay)) for (ax, ay, _), (bx, by, _) in sides]
    for i, j in candidate_pairs(boxes):
        if 1 < j - i < n - 1 and closed_segments_meet(*sides[i], *sides[j]):
            return False
    return True


def primitive_direction(v: Sequence[Fraction]) -> Tuple[int, ...]:
    """Canonical representative of a ray direction, of ints or Fractions:
    coprime integers, scaled by a positive rational, so the same sense."""
    if not any(v):
        raise ValueError("zero vector has no direction")
    ratios = [x.as_integer_ratio() for x in v]
    denom = lcm(*(d for _, d in ratios))
    ints = [n * (denom // d) for n, d in ratios]
    g = gcd(*ints)
    return tuple(n // g for n in ints)


def hom_barycentre(weights: Sequence[int], homs: Sequence[Hom]) -> Hom:
    """The row of sum w_i x_i / sum w_i, for int weights w_i of nonzero sum
    and the rows h_i of the points x_i: the sum of the w_i h_i / W_i over
    one W, reduced by one gcd with W > 0."""
    w = prod(h[-1] for h in homs)
    row = [sum(c * (w // h[-1]) * h[k] for c, h in zip(weights, homs))
           for k in range(len(homs[0]))]
    g = gcd(*row) if row[-1] > 0 else -gcd(*row)
    return tuple(x // g for x in row)


def hom_direction(a: Hom, b: Hom) -> Tuple[int, ...]:
    """The `primitive_direction` from the point of row a to that of row b:
    that of the row difference X_b W_a - X_a W_b, axis by axis."""
    return primitive_direction([y * a[-1] - x * b[-1] for x, y in zip(a[:-1], b[:-1])])


class Mat:
    """A 2 x 2 matrix of Fractions."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable]):
        self.rows = tuple(tuple(rat(x) for x in row) for row in rows)
        if len(self.rows) != 2 or any(len(r) != 2 for r in self.rows):
            raise ValueError("Mat must be 2 x 2")

    @classmethod
    def identity(cls) -> "Mat":
        return cls([[1, 0], [0, 1]])

    def __eq__(self, other) -> bool:
        return isinstance(other, Mat) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return "Mat(%s)" % (self.rows,)

    def __mul__(self, other: "Mat") -> "Mat":
        (a, b), (c, d) = self.rows
        (e, f), (g, h) = other.rows
        return Mat([[a * e + b * g, a * f + b * h], [c * e + d * g, c * f + d * h]])

    def apply(self, v: Sequence) -> Point:
        x, y = rat(v[0]), rat(v[1])
        return tuple(r0 * x + r1 * y for r0, r1 in self.rows)

    def det(self) -> Fraction:
        r = self.rows
        return r[0][0] * r[1][1] - r[0][1] * r[1][0]

    def inverse(self) -> "Mat":
        d = self.det()
        if d == 0:
            raise NondegenerateViolation("singular matrix has no inverse")
        r = self.rows
        return Mat([[r[1][1] / d, -r[0][1] / d], [-r[1][0] / d, r[0][0] / d]])

    def is_identity(self) -> bool:
        return self == Mat.identity()

    def is_positive_scalar(self) -> bool:
        """True iff the matrix is lambda * I with lambda > 0."""
        lam = self.rows[0][0]
        return lam > 0 and self == Mat([[lam, 0], [0, lam]])

