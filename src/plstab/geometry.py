"""Exact rational scalars, vectors and small matrices.

Everything downstream computes over ``fractions.Fraction``: arbitrary
precision, always in lowest terms with positive denominator, which is
exactly the canonical form the rest of the toolkit assumes.  Points are
plain tuples of Fractions so they hash and compare structurally.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence, Tuple

from .errors import NondegenerateViolation, ParseError

Point = Tuple[Fraction, ...]


def rat(value) -> Fraction:
    """Coerce ints, strings like '3/4' or '-2', and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational literal {value!r}") from exc
    raise ParseError(f"cannot interpret {value!r} as a rational")


def fmt(q: Fraction) -> str:
    """Print a rational canonically: 'p/q', or just 'p' when q = 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def pt(*coords) -> Point:
    return tuple(rat(c) for c in coords)


def fmt_point(p: Point) -> str:
    return " ".join(fmt(c) for c in p)


def vsub(a: Point, b: Point) -> Point:
    return tuple(x - y for x, y in zip(a, b))


def vadd(a: Point, b: Point) -> Point:
    return tuple(x + y for x, y in zip(a, b))


def vscale(s, a: Point) -> Point:
    s = rat(s)
    return tuple(s * x for x in a)


def dot(a: Point, b: Point) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def cross2(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return a[0] * b[1] - a[1] * b[0]


def orient2(a: Point, b: Point, c: Point) -> Fraction:
    """Twice the signed area of the triangle abc (exact)."""
    return cross2(vsub(b, a), vsub(c, a))


def is_zero_vec(v: Sequence[Fraction]) -> bool:
    return all(x == 0 for x in v)


def collinear(a: Point, b: Point, c: Point) -> bool:
    if len(a) == 1:
        return True
    return orient2(a, b, c) == 0


def between(a: Point, b: Point, x: Point) -> bool:
    """True iff x lies on the closed segment [a, b] (a, b, x collinear assumed)."""
    d = vsub(b, a)
    e = vsub(x, a)
    t_num = dot(e, d)
    t_den = dot(d, d)
    if t_den == 0:
        return x == a
    return 0 <= t_num <= t_den and vscale(Fraction(t_num, t_den) if t_den else 0, d) == e


def segment_param(a: Point, b: Point, x: Point):
    """Parameter t with x = a + t (b - a), or None if x is off the line."""
    d = vsub(b, a)
    den = dot(d, d)
    if den == 0:
        return Fraction(0) if x == a else None
    t = Fraction(dot(vsub(x, a), d), den)
    if vadd(a, vscale(t, d)) != x:
        return None
    return t


def tiles_unit(intervals) -> bool:
    """Do the closed parameter intervals cover [0, 1] without a gap?"""
    pos = Fraction(0)
    for lo, hi in sorted(intervals):
        if lo > pos:
            return False
        pos = max(pos, hi)
    return pos == 1


def collinear_overlap(p: Point, q: Point, a: Point, b: Point):
    """Overlap of segment [p,q] with [a,b] when collinear.

    Returns ((lo_pq, hi_pq), (lo_ab, hi_ab)) parameter intervals of positive
    length, or None.
    """
    ta = segment_param(p, q, a)
    tb = segment_param(p, q, b)
    if ta is None or tb is None:
        return None
    lo, hi = max(min(ta, tb), Fraction(0)), min(max(ta, tb), Fraction(1))
    if lo >= hi:
        return None
    d = vsub(q, p)
    s0 = segment_param(a, b, vadd(p, vscale(lo, d)))
    s1 = segment_param(a, b, vadd(p, vscale(hi, d)))
    return ((lo, hi), (min(s0, s1), max(s0, s1)))


def cross3(a: Sequence[Fraction], b: Sequence[Fraction]) -> Point:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def drop_axis(p: Point, axis: int) -> Point:
    """Project a point of 3-space onto a coordinate plane."""
    return tuple(c for i, c in enumerate(p) if i != axis)


def plane_normal(p0: Point, p1: Point, p2: Point) -> Point:
    """Normal of the plane through three points of 3-space (zero if collinear)."""
    return cross3(vsub(p1, p0), vsub(p2, p0))


def bbox(pts: Sequence[Point]):
    """Axis-aligned bounding box (lower corner, upper corner) of some points."""
    return (
        tuple(min(p[i] for p in pts) for i in range(len(pts[0]))),
        tuple(max(p[i] for p in pts) for i in range(len(pts[0]))),
    )


def boxes_apart(b1, b2) -> bool:
    (lo1, hi1), (lo2, hi2) = b1, b2
    return any(hi1[k] < lo2[k] or hi2[k] < lo1[k] for k in range(len(lo1)))


def primitive_direction(v: Sequence[Fraction]) -> Tuple[int, ...]:
    """Canonical representative of a ray direction: coprime integers, same sense.

    Scaling is by a positive rational only, so (1,0) and (-1,0) stay distinct.
    """
    if is_zero_vec(v):
        raise ValueError("zero vector has no direction")
    fracs = [Fraction(x) for x in v]
    denom_lcm = 1
    for f in fracs:
        denom_lcm = denom_lcm * f.denominator // gcd(denom_lcm, f.denominator)
    ints = [int(f * denom_lcm) for f in fracs]
    g = 0
    for n in ints:
        g = gcd(g, abs(n))
    return tuple(n // g for n in ints)


class Mat:
    """A small dense matrix of Fractions (d x d, d in {1, 2, 3})."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable]):
        self.rows = tuple(tuple(rat(x) for x in row) for row in rows)
        n = len(self.rows)
        if n not in (1, 2, 3) or any(len(r) != n for r in self.rows):
            raise ValueError("Mat must be square of size 1..3")

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def n(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, Mat) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return "Mat(%s)" % (self.rows,)

    def __mul__(self, other: "Mat") -> "Mat":
        n = self.n
        return Mat(
            [
                [sum(self.rows[i][k] * other.rows[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)
            ]
        )

    def apply(self, v: Sequence) -> Point:
        return tuple(sum(row[j] * rat(v[j]) for j in range(self.n)) for row in self.rows)

    def det(self) -> Fraction:
        r = self.rows
        if self.n == 1:
            return r[0][0]
        if self.n == 2:
            return r[0][0] * r[1][1] - r[0][1] * r[1][0]
        return (
            r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
            - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
            + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0])
        )

    def inverse(self) -> "Mat":
        d = self.det()
        if d == 0:
            raise NondegenerateViolation("singular matrix has no inverse")
        r = self.rows
        if self.n == 1:
            return Mat([[1 / d]])
        if self.n == 2:
            return Mat([[r[1][1] / d, -r[0][1] / d], [-r[1][0] / d, r[0][0] / d]])
        cof = [
            [
                (r[(i + 1) % 3][(j + 1) % 3] * r[(i + 2) % 3][(j + 2) % 3]
                 - r[(i + 1) % 3][(j + 2) % 3] * r[(i + 2) % 3][(j + 1) % 3])
                for i in range(3)
            ]
            for j in range(3)
        ]
        return Mat([[c / d for c in row] for row in cof])

    def is_identity(self) -> bool:
        return self == Mat.identity(self.n)

    def is_positive_scalar(self) -> bool:
        """True iff the matrix is lambda * I with lambda > 0."""
        lam = self.rows[0][0]
        if lam <= 0:
            return False
        return self == Mat([[lam if i == j else 0 for j in range(self.n)] for i in range(self.n)])


def linear_part(u, v, iu, iv) -> Mat:
    """The 2x2 matrix A with A u = iu and A v = iv (u, v independent)."""
    d = cross2(u, v)
    # A = [iu iv] * [u v]^-1, columns
    inv = ((v[1] / d, -v[0] / d), (-u[1] / d, u[0] / d))
    return Mat(
        [
            [iu[0] * inv[0][0] + iv[0] * inv[1][0], iu[0] * inv[0][1] + iv[0] * inv[1][1]],
            [iu[1] * inv[0][0] + iv[1] * inv[1][0], iu[1] * inv[0][1] + iv[1] * inv[1][1]],
        ]
    )


def solve_linear(mat: Mat, rhs: Sequence[Fraction]):
    """Solve mat x = rhs exactly.

    Returns ('unique', x), ('line', p0, direction) for a 1-parameter solution
    set, ('all', None) when mat = 0 and rhs = 0, or ('none', None).
    Only sizes 1 and 2 are needed by the fixed-locus solvers.
    """
    n = mat.n
    rhs = tuple(rat(x) for x in rhs)
    if n == 1:
        a = mat.rows[0][0]
        if a != 0:
            return ("unique", (rhs[0] / a,))
        return ("all", None) if rhs[0] == 0 else ("none", None)
    if n == 2:
        a, b = mat.rows[0]
        c, d = mat.rows[1]
        det = a * d - b * c
        if det != 0:
            x = (rhs[0] * d - b * rhs[1]) / det
            y = (a * rhs[1] - rhs[0] * c) / det
            return ("unique", (x, y))
        # rank <= 1
        if a == b == c == d == 0:
            return ("all", None) if rhs == (0, 0) else ("none", None)
        # pick the nonzero row as the single honest equation
        if (a, b) != (Fraction(0), Fraction(0)):
            row, r = (a, b), rhs[0]
            other, ro = (c, d), rhs[1]
        else:
            row, r = (c, d), rhs[1]
            other, ro = (a, b), rhs[0]
        # consistency of the dependent row
        if (other[0], other[1]) != (Fraction(0), Fraction(0)):
            # other = s * row for some s; check s * r == ro
            s = other[0] / row[0] if row[0] != 0 else other[1] / row[1]
            if s * r != ro:
                return ("none", None)
        elif ro != 0:
            return ("none", None)
        # solution line of row . x = r
        if row[0] != 0:
            p0 = (r / row[0], Fraction(0))
        else:
            p0 = (Fraction(0), r / row[1])
        direction = (-row[1], row[0])
        return ("line", (p0, direction))
    raise ValueError("solve_linear supports sizes 1 and 2")
