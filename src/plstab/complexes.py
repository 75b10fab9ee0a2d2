"""Triangulated 1- and 2-manifolds with exact rational coordinates.

A :class:`Complex` is validated eagerly at construction; everything
downstream is allowed to assume the invariants (pure, manifold-with-boundary
face condition, nondegenerate and pairwise interior-disjoint realizations,
connectivity unless flagged).  Vertex indices are 0-based and stable, and
all iteration orders are sorted so outputs are reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Sequence, Tuple

from .clip import clip_polygon_to_triangle, polygon_area2
from .errors import InvalidComplex, ParseError, UnknownVertex
from .geometry import (
    Point,
    bbox,
    boxes_apart,
    cross2,
    cross3,
    dot,
    drop_axis,
    fmt,
    orient2,
    plane_normal,
    rat,
    vadd,
    vscale,
    vsub,
)

SimplexT = Tuple[int, ...]


def simplex(*vertices: int) -> SimplexT:
    vs = tuple(sorted(vertices))
    if len(set(vs)) != len(vs):
        raise InvalidComplex(f"repeated vertex in simplex {vertices}")
    return vs


def faces_of(s: SimplexT):
    """All nonempty faces of a simplex, the simplex itself included."""
    for k in range(1, len(s) + 1):
        for f in combinations(s, k):
            yield f


def close_under_faces(simplices) -> Tuple[SimplexT, ...]:
    out = set()
    for s in simplices:
        out.update(faces_of(tuple(sorted(s))))
    return tuple(sorted(out, key=lambda f: (len(f), f)))


def index_cells(cells):
    """Vertices of point-tuple cells in sorted coordinate order, and each
    cell as a sorted index simplex over them."""
    cells = list(cells)
    pts = sorted({p for cell in cells for p in cell})
    idx = {p: i for i, p in enumerate(pts)}
    return pts, [tuple(sorted(idx[p] for p in cell)) for cell in cells]


def seg_seg_open_meet(a, b, c, d) -> bool:
    """Do the open segments (a,b) and (c,d) share a point? Exact, any ambient."""
    u = vsub(b, a)
    v = vsub(d, c)
    w = vsub(c, a)
    if len(a) == 1:
        lo1, hi1 = min(a[0], b[0]), max(a[0], b[0])
        lo2, hi2 = min(c[0], d[0]), max(c[0], d[0])
        return max(lo1, lo2) < min(hi1, hi2)
    if len(a) == 2:
        denom = cross2(u, v)
        if denom != 0:
            t = Fraction(cross2(w, v), denom)
            s = Fraction(cross2(w, u), denom)
            return 0 < t < 1 and 0 < s < 1
        if cross2(w, u) != 0:
            return False  # parallel, different lines
    else:
        if not (cross3(u, v) == (0, 0, 0) and cross3(w, u) == (0, 0, 0)):
            # skew or crossing lines in 3-space: solve for a common point
            # via two independent coordinates, verify on the third
            for i, j in ((0, 1), (0, 2), (1, 2)):
                den = u[i] * (-v[j]) - u[j] * (-v[i])
                if den != 0:
                    t = Fraction(w[i] * (-v[j]) - w[j] * (-v[i]), den)
                    s = Fraction(u[i] * w[j] - u[j] * w[i], den)
                    if vadd(a, vscale(t, u)) != vadd(c, vscale(s, v)):
                        return False
                    return 0 < t < 1 and 0 < s < 1
            return False
    # collinear: compare parameter ranges along u
    den = dot(u, u)
    t0 = Fraction(dot(w, u), den)
    t1 = Fraction(dot(vsub(d, a), u), den)
    lo, hi = min(t0, t1), max(t0, t1)
    return max(Fraction(0), lo) < min(Fraction(1), hi)


def _plane(p0, p1, p2):
    n = plane_normal(p0, p1, p2)
    return n, dot(n, p0)


def _tri_tri_open_meet_2d(t1, t2) -> bool:
    poly = clip_polygon_to_triangle(list(t1), t2)
    return polygon_area2(poly) != 0


def _project_axis(normal):
    for i in (2, 1, 0):
        if normal[i] != 0:
            return i
    raise InvalidComplex("degenerate triangle normal")


def tri_tri_open_meet_3d(t1, t2) -> bool:
    """Do the open triangles t1 and t2 of 3-space share a point? Exact."""
    n1, d1 = _plane(*t1)
    n2, d2 = _plane(*t2)
    s = [dot(n2, p) - d2 for p in t1]
    if all(x > 0 for x in s) or all(x < 0 for x in s):
        return False
    if all(x == 0 for x in s):  # coplanar: project and use the 2D test
        ax = _project_axis(n2)
        return _tri_tri_open_meet_2d(
            [drop_axis(p, ax) for p in t1], [drop_axis(p, ax) for p in t2]
        )
    # T1 meets plane(T2) in a segment (or point); collect it
    pts = []
    for i in range(3):
        a, b = t1[i], t1[(i + 1) % 3]
        sa, sb = s[i], s[(i + 1) % 3]
        if sa == 0:
            pts.append(a)
        if (sa > 0 > sb) or (sa < 0 < sb):
            t = Fraction(sa, sa - sb)
            pts.append(vadd(a, vscale(t, vsub(b, a))))
    pts = list(dict.fromkeys(pts))
    if len(pts) < 2:
        return False
    p, q = pts[0], pts[1]
    # clip [p, q] by the three in-plane half-planes of T2; side(X) is linear in t
    lo, hi = Fraction(0), Fraction(1)
    for i in range(3):
        a, b = t2[i], t2[(i + 1) % 3]
        inward = dot(cross3(vsub(b, a), n2), vsub(t2[(i + 2) % 3], a))
        def side(x, a=a, b=b):
            return dot(cross3(vsub(b, a), n2), vsub(x, a))
        sp, sq = side(p), side(q)
        if inward < 0:
            sp, sq = -sp, -sq
        # keep {t : sp + t (sq - sp) >= 0}
        if sp == sq:
            if sp < 0:
                return False
            continue
        t = Fraction(sp, sp - sq)
        if sq < sp:
            hi = min(hi, t)
        else:
            lo = max(lo, t)
        if lo >= hi:
            return False
    if lo >= hi:
        return False
    mid = vadd(p, vscale((lo + hi) / 2, vsub(q, p)))
    # interior overlap needs the midpoint strictly inside both triangles
    def strictly_inside(x, tri, n):
        for i in range(3):
            a, b = tri[i], tri[(i + 1) % 3]
            inward = dot(cross3(vsub(b, a), n), vsub(tri[(i + 2) % 3], a))
            sd = dot(cross3(vsub(b, a), n), vsub(x, a))
            if inward < 0:
                sd = -sd
            if sd <= 0:
                return False
        return True

    return strictly_inside(mid, t1, n1) and strictly_inside(mid, t2, n2)


def triangle_area2(pts) -> Fraction:
    """Twice the unsigned area of a planar (ambient-2) triangle."""
    return abs(orient2(*pts))


class Complex:
    """A pure simplicial complex realizing a 1- or 2-manifold with boundary."""

    __slots__ = ("points", "simplices", "dim", "connected_flag")

    def __init__(self, points: Sequence, maximal_simplices, dim: int | None = None,
                 require_connected: bool = True):
        self.points: Tuple[Point, ...] = tuple(tuple(rat(c) for c in p) for p in points)
        sims = sorted(tuple(sorted(s)) for s in maximal_simplices)
        self.simplices: Tuple[SimplexT, ...] = tuple(sims)
        if not self.simplices:
            raise InvalidComplex("complex has no maximal simplices")
        if dim is None:
            dim = len(self.simplices[0]) - 1
        self.dim = dim
        self.connected_flag = require_connected
        self._validate(require_connected)

    # -- validation ------------------------------------------------------

    def _validate(self, require_connected: bool):
        if self.dim not in (1, 2):
            raise InvalidComplex("only dimensions 1 and 2 are supported")
        d_amb = len(self.points[0]) if self.points else 0
        if d_amb not in (1, 2, 3):
            raise InvalidComplex("ambient dimension must be 1, 2 or 3")
        if any(len(p) != d_amb for p in self.points):
            raise InvalidComplex("points have mixed ambient dimension")
        used = set()
        for s in self.simplices:
            if len(s) != self.dim + 1:
                raise InvalidComplex(f"complex is not pure: simplex {s}")
            if len(set(s)) != len(s):
                raise InvalidComplex(f"repeated vertex in simplex {s}")
            if not all(0 <= v < len(self.points) for v in s):
                raise InvalidComplex(f"vertex index out of range in {s}")
            used.update(s)
        if used != set(range(len(self.points))):
            raise InvalidComplex("every point must appear in a maximal simplex")
        if len(set(self.simplices)) != len(self.simplices):
            raise InvalidComplex("duplicate maximal simplex")
        for s in self.simplices:
            self._check_nondegenerate(s)
        self._check_manifold_faces()
        self._check_disjoint_interiors()
        if require_connected and not self.is_connected():
            raise InvalidComplex("complex is not connected (flag it otherwise)")

    def _check_nondegenerate(self, s: SimplexT):
        pts = [self.points[v] for v in s]
        if len(s) == 2:
            if pts[0] == pts[1]:
                raise InvalidComplex(f"degenerate edge {s}")
        elif len(s) == 3:
            if len(pts[0]) == 2:
                if orient2(*pts) == 0:
                    raise InvalidComplex(f"degenerate triangle {s}")
            else:
                if plane_normal(*pts) == (0, 0, 0):
                    raise InvalidComplex(f"degenerate triangle {s}")

    def _check_manifold_faces(self):
        counts: Dict[SimplexT, int] = {}
        for s in self.simplices:
            for f in combinations(s, self.dim):
                counts[f] = counts.get(f, 0) + 1
        for f, c in counts.items():
            if c > 2:
                raise InvalidComplex(f"face {f} lies in {c} maximal simplices")

    def _check_disjoint_interiors(self):
        boxes = [bbox([self.points[v] for v in s]) for s in self.simplices]
        for i in range(len(self.simplices)):
            for j in range(i + 1, len(self.simplices)):
                if boxes_apart(boxes[i], boxes[j]):
                    continue
                if self._interiors_meet(self.simplices[i], self.simplices[j]):
                    raise InvalidComplex(
                        f"simplices {self.simplices[i]} and {self.simplices[j]} overlap"
                    )

    def _interiors_meet(self, s1: SimplexT, s2: SimplexT) -> bool:
        p1 = [self.points[v] for v in s1]
        p2 = [self.points[v] for v in s2]
        if self.dim == 1:
            return seg_seg_open_meet(p1[0], p1[1], p2[0], p2[1])
        if len(p1[0]) == 2:
            return _tri_tri_open_meet_2d(p1, p2)
        return tri_tri_open_meet_3d(p1, p2)

    def is_connected(self) -> bool:
        return _connected(adjacency(self.simplices))

    # -- basic queries ---------------------------------------------------

    @property
    def ambient_dim(self) -> int:
        return len(self.points[0])

    def all_faces(self) -> Tuple[SimplexT, ...]:
        return close_under_faces(self.simplices)

    def edges(self) -> Tuple[SimplexT, ...]:
        return tuple(f for f in self.all_faces() if len(f) == 2)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Complex)
            and self.points == other.points
            and self.simplices == other.simplices
        )

    def __hash__(self):
        return hash((self.points, self.simplices))

    def __repr__(self):
        return f"Complex(dim={self.dim}, |V|={len(self.points)}, |top|={len(self.simplices)})"


class SubComplex:
    """A face-closed set of simplices of a parent complex."""

    __slots__ = ("parent", "simplices")

    def __init__(self, parent: Complex, simplices):
        self.parent = parent
        self.simplices: Tuple[SimplexT, ...] = close_under_faces(simplices)
        for s in self.simplices:
            if not all(0 <= v < len(parent.points) for v in s):
                raise InvalidComplex(f"subcomplex simplex {s} not in parent")

    def __eq__(self, other):
        return (
            isinstance(other, SubComplex)
            and self.parent is other.parent
            and self.simplices == other.simplices
        )

    def __bool__(self):
        return bool(self.simplices)

    def __repr__(self):
        return f"SubComplex({len(self.simplices)} simplices)"

    def max_dim(self) -> int:
        return max((len(s) - 1 for s in self.simplices), default=-1)

    def of_dim(self, k: int) -> Tuple[SimplexT, ...]:
        return tuple(s for s in self.simplices if len(s) == k + 1)

    def vertex_degrees(self) -> Dict[int, int]:
        """Edge-degree of each vertex present in the subcomplex."""
        deg = {s[0]: 0 for s in self.of_dim(0)}
        for e in self.of_dim(1):
            for v in e:
                deg[v] = deg.get(v, 0) + 1
        return deg

    def euler_characteristic(self) -> int:
        chi = 0
        for s in self.simplices:
            chi += (-1) ** (len(s) - 1)
        return chi


# -- the spec operations -------------------------------------------------


def euler_characteristic(c: Complex) -> int:
    """#V - #E + #F over the full face poset."""
    chi = 0
    for f in c.all_faces():
        chi += (-1) ** (len(f) - 1)
    return chi


def star(c: Complex, v: int) -> SubComplex:
    """Closed star: all maximal simplices containing v, plus their faces."""
    if not 0 <= v < len(c.points):
        raise UnknownVertex(f"vertex {v} not in complex")
    return SubComplex(c, [s for s in c.simplices if v in s])


def link(c: Complex, v: int) -> SubComplex:
    """Faces of the closed star that do not contain v."""
    st = star(c, v)
    return SubComplex(c, [s for s in st.simplices if v not in s])


def boundary(c: Complex) -> SubComplex:
    """Codimension-1 faces lying in exactly one maximal simplex."""
    counts: Dict[SimplexT, int] = {}
    for s in c.simplices:
        for f in combinations(s, c.dim):
            counts[f] = counts.get(f, 0) + 1
    return SubComplex(c, [f for f, n in counts.items() if n == 1])


def is_cycle(sub: SubComplex) -> bool:
    """Is a 1-dimensional subcomplex a single closed cycle of edges?"""
    edges = sub.of_dim(1)
    if not edges:
        return False
    deg = sub.vertex_degrees()
    return all(d == 2 for d in deg.values()) and _connected(adjacency(edges))


def is_arc(sub: SubComplex) -> bool:
    """Is a 1-dimensional subcomplex a single open arc of edges?"""
    edges = sub.of_dim(1)
    if not edges:
        return False
    deg = sub.vertex_degrees()
    ends = [v for v, d in deg.items() if d == 1]
    return (
        len(ends) == 2
        and all(d in (1, 2) for d in deg.values())
        and _connected(adjacency(edges))
    )


def adjacency(simplices) -> Dict[int, set]:
    """Each vertex of the simplices -> the vertices sharing a simplex with it."""
    adj: Dict[int, set] = {}
    for s in simplices:
        for a in s:
            adj.setdefault(a, set()).update(b for b in s if b != a)
    return adj


def _connected(adj: Dict[int, set]) -> bool:
    start = next(iter(adj))
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(adj)


# -- text format ---------------------------------------------------------


def parse_complex(text: str, require_connected: bool = True) -> Complex:
    """Parse the `v <index> <coords...>` / `s <i> <j> [<k>]` line format."""
    points: Dict[int, Point] = {}
    sims: List[SimplexT] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        if tok[0] == "v":
            if len(tok) < 3 or len(tok) > 5:
                raise ParseError(f"line {lineno}: bad vertex record")
            idx = int(tok[1])
            points[idx] = tuple(rat(t) for t in tok[2:])
        elif tok[0] == "s":
            if len(tok) < 2 or len(tok) > 4:
                raise ParseError(f"line {lineno}: bad simplex record")
            sims.append(tuple(int(t) for t in tok[1:]))
        else:
            raise ParseError(f"line {lineno}: unknown record {tok[0]!r}")
    if not points:
        raise ParseError("no vertices")
    if sorted(points) != list(range(len(points))):
        raise ParseError("vertex indices must be 0..n-1 without gaps")
    return Complex(
        [points[i] for i in range(len(points))], sims,
        require_connected=require_connected,
    )


def format_complex(c: Complex) -> str:
    lines = []
    for i, p in enumerate(c.points):
        lines.append("v %d %s" % (i, " ".join(fmt(x) for x in p)))
    for s in c.simplices:
        lines.append("s %s" % " ".join(str(v) for v in s))
    return "\n".join(lines) + "\n"
