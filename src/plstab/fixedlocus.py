"""Fixed-point subcomplexes, the canonical invariant submanifold, and
periodic-point search.

The fixed set of a simplicial-affine map meets each cell in nothing, a
point, a chord, or the whole cell.  We rebuild the domain as a finer
complex in which all those features are genuine faces; the fixed locus is
then exactly the faces whose vertices are all fixed (the map is affine on
every cell, so two fixed vertices pin the whole edge, three the whole
triangle).  Frontier and invariant-submanifold computations become purely
combinatorial on that complex.  The finer complex is valid by construction
and built trusted, and each of its vertices is tested under f's piece on
the cell it was cut from.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, Optional, Tuple

from .clip import point_in_triangle, polygon_area2, triangulate_convex
from .complexes import (Complex, SimplexT, SubComplex, euler_characteristic,
                        index_cells)
from .errors import FixIsEmpty, FixIsEverything, InternalError
from .geometry import (Mat, Point, linear_part, orient2, solve_linear, vadd,
                       vscale, vsub)
from .plmap import PLMap, compose2d


@dataclass(frozen=True)
class FixedLocus:
    """Fix(f) as a subcomplex of a refinement of f's domain."""

    refined: Complex
    cells: SubComplex
    provenance: Dict[SimplexT, int]  # maximal refined cell -> refinement cell index

    def is_empty(self) -> bool:
        return not self.cells.simplices

    def is_everything(self) -> bool:
        fix = set(self.cells.simplices)
        return all(s in fix for s in self.refined.simplices)


@dataclass(frozen=True)
class CanonicalInvariant:
    """The closed invariant submanifold N inside Fix(f)."""

    n_f: SubComplex
    derivation_depth: int


def _edge_fix(f: PLMap, a: Point, b: Point, fa: Point, fb: Point):
    """Fixed set of the affine map along segment [a, b]: none/point/full."""
    da = vsub(fa, a)
    db = vsub(fb, b)
    # displacement(t) = da + t (db - da); zero set of each coordinate
    lo, hi = Fraction(0), Fraction(1)
    sol_all = True
    point_t: Optional[Fraction] = None
    for c0, c1 in zip(da, db):
        if c0 == c1:
            if c0 != 0:
                return ("none", None)
            continue
        sol_all = False
        t = Fraction(c0, c0 - c1)
        if point_t is None:
            point_t = t
        elif point_t != t:
            return ("none", None)
    if sol_all:
        return ("full", None)
    if point_t is None or not 0 <= point_t <= 1:
        return ("none", None)
    return ("point", vadd(a, vscale(point_t, vsub(b, a))))


def _cell_fix_2d(f: PLMap, s: SimplexT):
    """Interior fixed feature of a 2D cell: none / interior point / chord / full."""
    tri = [f.refinement.points[v] for v in s]
    q = [f.images[v] for v in s]
    # f(x) = a x + t on the cell
    a = linear_part(vsub(tri[1], tri[0]), vsub(tri[2], tri[0]),
                    vsub(q[1], q[0]), vsub(q[2], q[0]))
    t = vsub(q[0], a.apply(tri[0]))
    m = Mat([[a.rows[0][0] - 1, a.rows[0][1]], [a.rows[1][0], a.rows[1][1] - 1]])
    rhs = (-t[0], -t[1])
    kind, sol = solve_linear(m, rhs)
    if kind == "none":
        return ("none", None)
    if kind == "all":
        return ("full", None)
    if kind == "unique":
        x = sol
        if point_in_triangle(x, tri, strict=True):
            return ("point", x)
        return ("none", None)  # boundary hits are captured by the edge pass
    p0, direction = sol
    seg = _clip_line_to_triangle(p0, direction, tri)
    if seg is None:
        return ("none", None)
    x, y = seg
    if x == y:
        return ("none", None)
    # a chord along a triangle side belongs to the edge pass
    for i in range(3):
        va, vb = tri[i], tri[(i + 1) % 3]
        if orient2(va, vb, x) == 0 and orient2(va, vb, y) == 0:
            return ("none", None)
    return ("chord", (x, y))


def _clip_line_to_triangle(p0, direction, tri):
    """Intersect the line p0 + s*direction with a triangle; endpoints or None."""
    t = list(tri)
    if orient2(*t) < 0:
        t.reverse()
    lo, hi = None, None
    for i in range(3):
        a, b = t[i], t[(i + 1) % 3]
        # orient2(a, b, p0 + s d) = c0 + s * c1 >= 0
        c0 = orient2(a, b, p0)
        c1 = orient2(a, b, vadd(p0, direction)) - c0
        if c1 == 0:
            if c0 < 0:
                return None
            continue
        s = Fraction(-c0, c1)
        if c1 > 0:
            lo = s if lo is None else max(lo, s)
        else:
            hi = s if hi is None else min(hi, s)
    if lo is None or hi is None or lo > hi:
        return None
    return (
        vadd(p0, vscale(lo, direction)),
        vadd(p0, vscale(hi, direction)),
    )


def fixed_subcomplex(f: PLMap) -> FixedLocus:
    if f.base.dim == 2:
        raw = _refine_cells_2d(f)
    else:
        raw = _refine_cells_1d(f)
    pts, sims = index_cells(cell for cell, _ in raw)
    prov: Dict[SimplexT, int] = dict(zip(sims, (home for _, home in raw)))
    refined = Complex.trusted(pts, sims, f.base.connected_flag)
    # a refined cell lies in the refinement cell it was cut from, where f
    # is that cell's affine piece
    fixed: Dict[Point, bool] = {}
    for cell, home in raw:
        for p in cell:
            if p not in fixed:
                fixed[p] = f.eval_in_cell(home, p) == p
    fixed_vertex = [fixed[p] for p in pts]
    fix_faces = set()
    for s in refined.simplices:
        if all(fixed_vertex[v] for v in s):
            fix_faces.add(s)
        else:
            for k in (2, 1):
                for face in combinations(s, k):
                    if all(fixed_vertex[v] for v in face):
                        fix_faces.add(face)
    cells = SubComplex(refined, fix_faces) if fix_faces else SubComplex(refined, [])
    return FixedLocus(refined=refined, cells=cells, provenance=prov)


def _refine_cells_1d(f: PLMap):
    raw = []
    for ci, s in enumerate(f.refinement.simplices):
        a, b = (f.refinement.points[v] for v in s)
        fa, fb = (f.images[v] for v in s)
        kind, x = _edge_fix(f, a, b, fa, fb)
        if kind == "point" and x != a and x != b:
            raw.append(((a, x), ci))
            raw.append(((x, b), ci))
        else:
            raw.append(((a, b), ci))
    return raw


def _refine_cells_2d(f: PLMap):
    # one pass over edges for their (at most one) isolated fixed cut point
    edge_cut: Dict[Tuple[Point, Point], Optional[Point]] = {}
    for s in f.refinement.simplices:
        for i in range(3):
            va, vb = s[i], s[(i + 1) % 3]
            pa, pb = f.refinement.points[va], f.refinement.points[vb]
            key = tuple(sorted((pa, pb)))
            if key in edge_cut:
                continue
            kind, x = _edge_fix(f, pa, pb, f.images[va], f.images[vb])
            if kind == "point" and x not in key:
                edge_cut[key] = x
            else:
                edge_cut[key] = None
    raw = []
    for ci, s in enumerate(f.refinement.simplices):
        tri = [f.refinement.points[v] for v in s]
        if orient2(*tri) < 0:
            tri = [tri[0], tri[2], tri[1]]
        poly = []
        for i in range(3):
            a, b = tri[i], tri[(i + 1) % 3]
            poly.append(a)
            cut = edge_cut[tuple(sorted((a, b)))]
            if cut is not None:
                poly.append(cut)
        feature = _cell_fix_2d(f, s)
        for cell in _triangulate_with_feature(poly, feature):
            raw.append((cell, ci))
    return raw


def _triangulate_with_feature(poly, feature):
    kind, data = feature
    if kind == "point":
        x = data
        out = []
        for i in range(len(poly)):
            a, b = poly[i], poly[(i + 1) % len(poly)]
            out.append((x, a, b))
        return out
    if kind == "chord":
        x, y = data
        try:
            i = poly.index(x)
            j = poly.index(y)
        except ValueError as exc:  # chord endpoints are always polygon vertices
            raise InternalError("chord endpoint missing from cell boundary") from exc
        if i > j:
            i, j = j, i
        side1 = poly[i:j + 1]
        side2 = poly[j:] + poly[:i + 1]
        out = []
        for part in (side1, side2):
            if len(part) >= 3 and polygon_area2(part) != 0:
                out.extend(triangulate_convex(part))
        return out
    return triangulate_convex(poly)


def frontier(fl: FixedLocus) -> SubComplex:
    """Cells of Fix whose star contains a top cell outside Fix, face-closed."""
    fix = set(fl.cells.simplices)
    out = []
    top_dim = fl.refined.dim
    for c in fl.cells.simplices:
        if len(c) - 1 == top_dim:
            continue
        cset = set(c)
        for s in fl.refined.simplices:
            if cset <= set(s) and s not in fix:
                out.append(c)
                break
    return SubComplex(fl.refined, out)


def _is_closed_manifold(sub: SubComplex) -> bool:
    """Dim 0: always closed; dim 1: pure with every vertex of edge-degree 2."""
    if not sub.simplices:
        return False
    if sub.max_dim() == 0:
        return True
    if sub.max_dim() == 1:
        deg = sub.vertex_degrees()
        return all(d == 2 for d in deg.values())
    return False


def canonical_invariant(fl: FixedLocus) -> CanonicalInvariant:
    if fl.is_empty():
        raise FixIsEmpty("the map has no fixed point")
    if fl.is_everything():
        raise FixIsEverything("the map is the identity")
    fr = frontier(fl)
    if _is_closed_manifold(fr):
        return CanonicalInvariant(n_f=fr, derivation_depth=1)
    deg = fr.vertex_degrees()
    pts = [v for v, d in deg.items() if d != 2]
    return CanonicalInvariant(
        n_f=SubComplex(fl.refined, [(v,) for v in pts]), derivation_depth=2
    )


@dataclass(frozen=True)
class FullerResult:
    k: Optional[int]
    witness_cell: Optional[SimplexT]
    witness_points: Optional[Tuple[Point, ...]]
    euler_char: int


def fuller_search(f: PLMap, kmax: int) -> FullerResult:
    """Smallest k <= kmax with Fix(f^k) nonempty, with a witness cell."""
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    chi = euler_characteristic(f.base)
    g = f
    for k in range(1, kmax + 1):
        fl = fixed_subcomplex(g)
        if not fl.is_empty():
            best = max(fl.cells.simplices, key=len)
            pts = tuple(fl.refined.points[v] for v in best)
            return FullerResult(k=k, witness_cell=best, witness_points=pts,
                                euler_char=chi)
        if k < kmax:
            g = compose2d(f, g)
    return FullerResult(k=None, witness_cell=None, witness_points=None,
                        euler_char=chi)
