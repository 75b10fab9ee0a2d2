"""Fixed-point subcomplexes, the canonical invariant submanifold, and
periodic-point search.

The fixed set of a simplicial-affine map meets each cell in nothing, a
point, a chord, or the whole cell.  We rebuild the domain as a finer
complex in which all those features are genuine faces; the fixed locus is
then exactly the faces whose vertices are all fixed (the map is affine on
every cell, so two fixed vertices pin the whole edge, three the whole
triangle).  Frontier and invariant-submanifold computations become purely
combinatorial on that complex.  The finer complex is valid by construction
and built trusted, and whether f fixes each of its vertices is read off
the flags below, with no evaluation of f.

Each cell's feature is read off its boundary.  An edge on which f fixes
exactly one point strictly inside is cut there, and each vertex of the
cell's cut polygon is flagged when f fixes it: a triangle vertex whose
image is itself, and every cut point.  The fixed set is convex, so its
boundary points are flagged vertices (or lie on a side between two of
them): two flags bound a chord; one flag, or three or more (the whole
cell), leave nothing inside; and with no flag the only feature left is an
isolated fixed point strictly inside the cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .clip import triangulate_convex
from .complexes import (Complex, SimplexT, SubComplex, euler_characteristic,
                        faces_of, index_cells)
from .errors import FixIsEmpty, FixIsEverything
from .geometry import Point, cross2, orient2, vadd, vscale, vsub
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


def _edge_cut(a: Point, b: Point, fa: Point, fb: Point) -> Optional[Point]:
    """The fixed point of the affine map along [a, b] strictly inside the
    segment, when the map fixes exactly one point of the segment's line."""
    # displacement(t) = da + t (db - da); zero set of each coordinate
    t: Optional[Fraction] = None
    for c0, c1 in zip(vsub(fa, a), vsub(fb, b)):
        if c0 == c1:
            if c0 != 0:
                return None
        elif t is None:
            t = Fraction(c0, c0 - c1)
        elif t != Fraction(c0, c0 - c1):
            return None
    if t is None or not 0 < t < 1:
        return None
    return vadd(a, vscale(t, vsub(b, a)))


def _interior_fixed_point(tri, images) -> Optional[Point]:
    """The fixed point of the affine map strictly inside a triangle, when
    it is the map's only fixed point.

    With displacements d_i = f(p_i) - p_i, the weights
    lam = (d1 x d2, d2 x d0, d0 x d1) satisfy sum lam_i d_i = 0, so the
    displacement vanishes at sum lam_i p_i / sum lam_i; the sum is
    det(A - I) times twice the signed area, zero exactly when the fixed
    set is not one point.  The point is strictly inside when every weight
    has the sign of the sum.
    """
    d0, d1, d2 = (vsub(q, p) for p, q in zip(tri, images))
    lam = (cross2(d1, d2), cross2(d2, d0), cross2(d0, d1))
    total = sum(lam)
    if total == 0 or any(w * total <= 0 for w in lam):
        return None
    return tuple(sum(w * p[k] for w, p in zip(lam, tri)) / total for k in range(2))


def fixed_subcomplex(f: PLMap) -> FixedLocus:
    fixed: Dict[Point, bool] = {}
    if f.base.dim == 2:
        raw = _refine_cells_2d(f, fixed)
    else:
        raw = _refine_cells_1d(f, fixed)
    pts, sims = index_cells(cell for cell, _ in raw)
    prov: Dict[SimplexT, int] = dict(zip(sims, (home for _, home in raw)))
    refined = Complex.trusted(pts, sims, f.base.connected_flag)
    fixed_vertex = [fixed[p] for p in pts]
    fix_faces = [face for s in refined.simplices for face in faces_of(s)
                 if all(fixed_vertex[v] for v in face)]
    return FixedLocus(refined=refined, cells=SubComplex(refined, fix_faces),
                      provenance=prov)


def _refine_cells_1d(f: PLMap, fixed: Dict[Point, bool]):
    raw = []
    for ci, s in enumerate(f.refinement.simplices):
        a, b = (f.refinement.points[v] for v in s)
        fa, fb = (f.images[v] for v in s)
        fixed[a], fixed[b] = fa == a, fb == b
        x = _edge_cut(a, b, fa, fb)
        if x is not None:
            fixed[x] = True
        for cell in [(a, b)] if x is None else [(a, x), (x, b)]:
            raw.append((cell, ci))
    return raw


def _refine_cells_2d(f: PLMap, fixed: Dict[Point, bool]):
    pts, images = f.refinement.points, f.images
    cuts: Dict[Tuple[int, int], Optional[Point]] = {}  # edge -> its edge cut
    raw = []
    for ci, s in enumerate(f.refinement.simplices):
        if orient2(*(pts[v] for v in s)) < 0:
            s = (s[0], s[2], s[1])
        # the cut polygon, each vertex flagged when f fixes it
        poly, flags = [], []
        for i in range(3):
            u, v = s[i], s[(i + 1) % 3]
            poly.append(pts[u])
            flags.append(images[u] == pts[u])
            key = (min(u, v), max(u, v))
            if key not in cuts:
                cuts[key] = _edge_cut(pts[u], pts[v], images[u], images[v])
            if cuts[key] is not None:
                poly.append(cuts[key])
                flags.append(True)
        for cell in _triangulate_with_feature(poly, flags, [images[v] for v in s], fixed):
            raw.append((cell, ci))
    return raw


def _triangulate_with_feature(poly, flags, images, fixed: Dict[Point, bool]):
    """Cells of a counter-clockwise cut polygon with the cell's fixed set
    among their faces, read off the flags (see the module docstring), and
    the flag of each of their vertices put in ``fixed``.  Two flags that
    are the ends of one side split off a part with two points and no
    cells, so the whole polygon is triangulated as when nothing is
    inside."""
    ends = [i for i, flag in enumerate(flags) if flag]
    if len(ends) == 2:
        i, j = ends
        return (_triangulate_flagged(poly[i:j + 1], flags[i:j + 1], fixed)
                + _triangulate_flagged(poly[j:] + poly[:i + 1], flags[j:] + flags[:i + 1], fixed))
    x = None if ends else _interior_fixed_point(poly, images)
    if x is None:
        return _triangulate_flagged(poly, flags, fixed)
    fixed.update(zip(poly, flags))
    fixed[x] = True
    return [(x, poly[i], poly[(i + 1) % 3]) for i in range(3)]


def _triangulate_flagged(part, flags, fixed: Dict[Point, bool]):
    """`triangulate_convex` of a part of a cut polygon, with the flags of
    its vertices put in ``fixed``.  A centroid that it adds lies strictly
    inside the part, which holds no fixed point unless f fixes the whole
    part, so it is fixed exactly when every vertex of the part is."""
    fixed.update(zip(part, flags))
    cells = triangulate_convex(part)
    for cell in cells:
        for p in cell:
            fixed.setdefault(p, all(flags))
    return cells


def frontier(fl: FixedLocus) -> SubComplex:
    """Cells of Fix that are faces of a top cell outside Fix, face-closed."""
    fix = set(fl.cells.simplices)
    return SubComplex(fl.refined, [face for s in fl.refined.simplices if s not in fix
                                   for face in faces_of(s) if face in fix])


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
