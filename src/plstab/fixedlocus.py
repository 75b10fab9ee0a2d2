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

The refinement is built on integer vertex ids, each with its point's
`homogeneous` row: the ids of f's refinement, each with one fixed flag
(f's image row of the vertex is its row), then every edge cut, centroid
and isolated fixed point appended as a new id with its flag.  Cuts are
solved in Fractions, on the image rows they read, and enter as rows.  An
edge is cut only when f moves both its ends, from displacements computed
once per vertex, and its cut is shared by the cells on both sides.  A
cell with no cut is left whole, or coned from its isolated fixed point;
one with at most one moved vertex has no edge to cut and no isolated
fixed point, and is left whole untested.  `overlay.numbered`, the one
numbering of derived refinements, sorts the ids into coordinate order on
their rows;
`fixed_subcomplex` proves that no two ids hold one point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .clip import convex_fan
from .complexes import Complex, SimplexT, SubComplex, euler_characteristic, faces_of
from .errors import FixIsEmpty, FixIsEverything
from .geometry import Hom, Point, affine_point, cross2, homogeneous, vadd, vscale, vsub
from .overlay import numbered
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


def _edge_cut(a: Point, b: Point, da: Point, db: Point) -> Optional[Point]:
    """The fixed point strictly inside [a, b] of the affine map with
    displacements da at a and db at b, when it fixes exactly one point of
    the segment's line."""
    # displacement(t) = da + t (db - da); zero set of each coordinate
    t: Optional[Fraction] = None
    for c0, c1 in zip(da, db):
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


def _interior_fixed_point(tri, disps) -> Optional[Point]:
    """The fixed point of the affine map strictly inside a triangle, when
    it is the map's only fixed point; ``disps`` are the displacements
    f(p_i) - p_i at the corners.

    The weights lam = (d1 x d2, d2 x d0, d0 x d1) satisfy
    sum lam_i d_i = 0, so the displacement vanishes at
    sum lam_i p_i / sum lam_i; the sum is det(A - I) times twice the signed
    area, zero exactly when the fixed set is not one point.  The point is
    strictly inside when every weight has the sign of the sum.
    """
    d0, d1, d2 = disps
    lam = (cross2(d1, d2), cross2(d2, d0), cross2(d0, d1))
    total = sum(lam)
    if total == 0 or any(w * total <= 0 for w in lam):
        return None
    return tuple(sum(w * p[k] for w, p in zip(lam, tri)) / total for k in range(2))


class _Refinement:
    """The refined complex under construction, on vertex ids: the ids of
    f's refinement first, then each new point as it is appended, with its
    `homogeneous` row and one fixed flag per id, and each raw cell as an
    id tuple with the index of the refinement cell it was cut from."""

    def __init__(self, f: PLMap):
        self.f = f
        self.homs: List[Hom] = list(f.refinement.hom_points())
        self.fixed = [q == p for p, q in zip(self.homs, f.image.hom_points())]
        self.disps: List[Optional[Point]] = [None] * len(self.homs)
        self.cuts: Dict[Tuple[int, int], Optional[int]] = {}  # edge -> the id of its cut
        self.cells: List[Tuple[int, ...]] = []
        self.homes: List[int] = []

    def add_point(self, h: Hom, fixed: bool) -> int:
        self.homs.append(h)
        self.fixed.append(fixed)
        return len(self.homs) - 1

    def disp(self, v: int) -> Point:
        """f(p) - p at a vertex of f's refinement, computed once."""
        d = self.disps[v]
        if d is None:
            d = self.disps[v] = vsub(affine_point(self.f.image.hom_points()[v]),
                                     self.f.refinement.points[v])
        return d

    def cut(self, u: int, v: int) -> Optional[int]:
        """The id of the edge cut of [u, v], a new fixed point made once per
        edge, or None.  An edge with a fixed end has none: the displacement
        along it is linear and vanishes at that end."""
        if self.fixed[u] or self.fixed[v]:
            return None
        key = (u, v) if u < v else (v, u)
        if key not in self.cuts:
            a, b = self.f.refinement.points[u], self.f.refinement.points[v]
            x = _edge_cut(a, b, self.disp(u), self.disp(v))
            self.cuts[key] = None if x is None else self.add_point(homogeneous(x), True)
        return self.cuts[key]

    def emit(self, cells, home: int):
        self.cells += cells
        self.homes += [home] * len(cells)


def fixed_subcomplex(f: PLMap) -> FixedLocus:
    """Fix(f) as the faces with all vertices fixed of a refinement of f's
    refinement (see the module docstring).

    No two ids hold one point, so the refinement is a complex with its
    points in coordinate order.  The vertices of f's refinement are distinct.
    An edge cut lies strictly inside its edge, and one memo gives each edge
    one cut, so it is no vertex and no other edge's cut: the open edges of
    a complex are disjoint.  A centroid lies strictly inside a part of a
    cut polygon, whose interior lies in the cell's and misses the other
    part's, so it is on no edge and apart from every other new point.  An
    isolated fixed point lies strictly inside a cell with no cut, which
    gets no centroid."""
    r = _Refinement(f)
    if f.base.dim == 2:
        _refine_cells_2d(r)
    else:
        _refine_cells_1d(r)
    refined, provenance, order = numbered(r.homs, r.cells, r.homes)
    fixed = [r.fixed[v] for v in order]
    # a face is fixed iff its vertices are, so the fixed vertices of each
    # cell span its largest fixed face
    fix_faces = [face for face in (tuple(v for v in s if fixed[v]) for s in refined.simplices)
                 if face]
    return FixedLocus(refined=refined, cells=SubComplex(refined, fix_faces),
                      provenance=provenance)


def _refine_cells_1d(r: _Refinement):
    for ci, (u, v) in enumerate(r.f.refinement.simplices):
        x = r.cut(u, v)
        r.emit([(u, v)] if x is None else [(u, x), (x, v)], ci)


def _refine_cells_2d(r: _Refinement):
    fixed, signs = r.fixed, r.f.refinement.orientations()
    for ci, s in enumerate(r.f.refinement.simplices):
        if fixed[s[0]] + fixed[s[1]] + fixed[s[2]] >= 2:
            # no edge has two moved ends to cut: left whole (`_uncut_cell`)
            r.emit([s], ci)
            continue
        poly = []  # the cut polygon, as ids
        for i in range(3):
            poly.append(s[i])
            x = r.cut(s[i], s[(i + 1) % 3])
            if x is not None:
                poly.append(x)
        if len(poly) == 3:
            r.emit(_uncut_cell(r, s), ci)
            continue
        if signs[ci] < 0:
            poly.reverse()
        ends = [i for i, v in enumerate(poly) if fixed[v]]
        if len(ends) == 2:
            i, j = ends
            cells = _triangulate(r, poly[i:j + 1]) + _triangulate(r, poly[j:] + poly[:i + 1])
        else:
            cells = _triangulate(r, poly)
        r.emit(cells, ci)


def _uncut_cell(r: _Refinement, s):
    """The cells of a refinement cell with no edge cut: coned from its
    isolated fixed point when f moves all three vertices and fixes one
    point strictly inside, and else the cell itself, which then holds its
    fixed set as a face (a flagged vertex or side, or the whole cell)."""
    if any(r.fixed[v] for v in s):
        return [s]
    x = _interior_fixed_point([r.f.refinement.points[v] for v in s], [r.disp(v) for v in s])
    if x is None:
        return [s]
    c = r.add_point(homogeneous(x), True)
    return [(c, s[0], s[1]), (c, s[1], s[2]), (c, s[2], s[0])]


def _triangulate(r: _Refinement, part):
    """`convex_fan` of a counter-clockwise part of a cut polygon, as id
    cells.  A centroid that it adds lies strictly inside the part, which
    holds no fixed point unless f fixes the whole part, so it is fixed
    exactly when every vertex of the part is."""
    tris, c = convex_fan([r.homs[v] for v in part])
    if c is not None:
        part = part + [r.add_point(c, all(r.fixed[v] for v in part))]
    return [(part[i], part[j], part[k]) for i, j, k in tris]


def frontier(fl: FixedLocus) -> SubComplex:
    """Cells of Fix that are faces of a top cell outside Fix, face-closed."""
    fix = set(fl.cells.simplices)
    return SubComplex(fl.refined, [face for s in fl.refined.simplices if s not in fix
                                   for face in faces_of(s) if face in fix])


def canonical_invariant(fl: FixedLocus) -> CanonicalInvariant:
    if fl.is_empty():
        raise FixIsEmpty("the map has no fixed point")
    if fl.is_everything():
        raise FixIsEverything("the map is the identity")
    fr = frontier(fl)
    deg = fr.vertex_degrees()
    # the frontier, proper faces of cells, is a closed manifold when it is
    # points, or edges with every vertex of edge-degree 2
    if fr.simplices and (fr.max_dim() == 0 or all(d == 2 for d in deg.values())):
        return CanonicalInvariant(n_f=fr, derivation_depth=1)
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
            pts = tuple(affine_point(fl.refined.hom_points()[v]) for v in best)
            return FullerResult(k=k, witness_cell=best, witness_points=pts,
                                euler_char=chi)
        if k < kmax:
            g = compose2d(f, g)
    return FullerResult(k=None, witness_cell=None, witness_points=None,
                        euler_char=chi)
