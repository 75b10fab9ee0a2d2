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
and isolated fixed point appended as a new id with its flag.  All of it
is computed on rows, with no `Fraction`: displacements, cut parameters on
cross-multiplied coordinates, and new points by `geometry.hom_barycentre`.
An edge is cut only when f moves both its ends, and its cut is shared by
the cells on both sides.  A cell with no cut is left whole, or coned from
its isolated fixed point; one with at most one moved vertex has no edge
to cut and no isolated fixed point, and is left whole untested.
`overlay.numbered`, the one numbering of derived refinements, sorts the
ids into coordinate order on their rows; `fixed_subcomplex` proves that
no two ids hold one point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .clip import convex_fan
from .complexes import Complex, SimplexT, SubComplex, euler_characteristic, faces_of
from .errors import FixIsEmpty, FixIsEverything
from .geometry import Hom, Point, affine_point, cross2, hom_barycentre
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


def _displacement(p: Hom, q: Hom) -> Hom:
    """q - p for the rows p, q, as the row (X_q W_p - X_p W_q, ..., W_p W_q)."""
    (*x, wp), (*y, wq) = p, q
    return (*(b * wp - a * wq for a, b in zip(x, y)), wp * wq)


def _edge_cut(a: Hom, b: Hom, fa: Hom, fb: Hom) -> Optional[Hom]:
    """The row of the fixed point strictly inside [a, b] of the affine map
    taking a to fa and b to fb (all rows), when it fixes one point of the
    line.  Displacement coordinate k vanishes at t = u / (u - v) along
    a -> b, for its values u, v at a and b over one W: inside iff u v < 0."""
    (*da, wa), (*db, wb) = _displacement(a, fa), _displacement(b, fb)
    n = m = 0  # t = n / m
    for c0, c1 in zip(da, db):
        u, v = c0 * wb, c1 * wa
        if u == v:
            if u:
                return None
        elif not m:
            n, m = u, u - v
        elif n * (u - v) != u * m:
            return None
    if not m or n * (n - m) >= 0:
        return None
    return hom_barycentre((m - n, n), (a, b))


def _interior_fixed_point(tri: List[Hom], images: List[Hom]) -> Optional[Hom]:
    """The row of the affine map's only fixed point, when it has one
    strictly inside the triangle; the corners and their ``images`` are rows.

    The weights lam = (d1 x d2, d2 x d0, d0 x d1) of the displacements d_i
    (over the product of their W) satisfy sum lam_i d_i = 0, so the
    displacement vanishes at sum lam_i p_i / sum lam_i; the sum is
    det(A - I) times twice the signed area, zero exactly when the fixed set
    is not one point.  The point is strictly inside when every weight has
    the sign of the sum.
    """
    d0, d1, d2 = map(_displacement, tri, images)
    lam = (cross2(d1, d2) * d0[-1], cross2(d2, d0) * d1[-1], cross2(d0, d1) * d2[-1])
    total = sum(lam)
    if total == 0 or any(w * total <= 0 for w in lam):
        return None
    return hom_barycentre(lam, tri)


class _Refinement:
    """The refined complex under construction, on vertex ids: the ids of
    f's refinement first, then each new point as it is appended, with its
    `homogeneous` row and one fixed flag per id, and each raw cell as an
    id tuple with the index of the refinement cell it was cut from."""

    def __init__(self, f: PLMap):
        self.f = f
        self.homs: List[Hom] = list(f.refinement.hom_points())
        self.images = f.image.hom_points()
        self.fixed = [q == p for p, q in zip(self.homs, self.images)]
        self.cuts: Dict[Tuple[int, int], Optional[int]] = {}  # edge -> the id of its cut
        self.cells: List[Tuple[int, ...]] = []
        self.homes: List[int] = []

    def add_point(self, h: Hom, fixed: bool) -> int:
        self.homs.append(h)
        self.fixed.append(fixed)
        return len(self.homs) - 1

    def cut(self, u: int, v: int) -> Optional[int]:
        """The id of the edge cut of [u, v], a new fixed point made once per
        edge, or None.  An edge with a fixed end has none: the displacement
        along it is linear and vanishes at that end."""
        if self.fixed[u] or self.fixed[v]:
            return None
        key = (u, v) if u < v else (v, u)
        if key not in self.cuts:
            x = _edge_cut(self.homs[u], self.homs[v], self.images[u], self.images[v])
            self.cuts[key] = None if x is None else self.add_point(x, True)
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
    x = _interior_fixed_point([r.homs[v] for v in s], [r.images[v] for v in s])
    if x is None:
        return [s]
    c = r.add_point(x, True)
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
