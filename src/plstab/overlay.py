"""The one builder of refinements derived from two triangulations of the
same realization, the one realization test, and the one cell-pair kernel
under them.

:func:`triangle_pieces` and :func:`segment_pieces` yield, for every pair
of cells of two inputs whose interiors meet, their intersection: a convex
polygon for triangles, the overlap's two end points for segments.  Each
clips only the pairs whose interiors meet.  Overlay, composition, map
equality and the realization checks of `plmap` all go through them, so
they are the only callers of `triangle_intersection` and
`collinear_overlap`.

:func:`realized_pieces` is the one realization test: it collects the
pieces of two complexes and accounts, cell by cell, for how much of each
cell they cover (area for triangles, `extent` for segments), raising
`RealizationMismatch` unless both inputs are covered, that is unless they
realize one set.  `overlay` builds on it, and so do the refinement and
image checks of `PLMap(...)`.

`triangle_pieces` walks the tiling: each cell of the first input starts
from the hits of a neighbour visited before it and grows across the
second input's edges, so the work is linear in the cells and their pairs
(`_walked_pairs`).  Its meets-tests and its clip decide on the cells of
`Complex.hom_cells`, and its pieces are integer `homogeneous` rows, as
are the overlap ends of `segment_pieces`.  It tests a cell against all
cells of the second input only where the walk cannot seed or close: a
first cell of each edge-connected part, a cell with no hit near its
neighbour's, or an edge of a hit that no other cell shares crossing the
cell.  Segments enumerate the pairs of `candidate_pairs` on their boxes.

:func:`refine` builds every refinement derived from pieces (overlay,
composite, inverse, equality): it triangulates them, interns each row
once, and numbers the rows with `numbered`, which the fixed locus
shares, in sorted coordinate order, compared by `geometry.hom_cmp`; no
`Fraction` is built.  `overlay` refines the pieces of
`realized_pieces`; the others, whose inputs realize one set by
construction, those of `cell_pieces`.  Each piece carries a cut polygon,
at whose points :meth:`Overlay.at_vertices`, the one vertex-value rule of
derived maps, reads the vertices' values.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Dict, Iterator, List, Optional, Tuple

from .clip import convex_fan, polygon_area2, polygon_centroid, triangle_intersection
from .complexes import Complex, SimplexT, ccw_triangles_meet, segment_meets_ccw_triangle
from .errors import RealizationMismatch
from .geometry import Hom, bbox, candidate_pairs, collinear_overlap, extent, hom_cmp


@dataclass(frozen=True)
class Overlay:
    """A triangulation refining two inputs, with per-cell provenance.

    ``provenance[s]`` gives, for each maximal simplex ``s`` of ``cells``,
    the pair (index into t1.simplices, index into t2.simplices) of the
    input simplices containing it; ``cuts[v]`` the pair of the first piece
    that made vertex v, and the row of v's cut point there."""

    cells: Complex
    provenance: Dict[SimplexT, Tuple[int, int]]
    cuts: Tuple[Tuple[int, int, Hom], ...]

    def at_vertices(self, value) -> Iterator:
        """``value(i1, i2, c)`` at each vertex's ``cuts`` entry, lazily in
        vertex order; for a continuous map affine on each piece, every piece
        at the vertex agrees."""
        return (value(*cut) for cut in self.cuts)


def refine(pieces) -> Overlay:
    """The trusted refinement of interior-disjoint ``pieces`` (i1, i2, poly,
    cut), polygons as `homogeneous` rows: `convex_fan` of each polygon (a
    segment kept whole), its cells from the pair (i1, i2).  ``cut`` holds
    the cut point of each vertex of ``poly``, a fan centroid the centroid
    of ``cut`` (its image, as ``cut`` is an affine image of ``poly``).
    Each row gets one id, with the first piece's cut."""
    ids: Dict[Hom, int] = {}
    points: List[Hom] = []
    cuts, cells, pairs = [], [], []
    for i1, i2, poly, cut in pieces:
        tris, c = convex_fan(poly) if len(poly) > 2 else ([(0, 1)], None)
        if c is not None:
            poly, cut = [*poly, c], [*cut, polygon_centroid(cut)]
        vs = []
        for h, x in zip(poly, cut):
            v = ids.setdefault(h, len(points))
            if v == len(points):
                points.append(h)
                cuts.append((i1, i2, x))
            vs.append(v)
        cells += [tuple(vs[k] for k in tri) for tri in tris]
        pairs += [(i1, i2)] * len(tris)
    refined, provenance, order = numbered(points, cells, pairs)
    return Overlay(refined, provenance, tuple(cuts[v] for v in order))


def numbered(homs, cells, provenance):
    """The trusted complex of the id tuples ``cells`` over the distinct
    points of the `homogeneous` rows ``homs``, its vertices numbered in
    sorted coordinate order and its simplices sorted; the dict of
    ``provenance[k]`` by the simplex of cell k, in simplex order; and the
    id of each vertex, in vertex order.

    One sort of the ids, by `geometry.hom_cmp` on the rows, on ints."""
    key = cmp_to_key(hom_cmp)
    order = sorted(range(len(homs)), key=lambda v: key(homs[v]))
    rank = [0] * len(order)
    for k, v in enumerate(order):
        rank[v] = k
    by_simplex = dict(sorted(zip([tuple(sorted([rank[v] for v in cell])) for cell in cells],
                                 provenance)))
    return Complex.trusted([homs[v] for v in order], list(by_simplex)), by_simplex, order


def overlay(t1: Complex, t2: Complex) -> Overlay:
    """The common refinement of two complexes that `realized_pieces` finds
    to realize one set."""
    return refine((i1, i2, p, p) for i1, i2, p in realized_pieces(t1, t2))


def cell_pieces(t1: Complex, t2: Complex):
    """`segment_pieces` of the cells of two 1-complexes, or `triangle_pieces`."""
    if t1.dim == 1:
        return segment_pieces(t1, t2)
    return triangle_pieces(t1, t2)


def realized_pieces(t1: Complex, t2: Complex,
                    uncovered=("first input is not fully covered",
                               "second input is not fully covered")):
    """The (i1, i2, piece) triples of `segment_pieces` or `triangle_pieces`
    for two complexes, after the cover accounting has found that they
    realize one set; otherwise `RealizationMismatch` with ``uncovered[0]``
    when a cell of ``t1`` is not covered by its pieces, or with
    ``uncovered[1]`` when a cell of ``t2`` is not.

    The pieces of a cell are its intersections with the interior-disjoint
    cells of the other input, so they cover it iff their measures add up
    to its own: |`polygon_area2`| for a triangle, the `extent` along the
    cell's line for a segment, both on the rows of the points.  Once both
    inputs pass, the walk of `triangle_pieces` is complete, and a cell
    whose interior meets one cell of the other input alone lies in it: the
    rest of its interior would be an open set covered by lower-dimensional
    faces only."""
    if t1.dim != t2.dim or t1.ambient_dim != t2.ambient_dim:
        raise RealizationMismatch("inputs have different dimensions")
    pieces = list(cell_pieces(t1, t2))
    measure = extent if t1.dim == 1 else lambda poly: abs(polygon_area2(poly))
    measures = [measure(poly) for _, _, poly in pieces]
    own = [[measure([t.hom_points()[v] for v in s]) for s in t.simplices] for t in (t1, t2)]
    covered = [[Fraction(0)] * len(t.simplices) for t in (t1, t2)]
    for (i1, i2, _), m in zip(pieces, measures):
        covered[0][i1] += m
        covered[1][i2] += m
    for cover, cells, message in zip(covered, own, uncovered):
        if cover != cells:
            raise RealizationMismatch(message)
    return pieces


# -- 1D ------------------------------------------------------------------


def segment_pieces(t1: Complex, t2: Complex):
    """(i1, i2, (p, q)) for each pair of a segment of ``t1`` and one of
    ``t2`` that overlap in positive length (among the `candidate_pairs` of
    their boxes): the rows of its ends, in the direction of segment i1."""
    rows1, rows2 = ([[t.hom_points()[v] for v in s] for s in t.simplices] for t in (t1, t2))
    for i1, i2 in candidate_pairs([bbox(s) for s in t1.cells()], [bbox(s) for s in t2.cells()]):
        piece = collinear_overlap(*rows1[i1], *rows2[i2])
        if piece is not None:
            yield i1, i2, piece


# -- 2D ------------------------------------------------------------------


def triangle_pieces(t1: Complex, t2: Complex):
    """(i1, i2, polygon) for each pair of a triangle of ``t1`` and one of
    ``t2`` whose interiors meet: their intersection, a counter-clockwise
    convex polygon of `homogeneous` rows.  The pairs come from a walk
    (`_walked_pairs`) over the two complexes' `Complex.hom_cells`,
    counter-clockwise, as the meets-tests and `triangle_intersection` take
    them: no cell is oriented here."""
    cells1, cells2 = t1.hom_cells(), t2.hom_cells()
    for i1, i2 in _walked_pairs(t1, t2, cells1, cells2):
        yield i1, i2, triangle_intersection(cells1[i1], cells2[i2])


def _walked_pairs(t1: Complex, t2: Complex, cells1, cells2):
    """The pairs (i1, i2) of cells of two 2-complexes whose interiors
    meet, cell of ``t1`` by cell; ``cells1`` and ``cells2`` are the cells
    counter-clockwise, as `geometry.HomCell`s.

    The cells of ``t1`` are visited breadth first over edge adjacency.  A
    cell T with a parent P, the visited neighbour it shares an edge e with,
    starts from P's hits (the cells of ``t2`` whose interiors meet P's): a
    cell of ``t2`` over a point of e's relative interior meets both T and
    P, and where e runs along edges of ``t2`` the cell across such an edge
    meets T and neighbours one that meets P.  So the hits of T are among
    P's hits and their edge neighbours when both inputs tile one region.
    From the first hits it grows across edges: every neighbour of a hit is
    tested, and becomes a hit when its interior meets T's.

    That search finds every hit once some hit is found and no boundary
    edge of a hit (an edge no other cell of ``t2`` shares) crosses T's
    interior.  Then the hits cover T: a point of T's interior outside
    them would leave a boundary point of their union inside T off all
    vertices, in the relative interior of a hit's edge; the cell across
    that edge is a hit too, so the point is inside the union after all.
    Cells with disjoint interiors cover no open set twice, so no cell
    outside the hits meets T's interior.  Otherwise (a root of the walk,
    which has no parent; no hit found; or a boundary edge of ``t2``
    across T) T is tested against every cell of ``t2``.  That covers bases
    that are disconnected or pinched at a vertex, and inputs that do not
    tile one region.
    """
    across1, across2 = t1.neighbours(), t2.neighbours()
    homs2, simplices2 = t2.hom_points(), t2.simplices

    def unshared_edge_crosses(i1, hits):
        for j in hits:
            a, b, c = simplices2[j]
            for (u, v), other in zip(((a, b), (b, c), (a, c)), across2[j]):
                if other is None and segment_meets_ccw_triangle(
                        homs2[u], homs2[v], cells1[i1]):
                    return True
        return False

    def hits_of(i1, seeds, tested):
        hits, todo = [], list(seeds)
        while todo:
            j = todo.pop()
            if j in tested:
                continue
            tested.add(j)
            if ccw_triangles_meet(cells1[i1], cells2[j]):
                hits.append(j)
                todo.extend(k for k in across2[j] if k is not None and k not in tested)
        return hits

    def scan(i1):
        return [j for j in range(len(cells2)) if ccw_triangles_meet(cells1[i1], cells2[j])]

    found: List[Optional[List[int]]] = [None] * len(cells1)
    for root in range(len(cells1)):
        if found[root] is not None:
            continue
        found[root] = scan(root)
        queue = deque([root])
        while queue:
            i1 = queue.popleft()
            yield from ((i1, j) for j in found[i1])
            for child in across1[i1]:
                if child is None or found[child] is not None:
                    continue
                parent_hits, tested = found[i1], set()
                hits = hits_of(child, parent_hits, tested)
                if not hits:
                    hits = hits_of(child, [k for j in parent_hits for k in across2[j]
                                           if k is not None], tested)
                if not hits or unshared_edge_crosses(child, hits):
                    hits = scan(child)
                found[child] = hits
                queue.append(child)
