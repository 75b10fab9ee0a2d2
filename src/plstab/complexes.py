"""Triangulated 1- and 2-manifolds, or pinched planar ones, with exact rationals.

A :class:`Complex` is validated eagerly at construction; everything
downstream is allowed to assume the invariants (pure, manifold-with-boundary
face condition, distinct vertex points, nondegenerate cells that meet in
common faces, so with disjoint interiors).  Connectivity is not among
them: only the certifier needs a connected base, and checks it itself.
Vertex indices are 0-based and stable, and all iteration orders are sorted
so outputs are reproducible.

In the plane, the cells are first offered to a boundary-cycle certificate
(:func:`_boundary_certificate`): no cell folds over a neighbour, and the
boundary edges form one simple polygon.  By a winding-number argument
that puts every point in at most one cell, in O(cells + boundary edge
pairs), the polygon test sweeping its sides' integer boxes.  The
all-pairs tests run only for the complexes it does not accept, so they
alone decide which error a rejected complex raises.

A complex stores its points as integer `geometry.homogeneous` rows
(`Complex.hom_points`), and keys, orients, locates, compares and prints
on them.  The validating constructor keeps the Fractions it read as its
`points` view; any other complex builds that view on first read.
Triangle interiors meet, a segment meets one, and a point is in a closed
cell by the signs L·x of the edge lines of `Complex.hom_cells`
(`ccw_triangles_meet`, `segment_meets_ccw_triangle`, `in_closed_cell`).
Segments of a 1-complex decide on their ends' rows too
(`geometry.on_segment`, `geometry.span_overlap`); the all-pairs fallback
takes its cell boxes on the `points` view, as rows of two W do not compare.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import InvalidComplex, ParseError, UnknownVertex
from .geometry import (Hom, HomCell, Point, TokenTable, affine_point, area2, bbox,
                       candidate_pairs, det3, fmt_hom, homogeneous, is_simple_polygon,
                       line_through, on_segment, orient2, rat, records, span_overlap)

SimplexT = Tuple[int, ...]


def faces_of(s: SimplexT):
    """All nonempty faces of a simplex, the simplex itself included."""
    for k in range(1, len(s) + 1):
        for f in combinations(s, k):
            yield f


def close_under_faces(simplices) -> Tuple[SimplexT, ...]:
    """The simplices and all their faces, each sorted, in (length, face)
    order: a sort of the faces, then a stable sort by length."""
    out = set()
    for s in simplices:
        s = tuple(sorted(s))
        for k in range(1, len(s) + 1):
            out.update(combinations(s, k))
    return tuple(sorted(sorted(out), key=len))


def seg_seg_open_meet(a: Hom, b: Hom, c: Hom, d: Hom) -> bool:
    """Do the open segments (a, b) and (c, d), a != b and c != d, given by
    their ends' rows, share a point?  Exact, in ambient dimension 1 or 2.

    Collinear segments do iff they overlap in positive length
    (`span_overlap`).  Two lines of the plane that are not one share at
    most a point, which lies inside both open segments iff each segment's
    ends are strictly on opposite sides of the other's line (`orient2`).
    """
    o1, o2 = (orient2(a, b, c), orient2(a, b, d)) if len(a) == 3 else (0, 0)
    if o1 == o2 == 0:
        return span_overlap(a, b, c, d) is not None
    return o1 * o2 < 0 and orient2(c, d, a) * orient2(c, d, b) < 0


def ccw_triangles_meet(t1: HomCell, t2: HomCell) -> bool:
    """Do two nondegenerate counter-clockwise planar triangles share an
    interior point?

    Two convex polygons with disjoint interiors are separated by the line
    through an edge of one of them (separating axis), so the interiors are
    disjoint iff some edge line L of one triangle has every vertex x of
    the other on its closed right side, L·x <= 0.
    """
    for lines, ((x0, y0, w0), (x1, y1, w1), (x2, y2, w2)) in ((t1.lines, t2.homs),
                                                             (t2.lines, t1.homs)):
        for a, b, c in lines:
            if (a * x0 + b * y0 + c * w0 <= 0 and a * x1 + b * y1 + c * w1 <= 0
                    and a * x2 + b * y2 + c * w2 <= 0):
                return False
    return True


def segment_meets_ccw_triangle(p: Hom, q: Hom, tri: HomCell) -> bool:
    """Does the open segment (p, q), given by the homogeneous coordinates
    of its ends, share a point with the interior of the nondegenerate
    counter-clockwise planar triangle ``tri``?

    By separating axis, as in `ccw_triangles_meet`: they are disjoint iff
    both ends lie on the closed right side of an edge line of the
    triangle, or the whole triangle lies on one closed side of the
    segment's line.
    """
    (px, py, pw), (qx, qy, qw) = p, q
    for a, b, c in tri.lines:
        if a * px + b * py + c * pw <= 0 and a * qx + b * qy + c * qw <= 0:
            return False
    a, b, c = line_through(p, q)
    sides = [a * x + b * y + c * w for x, y, w in tri.homs]
    return min(sides) < 0 < max(sides)


def in_closed_cell(h: Hom, cell: HomCell) -> bool:
    """Is the point h (`homogeneous`) in the closed cell: L·h >= 0 for
    each of its edge lines L?"""
    x, y, w = h
    return all(a * x + b * y + c * w >= 0 for a, b, c in cell.lines)


def triangle_area2(pts) -> Fraction:
    """Twice the unsigned area of a triangle."""
    return abs(area2(*pts))


def area2_sums(homs: Sequence[Hom], triangles) -> Dict[int, int]:
    """Twice the area of planar triangles, given as index triples into the
    points ``homs`` (`homogeneous` coordinates), by denominator: triangle
    abc adds |`det3`(a, b, c)|, which is W_a W_b W_c times twice its area,
    to the sum of the denominator W_a W_b W_c."""
    sums: Dict[int, int] = {}
    for u, v, w in triangles:
        a, b, c = homs[u], homs[v], homs[w]
        d = a[2] * b[2] * c[2]
        sums[d] = sums.get(d, 0) + abs(det3(a, b, c))
    return sums


def rational_points(points) -> Tuple[Point, ...]:
    """Input points as tuples of Fractions, as validation reads them."""
    return tuple([tuple(map(rat, p)) for p in points])


def directed_boundary(simplices, signs, facets) -> Optional[List[Tuple[int, int]]]:
    """The boundary edges of a planar 2-complex as vertex pairs (u, v)
    directed with their cell on the left of u->v, or None if a cell is
    degenerate or an interior edge has both of its cells on one side (a
    fold).

    ``signs`` holds the `orient2` sign of each sorted cell and ``facets``
    their `cell_facets` table, so no predicate runs here: a cell (a, b, c)
    with sign σ lies left of a->b and of b->c when σ > 0 and left of a->c
    when σ < 0.  The simplices must be manifold (no edge in more than two
    cells).
    """
    if 0 in signs:
        return None
    edges = []
    for (u, v), cells in facets.items():
        left = (signs[cells[0]] > 0) == (simplices[cells[0]][1] in (u, v))
        if len(cells) == 1:
            edges.append((u, v) if left else (v, u))
        elif left == ((signs[cells[1]] > 0) == (simplices[cells[1]][1] in (u, v))):
            return None
    return edges


def _boundary_certificate(homs, edges) -> bool:
    """Do the cells of a planar 2-complex have pairwise disjoint interiors,
    as its boundary shows in O(cells + boundary edge pairs)?  True when
    all of these hold, and False for the all-pairs test to decide:

    (i) ``edges``, the `directed_boundary` of the cells, is not None: no
        cell is degenerate, and the two cells of each interior edge lie on
        opposite sides of it;
    (ii) the directed boundary edges form exactly one cycle: each boundary
        vertex starts one edge and ends one edge, and following the edges
        from one of them runs through all of them;
    (iii) no two boundary edges that are not consecutive on the cycle meet
        as closed segments;
    (iv) no two consecutive boundary edges fold back onto each other.

    Sound: orient every cell counter-clockwise and let c be their sum.  At
    a point y off all edges, the number of cells covering y is the winding
    number of ∂c around y.  By (i) the two cells of an interior edge run it
    in opposite directions, so it cancels in ∂c, and ∂c is the boundary
    edges directed with their cell on the left: the cycle of (ii).  By
    (iii) and (iv) that cycle is a simple polygon, so its winding number
    is 0 outside it and the same one of ±1 everywhere inside; cell counts
    are never negative, so each is 0 or 1.  Two cells whose open interiors
    meet would cover an open set, and so a point off all edges, twice.
    So every complex accepted here passes the all-pairs test.  Its cells
    also meet in common faces: a vertex v inside another cell lies inside
    an edge e of it, in that cell only, as interiors are disjoint, so e is
    a side of the polygon.  If v is on the polygon, it lies on a side that
    does not end at it, against (iii) or (iv); if not, v's cells cover a
    disk around v by (i), which reaches across e out of the polygon.

    The points must be distinct and the simplices manifold, as `Complex`
    checks first.  Left to the all-pairs test: several boundary cycles
    (annuli, several components), pinched or self-touching boundaries, and
    every complex whose cells overlap.
    """
    if not edges:
        return False
    after = dict(edges)
    if len(after) != len(edges):
        return False
    cycle = [edges[0][0]]
    while len(cycle) <= len(edges):
        v = after[cycle[-1]]  # as many edges of a boundary end at a vertex as start there
        if v == cycle[0]:
            break
        cycle.append(v)
    return len(cycle) == len(edges) and is_simple_polygon([homs[v] for v in cycle])


class _Incidences:
    """How the cells of a `Complex` or `Surface` meet: its facet table, star
    table and neighbour list, each built from the simplices on first use,
    in one read-only list shared by the complexes on those simplices."""

    __slots__ = ("_tables",)

    def facets(self) -> Dict[SimplexT, List[int]]:
        """`cell_facets` of the simplices."""
        if self._tables[0] is None:
            self._tables[0] = cell_facets(self.simplices)
        return self._tables[0]

    def stars(self) -> List[List[int]]:
        """`cell_stars` of the simplices."""
        if self._tables[1] is None:
            self._tables[1] = cell_stars(self.simplices, self.vertex_count)
        return self._tables[1]

    def neighbours(self) -> List[Tuple[Optional[int], ...]]:
        """For each maximal simplex (a, b, c) of this 2-complex, the cell
        across each of its edges (a, b), (b, c) and (a, c), or None where
        no other cell has that edge: read off the facet table."""
        if self._tables[2] is None:
            across: List[List[Optional[int]]] = [[None] * 3 for _ in self.simplices]
            for (u, v), cells in self.facets().items():
                if len(cells) == 2:
                    for i, j in (cells, cells[::-1]):
                        a, b, _ = self.simplices[i]
                        across[i][0 if (u, v) == (a, b) else 2 if u == a else 1] = j
            self._tables[2] = [tuple(n) for n in across]
        return self._tables[2]


class Complex(_Incidences):
    """A pure simplicial complex realizing a 1- or 2-manifold with boundary,
    or a planar one pinched at vertices (two triangles that share only a
    vertex): any two of its cells meet in a common face or not at all.  Its
    cells need not be connected.

    ``Complex(...)`` validates; :meth:`trusted` and :meth:`with_points`
    build a complex valid by construction, with no checks.
    """

    __slots__ = ("simplices", "dim", "_points", "_homs", "_signs", "_hom_cells", "_boundary")

    def __init__(self, points: Sequence, maximal_simplices):
        self._assemble((), sorted(tuple(sorted(s)) for s in maximal_simplices))
        self._points = rational_points(points)
        self._validate()

    @classmethod
    def trusted(cls, homs: Sequence[Hom], maximal_simplices) -> "Complex":
        """A complex that an operation built from validated inputs, so valid
        by construction: simplices (sorted, as ``Complex(...)`` sorts them)
        and points (`homogeneous` rows) kept as built, nothing checked."""
        self = cls.__new__(cls)
        self._assemble(tuple(homs), maximal_simplices)
        return self

    def with_points(self, homs: Sequence[Hom]) -> "Complex":
        """These simplices at the `homogeneous` rows ``homs``, kept as built:
        `simplices`, `dim` and the incidence record are shared, and nothing
        is sorted or checked.  What depends on the points is its own."""
        shared = self.simplices, self.dim, self._tables
        self = Complex.__new__(Complex)
        self.simplices, self.dim, self._tables = shared
        self._homs = tuple(homs)
        self._points = self._signs = self._hom_cells = self._boundary = None
        return self

    def _assemble(self, homs: Tuple[Hom, ...], simplices):
        self._homs = homs
        self.simplices: Tuple[SimplexT, ...] = tuple(simplices)
        if not self.simplices:
            raise InvalidComplex("complex has no maximal simplices")
        self.dim = len(self.simplices[0]) - 1
        self._tables = [None, None, None]
        self._points = self._signs = self._hom_cells = self._boundary = None

    # -- validation ------------------------------------------------------

    def _validate(self):
        if self.dim not in (1, 2):
            raise InvalidComplex("only dimensions 1 and 2 are supported")
        d_amb = len(self.points[0]) if self.points else 0
        if d_amb not in (1, 2):
            raise InvalidComplex("ambient dimension must be 1 or 2")
        if any(len(p) != d_amb for p in self.points):
            raise InvalidComplex("points have mixed ambient dimension")
        if self.dim > d_amb:
            raise InvalidComplex("a 2-complex needs ambient dimension 2")
        self._homs = tuple(map(homogeneous, self.points))
        n, k = len(self.points), self.dim + 1
        for s in self.simplices:
            if len(s) != k:
                raise InvalidComplex(f"complex is not pure: simplex {s}")
            if len(set(s)) != k:
                raise InvalidComplex(f"repeated vertex in simplex {s}")
            # a simplex is sorted, so its ends are its least and greatest vertex
            if s[0] < 0 or s[-1] >= n:
                raise InvalidComplex(f"vertex index out of range in {s}")
        if set().union(*self.simplices) != set(range(n)):
            raise InvalidComplex("every point must appear in a maximal simplex")
        if len(set(self.simplices)) != len(self.simplices):
            raise InvalidComplex("duplicate maximal simplex")
        if self.dim == 2:
            for s, o in zip(self.simplices, self.orientations()):
                if o == 0:
                    raise InvalidComplex(f"degenerate triangle {s}")
        else:
            for s in self.simplices:
                if self._homs[s[0]] == self._homs[s[1]]:
                    raise InvalidComplex(f"degenerate edge {s}")
        for f, cells in self.facets().items():
            if len(cells) > 2:
                raise InvalidComplex(f"face {f} lies in {len(cells)} maximal simplices")
        self._check_distinct_points()
        if not (self.dim == 2 and _boundary_certificate(self._homs, self.boundary_edges())):
            self._check_cells_exactly()

    def _check_distinct_points(self):
        # two vertices at one point pinch the realization, and a map on the
        # complex could send them to two places
        seen: Dict[Hom, int] = {}
        for v, h in enumerate(self._homs):
            w = seen.setdefault(h, v)
            if w != v:
                raise InvalidComplex(f"vertices {w} and {v} lie at one point")

    def _check_cells_exactly(self):
        """The all-pairs tests, for every complex the boundary certificate
        does not accept, so they alone raise.  First, no two cells whose
        boxes meet share an interior point.  Then two such cells meet in
        the hull of their shared vertices: a vertex of one cell in another
        closed cell (after a box test) is a vertex of it.  Sound, for cells
        with disjoint interiors: at an end r of their meet, a vertex is
        shared; segments meet only at an end of one, and triangles are split
        by a line through r, along an edge of each unless r is a vertex.
        Cells with a common facet lie on its two sides and are skipped."""
        boxes = [bbox(cell) for cell in self.cells()]
        pairs = candidate_pairs(boxes)
        homs = self._homs
        cells = self.hom_cells() if self.dim == 2 else [[homs[v] for v in s]
                                                        for s in self.simplices]
        for i, j in pairs:
            if (seg_seg_open_meet(*cells[i], *cells[j]) if self.dim == 1
                    else ccw_triangles_meet(cells[i], cells[j])):
                raise InvalidComplex(f"simplices {self.simplices[i]} and {self.simplices[j]}"
                                     " overlap")
        for i, j in pairs:
            s, t = self.simplices[i], self.simplices[j]
            if len(set(s) & set(t)) == self.dim:
                continue
            for a, b, k in ((s, t, j), (t, s, i)):
                lo, hi = boxes[k]
                for v, p in ((v, self.points[v]) for v in a if v not in b):
                    if (all(m <= x <= n for m, x, n in zip(lo, p, hi))
                            and (on_segment(*cells[k], homs[v]) if self.dim == 1
                                 else in_closed_cell(homs[v], cells[k]))):
                        raise InvalidComplex(
                            f"vertex {v} lies in simplex {b} but is not one of its vertices")

    def is_connected(self) -> bool:
        return _connected(adjacency(self.simplices))

    def orientations(self) -> List[int]:
        """Each cell's `orient2` on its `hom_points`, computed once: every
        reader that orients a cell reads it here."""
        if self._signs is None:
            homs = self._homs
            self._signs = [orient2(homs[u], homs[v], homs[w]) for u, v, w in self.simplices]
        return self._signs

    def boundary_edges(self) -> Optional[List[Tuple[int, int]]]:
        """The `directed_boundary` of this planar 2-complex, computed once:
        validation reads it, and so does every map on this base."""
        if self._boundary is None:
            self._boundary = directed_boundary(self.simplices, self.orientations(),
                                               self.facets())
        return self._boundary

    def hom_points(self) -> Tuple[Hom, ...]:
        """Each point's `homogeneous` row, as the complex stores it."""
        return self._homs

    @property
    def points(self) -> Tuple[Point, ...]:
        """Each point as a tuple of Fractions: those the validating
        constructor read, or built from the rows on first read."""
        if self._points is None:
            self._points = tuple([affine_point(h) for h in self._homs])
        return self._points

    def hom_cells(self) -> List[HomCell]:
        """Each cell of this planar 2-complex as a `HomCell`, its vertices
        counter-clockwise by `orientations`, built on first use."""
        if self._hom_cells is None:
            homs, cells = self._homs, []
            for (u, v, w), o in zip(self.simplices, self.orientations()):
                if o <= 0:
                    u, w = w, u
                a, b, c = homs[u], homs[v], homs[w]
                cells.append(HomCell((a, b, c), (line_through(a, b), line_through(b, c),
                                                 line_through(c, a))))
            self._hom_cells = cells
        return self._hom_cells

    # -- basic queries ---------------------------------------------------

    def cells(self) -> List[List[Point]]:
        """Each maximal simplex as the list of its `points`."""
        return [[self.points[v] for v in s] for s in self.simplices]

    def area2(self) -> Fraction:
        """Twice the area of a planar 2-complex, exact: the integer sums of
        `area2_sums` over its `hom_points`, with one Fraction per distinct
        denominator."""
        return sum((Fraction(n, d) for d, n in
                    area2_sums(self._homs, self.simplices).items()), Fraction(0))

    @property
    def ambient_dim(self) -> int:
        return len(self._homs[0]) - 1

    @property
    def vertex_count(self) -> int:
        return len(self._homs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Complex)
            and self._homs == other.hom_points()
            and self.simplices == other.simplices
        )

    def __hash__(self):
        return hash((self._homs, self.simplices))

    def __repr__(self):
        return f"Complex(dim={self.dim}, |V|={len(self._homs)}, |top|={len(self.simplices)})"


class Surface(_Incidences):
    """A connected surface, closed or with boundary, as an abstract
    triangulation: its triangles alone, on the vertices 0..n-1, with no
    coordinates.  A PL homeomorphism of a realization is a simplicial
    isomorphism between subdivisions, so the combinatorics are the whole
    surface, and the non-orientable ones, which do not embed in R^3, are
    surfaces like the rest.

    ``Surface(triangles)`` validates by combinatorics alone: each triangle
    has three distinct vertices, the vertices used are exactly 0..n-1, no
    triangle appears twice, every edge lies in one or two triangles, the
    link of every vertex is one cycle or one arc, and the triangles are
    connected.  Each error names the first offending triangle, edge or
    vertex in sorted order."""

    __slots__ = ("simplices", "vertex_count")
    dim = 2

    def __init__(self, triangles):
        listed = sorted(tuple(sorted(t)) for t in triangles)
        if not listed:
            raise InvalidComplex("surface has no triangles")
        for t in listed:
            if len(t) != 3 or len(set(t)) != 3:
                raise InvalidComplex(f"triangle {t} does not have three distinct vertices")
        used = sorted({v for t in listed for v in t})
        if used != list(range(len(used))):
            raise InvalidComplex("vertex indices must be 0..n-1 without gaps")
        self.simplices: Tuple[SimplexT, ...] = tuple(listed)
        self.vertex_count = len(used)
        self._tables = [None, None, None]
        for a, b in zip(listed, listed[1:]):
            if a == b:
                raise InvalidComplex(f"triangle {a} appears twice")
        for e, cells in sorted(self.facets().items()):
            if len(cells) > 2:
                raise InvalidComplex(f"edge {e} lies in {len(cells)} triangles")
        for v in range(self.vertex_count):
            lk = link(self, v)
            if not (is_cycle(lk) or is_arc(lk)):
                raise InvalidComplex(f"the link of vertex {v} is not one cycle or one arc")
        if not _connected(adjacency(listed)):
            raise InvalidComplex("surface is not connected")


class SubComplex:
    """A face-closed set of simplices of a parent `Complex` or `Surface`."""

    __slots__ = ("parent", "simplices")

    def __init__(self, parent, simplices):
        self.parent = parent
        self.simplices: Tuple[SimplexT, ...] = close_under_faces(simplices)
        n = parent.vertex_count
        # each face is sorted: its first vertex is its least, its last its greatest
        if self.simplices and not (0 <= min(map(itemgetter(0), self.simplices))
                                   and max(map(itemgetter(-1), self.simplices)) < n):
            bad = next(s for s in self.simplices if not all(0 <= v < n for v in s))
            raise InvalidComplex(f"subcomplex simplex {bad} not in parent")

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

    def maximal(self) -> Tuple[SimplexT, ...]:
        """The simplices that are no proper face of another, in order: as
        the set is face-closed, those that are no facet of another."""
        facets = {f for s in self.simplices if len(s) > 1
                  for f in combinations(s, len(s) - 1)}
        return tuple(s for s in self.simplices if s not in facets)

    def of_dim(self, k: int) -> Tuple[SimplexT, ...]:
        return tuple(s for s in self.simplices if len(s) == k + 1)

    def vertex_degrees(self) -> Dict[int, int]:
        """Edge-degree of each vertex present in the subcomplex."""
        deg = {s[0]: 0 for s in self.of_dim(0)}
        for e in self.of_dim(1):
            for v in e:
                deg[v] = deg.get(v, 0) + 1
        return deg


# -- the spec operations -------------------------------------------------


def euler_characteristic(c) -> int:
    """#V - #E + #F over the full face poset of a `Complex` or `Surface`."""
    chi = 0
    for f in close_under_faces(c.simplices):
        chi += (-1) ** (len(f) - 1)
    return chi


def star(c, v: int) -> SubComplex:
    """Closed star in a `Complex` or `Surface`: all maximal simplices
    containing v, plus their faces, read off the star table."""
    if not 0 <= v < c.vertex_count:
        raise UnknownVertex(f"vertex {v} not in complex")
    return SubComplex(c, [c.simplices[i] for i in c.stars()[v]])


def link(c, v: int) -> SubComplex:
    """Faces of the closed star that do not contain v: the faces of v's
    maximal simplices opposite v, plus their faces."""
    return SubComplex(c, [tuple(w for w in s if w != v) for s in star(c, v).of_dim(c.dim)])


def cell_facets(simplices) -> Dict[SimplexT, List[int]]:
    """The facet table: each facet of the sorted simplices, in the order
    first seen, -> the indices of the simplices that have it."""
    table: Dict[SimplexT, List[int]] = {}
    for i, s in enumerate(simplices):
        for f in combinations(s, len(s) - 1):
            table.setdefault(f, []).append(i)
    return table


def cell_stars(simplices, vertex_count: int) -> List[List[int]]:
    """The star table: each vertex 0..vertex_count-1 -> the indices of the
    simplices that contain it, in order."""
    table: List[List[int]] = [[] for _ in range(vertex_count)]
    for i, s in enumerate(simplices):
        for v in s:
            table[v].append(i)
    return table


def boundary(c: Complex) -> SubComplex:
    """Codimension-1 faces lying in exactly one maximal simplex."""
    return SubComplex(c, [f for f, cells in c.facets().items() if len(cells) == 1])


def is_cycle(sub: SubComplex) -> bool:
    """Is a 1-dimensional subcomplex a single closed cycle of edges?"""
    return set(_edge_degrees(sub)) == {2}


def is_arc(sub: SubComplex) -> bool:
    """Is a 1-dimensional subcomplex a single open arc of edges?"""
    deg = _edge_degrees(sub)
    return deg.count(1) == 2 and set(deg) <= {1, 2}


def _edge_degrees(sub: SubComplex) -> List[int]:
    """The edge-degree of each vertex of a subcomplex whose edges are
    connected, or [] if it has no edges or they are not."""
    edges = sub.of_dim(1)
    if not edges or not _connected(adjacency(edges)):
        return []
    return list(sub.vertex_degrees().values())


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


def read_complex_records(text: str, tokens: Optional[TokenTable] = None, other=None):
    """The vertex points (by index) and the simplex records of the `.cx`
    format, checked line by line but not yet validated as a complex.

    Coordinates are looked up in ``tokens``, the `TokenTable` of the
    request (a new one by default).  ``other`` maps the name of each
    further record kind that the file may hold to a reader, called with
    the record's line number, tokens and text; any other record is an
    error.  Lines are numbered as in ``text``, blank and comment lines
    included."""
    tokens = TokenTable() if tokens is None else tokens
    points: Dict[int, Point] = {}
    sims: List[SimplexT] = []
    for lineno, tok, line in records(text):
        if tok[0] == "v":
            if len(tok) < 3 or len(tok) > 5:
                raise ParseError(f"line {lineno}: bad vertex record")
            i = _index(tok[1], lineno)
            if i in points:
                raise ParseError(f"line {lineno}: duplicate vertex {i}")
            points[i] = tuple([tokens[t] for t in tok[2:]])
        elif tok[0] == "s":
            if len(tok) < 2 or len(tok) > 4:
                raise ParseError(f"line {lineno}: bad simplex record")
            try:
                sims.append(tuple(map(int, tok[1:])))
            except ValueError:  # name the first bad index
                sims.append(tuple(_index(t, lineno) for t in tok[1:]))
        elif other and tok[0] in other:
            other[tok[0]](lineno, tok, line)
        else:
            raise ParseError(f"line {lineno}: unknown record {tok[0]!r}")
    if not points:
        raise ParseError("no vertices")
    if sorted(points) != list(range(len(points))):
        raise ParseError("vertex indices must be 0..n-1 without gaps")
    return [points[i] for i in range(len(points))], sims


def parse_complex(text: str, tokens: Optional[TokenTable] = None) -> Complex:
    """Parse the `v <index> <coords...>` / `s <i> <j> [<k>]` line format,
    looking coordinates up in ``tokens`` (see `read_complex_records`)."""
    points, sims = read_complex_records(text, tokens)
    return Complex(points, sims)


def parse_surface(text: str) -> Surface:
    """Parse the surface format: a `surface` header line, then one
    `s <i> <j> <k>` line per triangle, with no coordinates.  Record errors
    name the line as in ``text``, blank and comment lines included."""
    lines = records(text)
    lineno, tok, _ = next(lines, (1, None, None))
    if tok != ["surface"]:
        raise ParseError(f"line {lineno}: the header must be 'surface'")
    triangles = []
    for lineno, tok, _ in lines:
        if tok[0] != "s":
            raise ParseError(f"line {lineno}: unknown record {tok[0]!r}")
        if len(tok) != 4:
            raise ParseError(f"line {lineno}: bad triangle record")
        triangles.append(tuple(_index(t, lineno) for t in tok[1:]))
    return Surface(triangles)


def _index(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"line {lineno}: bad vertex index {token!r}") from None


def format_complex(c: Complex) -> str:
    lines = []
    for i, h in enumerate(c.hom_points()):
        lines.append("v %d %s" % (i, fmt_hom(h)))
    for s in c.simplices:
        lines.append("s %s" % " ".join(str(v) for v in s))
    return "\n".join(lines) + "\n"
