"""Simplicial-affine self-maps of a triangulated 1- or 2-manifold.

A :class:`PLMap` is a base complex, a refinement of it, and one image
point per refinement vertex; the map is the affine extension per cell.
``PLMap(...)`` validates the whole homeomorphism story exactly: the
refinement tiles the base, the image cells form a valid :class:`Complex`
(``PLMap.image``: nondegenerate, meeting in common faces), and the image
realizes the base again, so boundary goes to boundary.  The parser and
:func:`plmap_from_vertex_images` build through it.

In the plane the image is first offered to a local homeomorphism
certificate (:func:`_certified_image`) that costs O(cells): distinct
image points, one orientation per image cell, no fold across an interior
edge, and the boundary edges, directed with their image cell on the left,
matching the base's boundary edges directed with the base on the left,
each exactly once.  By a winding-number argument this implies every exact
check, so an accepted image is built trusted.  The exact checks run
only for maps the certificate does not accept: every rejected map, every
1D map, boundary vertices that slide off the base's vertices, and
refinements that subdivide the base's boundary.  So they alone decide
which exception a rejected map raises.

A map's image is its refinement at the images' `homogeneous` rows
(`Complex.with_points`), with the refinement's incidence tables;
`PLMap.images` is their `Fraction` view.  A map derived from validated
maps is valid by construction and is built with :meth:`PLMap.trusted`,
which keeps the rows it is handed and checks nothing but two area
identities in the plane (a failure is an ``InternalError``):
:func:`compose2d`, :func:`inverse2d` and :func:`identity_map` build this
way, taking each cell's base cell from provenance.  The test suite
re-validates every trusted result.

Every loop over pairs of cells that meet goes through the kernels of
:mod:`plstab.overlay`: `realized_pieces` under the two realization
checks, `cell_pieces` under composition, :func:`inverse2d` and equality,
whose inputs realize one set by construction; those build with
`overlay.refine`.  Each vertex is read at its cut point
(`Overlay.at_vertices`): f∘g maps its image under g, the image-side
point, through f's piece; an inverse pulls it back; ``f == g`` compares
the two maps' pieces there.

A map keeps one affine piece per refinement cell, from the cell to its
image, and one back, each solved on first use (`_solve_piece`): a
canonical integer matrix on rows, so applying one is a matrix-vector
product and a gcd, and composition, inversion and equality build no
Fraction.  `PLMap.eval` converts its point to a row once, locates it on
the cached `Complex.hom_cells` (on the rows of a 1-complex's segments,
by `geometry.on_segment`), and converts its value back once.

Each exact test runs once, and both realization tests are one call of
`realized_pieces`, the cover accounting of `overlay`: the refinement
against the base, where each refinement cell's base cell is its only hit,
and on the exact path the image against the base, after an area
pre-check in the plane.  A refinement that *is* the base (the same
object; :func:`parse_plmap` passes the base itself when the refinement
block lists the base's points and simplices) tiles it cell for cell, so
its cells are their own base cells and the refinement test is skipped.

:func:`parse_plmap` reads a map file in one pass over its lines, and its
errors name the file's own line numbers.  It converts coordinates through
the request's `geometry.TokenTable`, which the base's parse shares, so a
refinement block that repeats the base holds the base's own Fractions and
the comparison with the base is mostly by identity; equality keeps its
exact meaning, so `2/4` in a map file equals `1/2` in its base.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

from . import geometry
from .complexes import (Complex, directed_boundary, format_complex, in_closed_cell,
                        rational_points, read_complex_records)
from .errors import (InternalError, InvalidComplex, ParseError, PointOutsideComplex,
                     RealizationMismatch, VertexNotInComplex)
from .geometry import (Hom, Mat, Point, TokenTable, affine_point, det3, fmt, fmt_hom,
                       homogeneous, line_through, on_segment, rat)
from .overlay import cell_pieces, realized_pieces, refine

# no code here orients a cell; the benchmark's tracer test reads `plmap.orient2`
orient2 = geometry.orient2


def _solve_piece(src: Sequence[Hom], dst: Sequence[Hom]):
    """The affine map taking the segment or planar triangle ``src`` onto
    ``dst``, all `homogeneous` rows, as an integer matrix M: M x is the row
    of x's image up to a positive factor.  Its last row is (0, ..., 0, k),
    and M is reduced by its gcd with k > 0, so one map has one matrix.

    A triangle abc goes by Q S adj(P), P with columns a, b, c, Q with the
    images A, B, C, and S scaling A by w_a W_B W_C (and so on), so that
    every vertex goes to its image over one W.  A segment ab goes by
    x -> A + t (B - A), t = (x - a)·(b - a) / |b - a|², linear in x's row.
    """
    if len(src) == 3:
        a, b, c = src
        A, B, C = dst
        (p0, p1, p2), (q0, q1, q2), (r0, r1, r2) = (line_through(b, c), line_through(c, a),
                                                    line_through(a, b))
        sa, sb, sc = a[2] * B[2] * C[2], b[2] * A[2] * C[2], c[2] * A[2] * B[2]
        rows = []
        for i in range(2):
            u, v, w = sa * A[i], sb * B[i], sc * C[i]
            rows.append([u * p0 + v * q0 + w * r0, u * p1 + v * q1 + w * r1,
                         u * p2 + v * q2 + w * r2])
        k = A[2] * B[2] * C[2] * det3(a, b, c)
    else:
        (a, b), (A, B) = src, dst
        n, aw, bw, Aw, Bw = len(a) - 1, a[-1], b[-1], A[-1], B[-1]
        d = [b[i] * aw - a[i] * bw for i in range(n)]
        line = [aw * di for di in d] + [-sum(a[i] * d[i] for i in range(n))]
        dd = sum(di * di for di in d)
        rows = [[bw * (Aw * B[i] - Bw * A[i]) * m for m in line] for i in range(n)]
        for i in range(n):
            rows[i][n] += dd * Bw * A[i]
        k = dd * Bw * Aw
    g = gcd(k, *(x for row in rows for x in row))
    if k < 0:
        g = -g
    return tuple(tuple(x // g for x in row) for row in rows) + ((0,) * (len(rows)) + (k // g,),)


def _apply_piece(piece, h: Hom) -> Hom:
    """The row h under a piece of `_solve_piece`: one matrix-vector product
    and one gcd, W staying positive as the piece's k is."""
    if len(h) == 3:
        (m0, m1, m2), (n0, n1, n2), (_, _, k) = piece
        x, y, w = h
        x, y, w = m0 * x + m1 * y + m2 * w, n0 * x + n1 * y + n2 * w, k * w
        g = gcd(x, y, w)
        return x // g, y // g, w // g
    out = [sum(m * v for m, v in zip(row, h)) for row in piece]
    g = gcd(*out)
    return tuple(v // g for v in out)


def _certified_image(base: Complex, refinement: Complex, images) -> Optional[Complex]:
    """The image complex of a planar map accepted by a local homeomorphism
    certificate in O(cells), or None for the exact checks to decide.

    With R the refinement (which tiles the base K) and f the images:

    1. the image points are pairwise distinct: the image R at the images'
       rows (`Complex.with_points`) is built first, and its rows hashed;
    2. each image cell has a nonzero orientation σ (one `orient2` a cell,
       the image's `Complex.orientations`, which it keeps);
    3. the two cells of each interior edge of R have their images on
       opposite sides of the image edge (read off σ, no further `orient2`;
       R's facet table, built once per complex, pairs the cells);
    4. each boundary edge of R, directed with its image cell on the left,
       is a boundary edge of K directed with K on the left (a set lookup
       in K's `Complex.boundary_edges`, its `directed_boundary`, which
       K's validation computed and kept), and as many are found as K has
       boundary edges.

    Sound: orient every image cell counter-clockwise and let c = Σ [f(t)].
    At a point y off all edges, c counts the image cells over y, and that
    count is the winding number of ∂c around y.  In ∂c each interior edge
    of R cancels: by step 3 its two cells lie on opposite sides of its
    image, so they run it in opposite directions.  What is left are the
    boundary edges of R directed as in step 4: distinct by step 1, all
    directed boundary edges of K, and as many as K has, so ∂c = ∂[K].
    Hence y lies in one image cell if y is in K and in none if not.  So
    the image cells are nondegenerate, have disjoint interiors and tile K,
    each boundary edge goes onto a boundary edge, and with step 1 f is
    injective: every exact check would pass.  The image of step 1 is
    returned with its rows and orientations, so a walk of it converts and
    orients no point again.

    Every homeomorphism that maps the boundary edges of R one-to-one onto
    those of K passes.  The rest takes the exact path: every rejected map,
    every 1D map, boundary vertices that slide off the base's vertices,
    and refinements that subdivide the base's boundary.
    """
    if base.dim != 2:
        return None
    image = refinement.with_points([homogeneous(p) for p in images])
    keys = image.hom_points()
    if len(set(keys)) != len(keys):
        return None
    edges = directed_boundary(refinement.simplices, image.orientations(), refinement.facets())
    if edges is None:
        return None
    homs = base.hom_points()
    base_edges = {(homs[u], homs[v]) for u, v in base.boundary_edges()}
    if len(edges) != len(base_edges) or not all(
            (keys[u], keys[v]) in base_edges for u, v in edges):
        return None
    return image


class PLMap:
    """PL self-homeomorphism of the realization of a base complex.

    ``cell_base[i]`` is the base simplex containing refinement cell ``i``.
    When ``refinement is base`` it is the identity, with no realization
    test: a cell of a valid complex lies in no other of its cells.
    A refinement equal to the base but a different object is validated in
    full like any other.

    ``PLMap(...)`` validates; :meth:`trusted` builds the result of an
    operation on validated maps without the checks.  A planar image is
    accepted by the certificate of :func:`_certified_image` when it can be,
    and otherwise by the exact checks of :meth:`_check_image_exactly`,
    which decide every map the certificate does not accept.
    """

    __slots__ = ("base", "refinement", "image", "cell_base", "_pieces")

    def __init__(self, base: Complex, refinement: Complex, images: Sequence):
        self.base = base
        self.refinement = refinement
        self._pieces = None
        images = rational_points(images)
        if base.dim != refinement.dim or base.ambient_dim != refinement.ambient_dim:
            raise RealizationMismatch("refinement must live where the base lives")
        if len(images) != refinement.vertex_count:
            raise InvalidComplex("need one image point per refinement vertex")
        if any(len(p) != base.ambient_dim for p in images):
            raise InvalidComplex("image points have the wrong ambient dimension")
        if refinement is base:
            self.cell_base: Tuple[int, ...] = tuple(range(len(base.simplices)))
        else:
            self.cell_base = self._assign_cells()
        self.image = _certified_image(base, refinement, images)
        if self.image is None:
            self._check_image_exactly(images)

    @classmethod
    def trusted(cls, base: Complex, refinement: Complex, images: Sequence[Hom],
                cell_base: Sequence[int]) -> "PLMap":
        """A map that compose, invert or identity built from validated
        inputs, so valid by construction: ``refinement`` refines ``base``
        and ``cell_base`` comes from provenance.  The images, `homogeneous`
        rows, are kept as built (`Complex.with_points`).  In the plane,
        refinement area = base area = image area, as integer ratios, is a
        tripwire (``InternalError``) against a lost or doubled cell.
        """
        self = cls.__new__(cls)
        self.base = base
        self.refinement = refinement
        self._pieces = None
        self.image = refinement.with_points(images)
        self.cell_base = tuple(cell_base)
        if base.dim == 2 and len({c.area2().as_integer_ratio()
                                  for c in (base, refinement, self.image)}) != 1:
            raise InternalError("a derived map does not conserve the base area")
        return self

    @property
    def images(self) -> Tuple[Point, ...]:
        """The image of each refinement vertex: the image's `points` view."""
        return self.image.points

    @property
    def domain(self) -> Complex:
        return self.base

    # -- construction-time validation ------------------------------------

    def _assign_cells(self) -> Tuple[int, ...]:
        """The base simplex containing each refinement cell: once
        `realized_pieces` has found that the refinement tiles the base, it
        is the cell's only hit, and a cell with two hits lies in no base
        simplex."""
        hits: List[List[int]] = [[] for _ in self.refinement.simplices]
        for i, j, _ in realized_pieces(self.refinement, self.base,
                                       ("refinement does not tile the base",) * 2):
            hits[i].append(j)
        for s, h in zip(self.refinement.simplices, hits):
            if len(h) != 1:
                raise RealizationMismatch(f"refinement cell {s} is not inside any base simplex")
        return tuple(h[0] for h in hits)

    def _check_image_exactly(self, images):
        """The exact image checks, for a map the certificate does not
        accept: the image cells form a valid `Complex` and realize the
        base.  Then the map is a homeomorphism of the base, so boundary goes
        to boundary: it is onto, and one to one, as two cells meet only in
        the hull of their shared vertices, in the refinement and in the
        image, where their pieces agree."""
        self.image = Complex(images, self.refinement.simplices)
        if self.base.dim == 2 and self.image.area2() != self.base.area2():
            raise RealizationMismatch("image area differs from base area")
        # with equal areas, the image cells covered by base cells leave no
        # base cell uncovered, so the second message is 1D only
        realized_pieces(self.image, self.base, ("an image cell leaves the base realization",
                                                "image does not cover the base"))

    # -- queries ---------------------------------------------------------

    def is_identity(self) -> bool:
        return self.image.hom_points() == self.refinement.hom_points()

    def moved_point(self) -> Optional[Point]:
        """A refinement vertex the map moves, or None for the identity."""
        return next((affine_point(p) for p, q in zip(self.refinement.hom_points(),
                                                     self.image.hom_points()) if p != q), None)

    def compose(self, g: "PLMap") -> "PLMap":
        return compose2d(self, g)

    def inverse(self) -> "PLMap":
        return inverse2d(self)

    def identity_like(self) -> "PLMap":
        return identity_map(self.base)

    def __eq__(self, other):
        """Pointwise equality, decided on the common refinement of the two
        refinements, which realize the one base: both maps are affine on
        each of its cells, on the pieces of its provenance cells, so they
        agree there iff they agree at its vertices, each compared once as
        both are continuous (`Overlay.at_vertices`)."""
        if not isinstance(other, PLMap):
            return NotImplemented
        if self.base != other.base:
            return False
        ov = _common_refinement(self.refinement, other.refinement)
        return all(ov.at_vertices(
            lambda i, j, x: self.eval_in_cell(i, x) == other.eval_in_cell(j, x)))

    def __repr__(self):
        return (
            f"PLMap(dim={self.base.dim}, cells={len(self.refinement.simplices)})"
        )

    def eval(self, x) -> Point:
        """f(x) on the first refinement cell that holds x (`on_segment` or
        `in_closed_cell` on the cached `Complex.hom_cells`), x converted to
        its row once and its value back once; x must have as many
        coordinates as the base's ambient dimension."""
        x, r = tuple(rat(c) for c in x), self.refinement
        if len(x) != self.base.ambient_dim:
            raise PointOutsideComplex(f"({', '.join(fmt(c) for c in x)}) has {len(x)} "
                                      f"coordinate(s), not {self.base.ambient_dim}")
        h = homogeneous(x)
        if r.dim == 1:
            homs = r.hom_points()
            hits = (i for i, (u, v) in enumerate(r.simplices)
                    if on_segment(homs[u], homs[v], h))
        else:
            hits = (i for i, cell in enumerate(r.hom_cells()) if in_closed_cell(h, cell))
        for i in hits:
            return affine_point(self.eval_in_cell(i, h))
        raise PointOutsideComplex(f"({', '.join(fmt(c) for c in x)}) is not in the realization")

    def eval_in_cell(self, i: int, h: Hom) -> Hom:
        """The row h under the affine piece of refinement cell ``i``: f(x)
        when x is in that closed cell, with no point location."""
        return _apply_piece(self._piece(i, 0), h)

    def pullback_in_cell(self, i: int, h: Hom) -> Hom:
        """The row h under the inverse of the affine piece of refinement
        cell ``i``: the preimage of any point in image cell ``i``."""
        return _apply_piece(self._piece(i, 1), h)

    def linear_part(self, i: int) -> Mat:
        """The matrix of the affine piece of planar refinement cell ``i``:
        entry (j, k) is M[j][k] / M[2][2] of the piece's matrix M."""
        r0, r1, (_, _, k) = self._piece(i, 0)
        return Mat([[Fraction(m, k) for m in row[:2]] for row in (r0, r1)])

    def _piece(self, i: int, backward: int):
        """The affine piece of cell ``i`` (from the refinement to the image,
        or back), solved on first use and kept."""
        if self._pieces is None:
            self._pieces = ([None] * len(self.refinement.simplices),
                            [None] * len(self.refinement.simplices))
        piece = self._pieces[backward][i]
        if piece is None:
            s, homs = self.refinement.simplices[i], self.refinement.hom_points()
            ends = ([homs[v] for v in s], [self.image.hom_points()[v] for v in s])
            piece = self._pieces[backward][i] = _solve_piece(ends[backward],
                                                             ends[1 - backward])
        return piece

    def refinement_index_of_base_vertex(self, v: int) -> int:
        if not 0 <= v < self.base.vertex_count:
            raise VertexNotInComplex("vertex %d not in base complex" % v)
        # a base vertex is extreme in each base cell, so a corner of each refinement cell at it
        return self.refinement.hom_points().index(self.base.hom_points()[v])


def identity_map(c: Complex) -> PLMap:
    return PLMap.trusted(c, c, c.hom_points(), range(len(c.simplices)))


def plmap_from_vertex_images(c: Complex, images: Sequence) -> PLMap:
    """Map affine on each maximal simplex of c itself (refinement = base)."""
    return PLMap(c, c, images)


# -- operations ----------------------------------------------------------


def compose2d(f: PLMap, g: PLMap) -> PLMap:
    """The map x -> f(g(x)); the result's refinement refines g's.

    Built trusted from provenance: an output cell cut from g's cell i and
    f's cell j lies in g's base cell ``g.cell_base[i]``, and each vertex
    goes through f's piece on j at its cut point, its image under g.
    """
    if f.base != g.base:
        raise RealizationMismatch("maps must share the base complex")
    ov = refine(_pulled_back(f, g))
    images = list(ov.at_vertices(lambda _, j, y: f.eval_in_cell(j, y)))
    return PLMap.trusted(g.base, ov.cells, images,
                         [g.cell_base[ov.provenance[s][0]] for s in ov.cells.simplices])


def _pulled_back(f: PLMap, g: PLMap):
    """The pieces of f∘g: the intersection of an image cell i of g and a
    cell j of f, pulled back through g's piece on i, with itself as the
    cut; both reversed where that piece reverses orientation (cell i has
    two `orientations`), so the pulled-back polygon is counter-clockwise.
    g is one to one, so each cut point, keyed by its row, is pulled back
    once, through the first piece that has it."""
    back: Dict[Hom, Hom] = {}
    for i, j, cut in cell_pieces(g.image, f.refinement):
        if len(cut) > 2 and g.refinement.orientations()[i] != g.image.orientations()[i]:
            cut = cut[::-1]
        pre = []
        for y in cut:
            x = back.get(y)
            if x is None:
                x = back[y] = g.pullback_in_cell(i, y)
            pre.append(x)
        yield i, j, pre, cut


def _common_refinement(t1: Complex, t2: Complex):
    """`refine` of two complexes that realize one set by construction."""
    return refine((i1, i2, x, x) for i1, i2, x in cell_pieces(t1, t2))


def inverse2d(f: PLMap) -> PLMap:
    """Exact inverse, on the common refinement of f's image and the base: a
    cell lies in the base cell of its provenance, and a vertex cut from
    image cell i pulls back through the piece of refinement cell i."""
    ov = _common_refinement(f.image, f.base)
    pre = list(ov.at_vertices(lambda i, _, y: f.pullback_in_cell(i, y)))
    return PLMap.trusted(f.base, ov.cells, pre,
                         [ov.provenance[s][1] for s in ov.cells.simplices])


def parse_plmap(text: str, base: Complex, tokens: Optional[TokenTable] = None) -> PLMap:
    """Parse the map format: a Complex block for the refinement, then
    `img <vertex> <coords...>` lines. The `base <file>` header, if any,
    must be resolved by the caller (see cli.load_map). A refinement block
    with the base's points and simplices (in any order) is the base itself,
    so it is not validated a second time; any other is validated.
    Coordinates go through ``tokens``, the request's `TokenTable` (or a new one)."""
    tokens = TokenTable() if tokens is None else tokens
    images: Dict[int, Point] = {}

    def read_img(lineno, tok, line):
        if len(tok) < 3 or not tok[1].isdecimal():
            raise ParseError(f"line {lineno}: bad img record {line!r}")
        i = int(tok[1])
        if i in images:
            raise ParseError(f"line {lineno}: duplicate img record for vertex {i}")
        images[i] = tuple([tokens[t] for t in tok[2:]])

    points, sims = read_complex_records(
        text, tokens, {"base": lambda lineno, tok, line: None, "img": read_img})
    same_simplices = sorted(tuple(sorted(s)) for s in sims) == list(base.simplices)
    if same_simplices and tuple(points) == base.points:
        refinement = base
    else:
        refinement = Complex(points, sims)
    if sorted(images) != list(range(refinement.vertex_count)):
        raise InvalidComplex("img records do not cover the refinement vertices")
    return PLMap(base, refinement, [images[i] for i in range(refinement.vertex_count)])


def format_plmap(f: PLMap, base_name: Optional[str] = None) -> str:
    lines = []
    if base_name is not None:
        lines.append("base %s" % base_name)
    lines.append(format_complex(f.refinement).rstrip("\n"))
    for i, h in enumerate(f.image.hom_points()):
        lines.append("img %d %s" % (i, fmt_hom(h)))
    return "\n".join(lines) + "\n"
