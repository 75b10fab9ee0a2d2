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

A map derived from validated maps is valid by construction and is built
with :meth:`PLMap.trusted`, which keeps the images it is handed and
checks nothing but two area identities in the plane (refinement, base and
image areas agree; a failure is an ``InternalError``).
:func:`compose2d`, :func:`inverse2d` and :func:`identity_map` build this
way, taking each cell's base cell from provenance.  The test suite
re-validates every trusted result.  A map's image is its refinement at
the images (`Complex.with_points`), with the refinement's incidence tables.

Every loop over pairs of cells that meet goes through the kernels of
:mod:`plstab.overlay`: `realized_pieces` under the two realization
checks, `cell_pieces` under composition, :func:`inverse2d` and equality,
whose inputs realize one set by construction; those build with
`overlay.refine`.  Each vertex is read at its cut point
(`Overlay.at_vertices`): f∘g maps its image under g, the image-side
point, through f's piece; an inverse pulls it back; ``f == g`` compares
the two maps' pieces there.

A map keeps one affine piece per refinement cell, from the cell to its
image, and one back, each solved on first use (`_solve_piece`, exact
integer rows over one denominator, so applying one builds a Fraction per
coordinate and nothing else).  `PLMap.eval_in_cell` applies the first,
and `PLMap.pullback_in_cell` the second under the pullbacks of
composition and inversion; `PLMap.eval` locates the cell first, on the
point's `homogeneous` coordinates and the refinement's cached
`Complex.hom_cells`.  The four-orientation barycentric solve they
replace is the tests' oracle.

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
from math import gcd, lcm, prod
from typing import Dict, List, Optional, Sequence, Tuple

from .complexes import (
    Complex,
    directed_boundary,
    format_complex,
    in_closed_cell,
    rational_points,
    read_complex_records,
)
from .errors import (
    InternalError,
    InvalidComplex,
    ParseError,
    PointOutsideComplex,
    RealizationMismatch,
    VertexNotInComplex,
)
from .geometry import (
    Mat,
    Point,
    TokenTable,
    between,
    fmt,
    homogeneous,
    orient2,
    rat,
)
from .overlay import cell_pieces, realized_pieces, refine


def _solve_piece(src: Sequence[Point], dst: Sequence[Point]):
    """The affine map taking the segment or planar triangle ``src`` onto the
    points ``dst``, as integer rows and a denominator D: the image of x has
    coordinates (m_0 x_0 + ... + m_(n-1) x_(n-1) + c) / D, row (m, c) by
    row.

    All points are first put over one integer denominator L.  A triangle
    abc goes by the matrix M with M(b - a) = B - A and M(c - a) = C - A and
    the offset A - M a; a segment ab by x -> A + t (B - A), where
    t = (x - a)·(b - a) / |b - a|² is x's parameter on it.
    """
    ratios = [c.as_integer_ratio() for p in (*src, *dst) for c in p]
    scale = lcm(*(q for _, q in ratios))
    ints = [p * (scale // q) for p, q in ratios]
    n = len(src[0])
    pts = [ints[k:k + n] for k in range(0, len(ints), n)]
    if len(src) == 3:
        a, b, c, A, B, C = pts
        u0, u1, v0, v1 = b[0] - a[0], b[1] - a[1], c[0] - a[0], c[1] - a[1]
        det = u0 * v1 - u1 * v0
        rows = []
        for k in range(2):
            bu, cv = B[k] - A[k], C[k] - A[k]
            m0, m1 = bu * v1 - cv * u1, cv * u0 - bu * v0
            rows.append((scale * m0, scale * m1, A[k] * det - m0 * a[0] - m1 * a[1]))
        den = scale * det
    else:
        a, b, A, B = pts
        d = [y - x for x, y in zip(a, b)]
        dd, ad = sum(x * x for x in d), sum(x * y for x, y in zip(a, d))
        rows = [tuple(scale * (Bk - Ak) * x for x in d) + (Ak * dd - (Bk - Ak) * ad,)
                for Ak, Bk in zip(A, B)]
        den = scale * dd
    g = gcd(den, *(x for row in rows for x in row))
    return tuple(tuple(x // g for x in row) for row in rows), den // g


def _apply_piece(piece, x: Point) -> Point:
    """x under a piece of `_solve_piece`: one Fraction per coordinate."""
    rows, den = piece
    ratios = [c.as_integer_ratio() for c in x]
    w = prod(q for _, q in ratios)
    nums = [p * (w // q) for p, q in ratios]
    den *= w
    return tuple(Fraction(sum(m * v for m, v in zip(row, nums)) + row[-1] * w, den)
                 for row in rows)


def _certified_image(base: Complex, refinement: Complex, images) -> Optional[Complex]:
    """The image complex of a planar map accepted by a local homeomorphism
    certificate in O(cells), or None for the exact checks to decide.

    With R the refinement (which tiles the base K) and f the images:

    1. the image points are pairwise distinct: the image R at the images
       (`Complex.with_points`) is built first, and its `hom_points`, like
       step 4's base `hom_points`, are hashed in place of Fractions;
    2. each image cell has a nonzero orientation σ (one `orient2` a cell,
       on those rows);
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
    returned with its rows, so a walk of it converts no point again.

    Every homeomorphism that maps the boundary edges of R one-to-one onto
    those of K passes.  The rest takes the exact path: every rejected map,
    every 1D map, boundary vertices that slide off the base's vertices,
    and refinements that subdivide the base's boundary.
    """
    if base.dim != 2:
        return None
    image = refinement.with_points(images)
    keys = image.hom_points()
    if len(set(keys)) != len(keys):
        return None
    signs = [orient2(keys[u], keys[v], keys[w]) for u, v, w in refinement.simplices]
    edges = directed_boundary(refinement.simplices, signs, refinement.facets())
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
        if len(images) != len(refinement.points):
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
    def trusted(cls, base: Complex, refinement: Complex, images: Sequence,
                cell_base: Sequence[int]) -> "PLMap":
        """A map that compose, invert or identity built from validated
        inputs, so valid by construction: ``refinement`` refines ``base``
        and ``cell_base`` comes from provenance.  The images, tuples of
        Fractions, are kept as built (`Complex.with_points`).

        In the plane, refinement area = base area = image area is checked
        as a tripwire (``InternalError``) against a lost or doubled cell.
        """
        self = cls.__new__(cls)
        self.base = base
        self.refinement = refinement
        self._pieces = None
        self.image = refinement.with_points(images)
        self.cell_base = tuple(cell_base)
        if base.dim == 2:
            area = base.area2()
            if refinement.area2() != area or self.image.area2() != area:
                raise InternalError("a derived map does not conserve the base area")
        return self

    @property
    def images(self) -> Tuple[Point, ...]:
        """The image of each refinement vertex."""
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
                raise RealizationMismatch(
                    f"refinement cell {s} is not inside any base simplex"
                )
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
        return self.images == self.refinement.points

    def moved_point(self) -> Optional[Point]:
        """A refinement vertex the map moves, or None for the identity."""
        return next((p for p, q in zip(self.refinement.points, self.images) if p != q), None)

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
        """f(x) on the first refinement cell that holds x: `between` on a
        segment, `in_closed_cell` on the cached `Complex.hom_cells`."""
        x, r = tuple(rat(c) for c in x), self.refinement
        if r.dim == 1:
            hits = (i for i, (u, v) in enumerate(r.simplices)
                    if between(r.points[u], r.points[v], x))
        else:
            h = homogeneous(x)
            hits = (i for i, cell in enumerate(r.hom_cells()) if in_closed_cell(h, cell))
        for i in hits:
            return self.eval_in_cell(i, x)
        raise PointOutsideComplex(f"({', '.join(fmt(c) for c in x)}) is not in the realization")

    def eval_in_cell(self, i: int, x: Point) -> Point:
        """x under the affine piece of refinement cell ``i``, for any point
        x: f(x) when x is in that closed cell, with no point location."""
        return _apply_piece(self._piece(i, 0), x)

    def pullback_in_cell(self, i: int, y: Point) -> Point:
        """y under the inverse of the affine piece of refinement cell ``i``:
        the preimage of any y in image cell ``i``."""
        return _apply_piece(self._piece(i, 1), y)

    def linear_part(self, i: int) -> Mat:
        """The matrix of the affine piece of planar refinement cell ``i``:
        entry (j, k) is m_k / D of the piece's row j."""
        rows, den = self._piece(i, 0)
        return Mat([[Fraction(m, den) for m in row[:2]] for row in rows])

    def _piece(self, i: int, backward: int):
        """The affine piece of cell ``i`` (from the refinement to the image,
        or back), solved on first use and kept."""
        if self._pieces is None:
            self._pieces = ([None] * len(self.refinement.simplices),
                            [None] * len(self.refinement.simplices))
        piece = self._pieces[backward][i]
        if piece is None:
            s = self.refinement.simplices[i]
            ends = ([self.refinement.points[v] for v in s], [self.images[v] for v in s])
            piece = self._pieces[backward][i] = _solve_piece(ends[backward],
                                                             ends[1 - backward])
        return piece

    def refinement_index_of_base_vertex(self, v: int) -> int:
        if not 0 <= v < len(self.base.points):
            raise VertexNotInComplex("vertex %d not in base complex" % v)
        # a base vertex is extreme in each base cell, so a corner of each refinement cell at it
        return self.refinement.points.index(self.base.points[v])


def identity_map(c: Complex) -> PLMap:
    return PLMap.trusted(c, c, c.points, range(len(c.simplices)))


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
    g is one to one, so each cut point, keyed by its `homogeneous`
    coordinates, is pulled back once, through the first piece that has it."""
    back: Dict[tuple, Point] = {}
    for i, j, cut in cell_pieces(g.image, f.refinement):
        if len(cut) > 2 and g.refinement.orientations()[i] != g.image.orientations()[i]:
            cut = cut[::-1]
        pre = []
        for y in cut:
            key = homogeneous(y)
            x = back.get(key)
            if x is None:
                x = back[key] = g.pullback_in_cell(i, y)
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
    if sorted(images) != list(range(len(refinement.points))):
        raise InvalidComplex("img records do not cover the refinement vertices")
    return PLMap(base, refinement, [images[i] for i in range(len(refinement.points))])


def format_plmap(f: PLMap, base_name: Optional[str] = None) -> str:
    lines = []
    if base_name is not None:
        lines.append("base %s" % base_name)
    lines.append(format_complex(f.refinement).rstrip("\n"))
    for i, p in enumerate(f.images):
        lines.append("img %d %s" % (i, " ".join(fmt(x) for x in p)))
    return "\n".join(lines) + "\n"
