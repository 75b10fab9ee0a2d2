"""Simplicial-affine self-maps of a triangulated 1- or 2-manifold.

A :class:`PLMap` is a base complex, a refinement of it, and one image
point per refinement vertex; the map is the affine extension per cell.
Construction validates the whole homeomorphism story exactly: the
refinement tiles the base, image cells are nondegenerate with pairwise
disjoint interiors, the image realizes the base again, and boundary goes
to boundary.  Composition and inversion return fully validated maps.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .clip import (
    point_in_triangle,
    polygon_area2,
    triangle_intersection,
    triangulate_convex,
)
from .complexes import (
    Complex,
    SimplexT,
    boundary,
    format_complex,
    index_cells,
    parse_complex,
    seg_seg_open_meet,
    triangle_area2,
)
from .errors import (
    InvalidComplex,
    NondegenerateViolation,
    ParseError,
    PointOutsideComplex,
    RealizationMismatch,
)
from .geometry import (
    Point,
    bbox,
    boxes_apart,
    collinear_overlap,
    fmt,
    orient2,
    rat,
    segment_param,
    tiles_unit,
    vadd,
    vscale,
    vsub,
)
from .overlay import overlay


def barycentric2(tri: Sequence[Point], x: Point) -> Optional[Tuple[Fraction, ...]]:
    """Barycentric coordinates of x in a planar triangle, or None if outside."""
    a, b, c = tri
    d = orient2(a, b, c)
    l0 = Fraction(orient2(x, b, c), d)
    l1 = Fraction(orient2(a, x, c), d)
    l2 = Fraction(orient2(a, b, x), d)
    if l0 < 0 or l1 < 0 or l2 < 0:
        return None
    return (l0, l1, l2)


def _combine(points: Sequence[Point], lambdas) -> Point:
    out = tuple(Fraction(0) for _ in points[0])
    for p, l in zip(points, lambdas):
        out = vadd(out, vscale(l, p))
    return out


class PLMap:
    """PL self-homeomorphism of the realization of a base complex."""

    __slots__ = ("base", "refinement", "images", "cell_base")

    def __init__(self, base: Complex, refinement: Complex, images: Sequence):
        self.base = base
        self.refinement = refinement
        self.images: Tuple[Point, ...] = tuple(tuple(rat(c) for c in p) for p in images)
        if base.dim != refinement.dim or base.ambient_dim != refinement.ambient_dim:
            raise RealizationMismatch("refinement must live where the base lives")
        if base.dim == 2 and base.ambient_dim != 2:
            raise InvalidComplex("2D maps are supported in ambient dimension 2 only")
        if len(self.images) != len(refinement.points):
            raise InvalidComplex("need one image point per refinement vertex")
        if any(len(p) != base.ambient_dim for p in self.images):
            raise InvalidComplex("image points have the wrong ambient dimension")
        self.cell_base: Tuple[int, ...] = self._assign_cells()
        self._check_coverage()
        self._check_image_homeomorphism()
        self._check_boundary_preserved()

    # -- construction-time validation ------------------------------------

    def _cell_points(self, s: SimplexT) -> List[Point]:
        return [self.refinement.points[v] for v in s]

    def _cell_images(self, s: SimplexT) -> List[Point]:
        return [self.images[v] for v in s]

    def _assign_cells(self) -> Tuple[int, ...]:
        out = []
        for s in self.refinement.simplices:
            pts = self._cell_points(s)
            home = None
            for i, bs in enumerate(self.base.simplices):
                bpts = [self.base.points[v] for v in bs]
                if self.base.dim == 2:
                    inside = all(point_in_triangle(p, bpts) for p in pts)
                else:
                    inside = all(
                        (t := segment_param(bpts[0], bpts[1], p)) is not None
                        and 0 <= t <= 1
                        for p in pts
                    )
                if inside:
                    home = i
                    break
            if home is None:
                raise RealizationMismatch(
                    f"refinement cell {s} is not inside any base simplex"
                )
            out.append(home)
        return tuple(out)

    def _check_coverage(self):
        if self.base.dim == 2:
            per_base = [Fraction(0)] * len(self.base.simplices)
            for s, home in zip(self.refinement.simplices, self.cell_base):
                per_base[home] += triangle_area2(self._cell_points(s))
            for i, bs in enumerate(self.base.simplices):
                if per_base[i] != triangle_area2([self.base.points[v] for v in bs]):
                    raise RealizationMismatch(
                        f"refinement does not tile base simplex {bs}"
                    )
        else:
            per_base = [[] for _ in self.base.simplices]
            for s, home in zip(self.refinement.simplices, self.cell_base):
                a, b = [self.base.points[v] for v in self.base.simplices[home]]
                ts = sorted(
                    segment_param(a, b, p) for p in self._cell_points(s)
                )
                per_base[home].append((ts[0], ts[-1]))
            for i, intervals in enumerate(per_base):
                if not tiles_unit(intervals):
                    raise RealizationMismatch(
                        f"refinement does not tile base simplex {self.base.simplices[i]}"
                    )

    def _check_image_homeomorphism(self):
        cells = [self._cell_images(s) for s in self.refinement.simplices]
        if self.base.dim == 2:
            for s, img in zip(self.refinement.simplices, cells):
                if len(set(img)) != 3 or orient2(*img) == 0:
                    raise NondegenerateViolation(f"cell {s} has a degenerate image")
            # pairwise disjoint interiors (bounding-box prefilter)
            boxes = [bbox(img) for img in cells]
            for i in range(len(cells)):
                for j in range(i + 1, len(cells)):
                    if boxes_apart(boxes[i], boxes[j]):
                        continue
                    poly = triangle_intersection(cells[i], cells[j])
                    if len(poly) >= 3 and polygon_area2(poly) != 0:
                        raise InvalidComplex("image cells overlap; not injective")
            # image realizes the base: same total area and containment
            base_area = sum(
                triangle_area2([self.base.points[v] for v in bs])
                for bs in self.base.simplices
            )
            img_area = sum(triangle_area2(img) for img in cells)
            if img_area != base_area:
                raise RealizationMismatch("image area differs from base area")
            base_tris = [[self.base.points[v] for v in bs] for bs in self.base.simplices]
            base_boxes = [bbox(t) for t in base_tris]
            for img, box in zip(cells, boxes):
                covered = Fraction(0)
                for bt, bb in zip(base_tris, base_boxes):
                    if boxes_apart(box, bb):
                        continue
                    poly = triangle_intersection(img, bt)
                    if len(poly) >= 3:
                        covered += abs(polygon_area2(poly))
                if covered != triangle_area2(img):
                    raise RealizationMismatch("an image cell leaves the base realization")
        else:
            for s, img in zip(self.refinement.simplices, cells):
                if img[0] == img[1]:
                    raise NondegenerateViolation(f"cell {s} has a degenerate image")
            for i in range(len(cells)):
                for j in range(i + 1, len(cells)):
                    if seg_seg_open_meet(cells[i][0], cells[i][1],
                                         cells[j][0], cells[j][1]):
                        raise InvalidComplex("image cells overlap; not injective")
            # every base edge tiled by image segments, every image segment used up
            per_base = [[] for _ in self.base.simplices]
            for img in cells:
                own = []
                for k, bs in enumerate(self.base.simplices):
                    a, b = [self.base.points[v] for v in bs]
                    piece = collinear_overlap(img[0], img[1], a, b)
                    if piece is None:
                        continue
                    per_base[k].append(piece[1])
                    own.append(piece[0])
                if not tiles_unit(own):
                    raise RealizationMismatch("an image cell leaves the base realization")
            for k, intervals in enumerate(per_base):
                if not tiles_unit(intervals):
                    raise RealizationMismatch(
                        f"image does not cover base simplex {self.base.simplices[k]}"
                    )

    def _check_boundary_preserved(self):
        bd_base = boundary(self.base)
        bd_ref = boundary(self.refinement)
        if self.base.dim == 2:
            bd_segments = [
                (self.base.points[e[0]], self.base.points[e[1]])
                for e in bd_base.of_dim(1)
            ]
            for e in bd_ref.of_dim(1):
                p, q = self.images[e[0]], self.images[e[1]]
                if not _segment_covered(p, q, bd_segments):
                    raise InvalidComplex("boundary is not mapped into the boundary")
        else:
            bd_points = {self.base.points[v[0]] for v in bd_base.of_dim(0)}
            for v in bd_ref.of_dim(0):
                if self.images[v[0]] not in bd_points:
                    raise InvalidComplex("boundary is not mapped into the boundary")

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
        """Pointwise equality, decided via a common refinement."""
        if not isinstance(other, PLMap):
            return NotImplemented
        if self.base != other.base:
            return False
        ov = overlay(self.refinement, other.refinement)
        for s in ov.cells.simplices:
            for v in s:
                x = ov.cells.points[v]
                if self.eval(x) != other.eval(x):
                    return False
        return True

    def __repr__(self):
        return (
            f"PLMap(dim={self.base.dim}, cells={len(self.refinement.simplices)})"
        )

    def eval(self, x) -> Point:
        x = tuple(rat(c) for c in x)
        for s in self.refinement.simplices:
            pts = self._cell_points(s)
            if self.base.dim == 2:
                lam = barycentric2(pts, x)
                if lam is not None:
                    return _combine(self._cell_images(s), lam)
            else:
                t = segment_param(pts[0], pts[1], x)
                if t is not None and 0 <= t <= 1:
                    return _combine(self._cell_images(s), (1 - t, t))
        raise PointOutsideComplex(f"{x} is not in the realization")

    def image_complex(self) -> Complex:
        return Complex(
            self.images,
            self.refinement.simplices,
            require_connected=self.base.connected_flag,
        )

    def refinement_index_of_base_vertex(self, v: int) -> int:
        p = self.base.points[v]
        for i, q in enumerate(self.refinement.points):
            if q == p:
                return i
        raise InvalidComplex(f"base vertex {v} missing from the refinement")


def identity_map(c: Complex) -> PLMap:
    return PLMap(c, c, c.points)


def plmap_from_vertex_images(c: Complex, images: Sequence) -> PLMap:
    """Map affine on each maximal simplex of c itself (refinement = base)."""
    return PLMap(c, c, images)


# -- operations ----------------------------------------------------------


def eval2d(f: PLMap, x) -> Point:
    return f.eval(x)


def compose2d(f: PLMap, g: PLMap) -> PLMap:
    """The map x -> f(g(x)); the result's refinement refines g's."""
    if f.base != g.base:
        raise RealizationMismatch("maps must share the base complex")
    if f.base.dim == 2:
        raw = _compose_cells_2d(f, g)
    else:
        raw = _compose_cells_1d(f, g)
    pts, sims = index_cells(raw)
    ref = Complex(pts, sims, require_connected=g.base.connected_flag)
    images = [f.eval(g.eval(p)) for p in pts]
    return PLMap(g.base, ref, images)


def _compose_cells_2d(f: PLMap, g: PLMap):
    raw = []
    for s in g.refinement.simplices:
        src = [g.refinement.points[v] for v in s]
        img = [g.images[v] for v in s]
        for t in f.refinement.simplices:
            tri = [f.refinement.points[v] for v in t]
            poly = triangle_intersection(img, tri)
            if len(poly) < 3 or polygon_area2(poly) == 0:
                continue
            back = [_pullback2(src, img, p) for p in poly]
            for cell in triangulate_convex(back):
                raw.append(cell)
    return raw


def _pullback2(src, img, p: Point) -> Point:
    lam = barycentric2(img, p)
    if lam is None:
        # p is on the image triangle's boundary up to orientation; recompute
        # without the sign filter
        a, b, c = img
        d = orient2(a, b, c)
        lam = (
            Fraction(orient2(p, b, c), d),
            Fraction(orient2(a, p, c), d),
            Fraction(orient2(a, b, p), d),
        )
    return _combine(src, lam)


def _compose_cells_1d(f: PLMap, g: PLMap):
    raw = []
    fverts = list(dict.fromkeys(f.refinement.points))
    for s in g.refinement.simplices:
        a, b = (g.refinement.points[v] for v in s)
        ia, ib = (g.images[v] for v in s)
        cuts = {Fraction(0), Fraction(1)}
        for w in fverts:
            t = segment_param(ia, ib, w)
            if t is not None and 0 < t < 1:
                cuts.add(t)
        ts = sorted(cuts)
        d = vsub(b, a)
        for t0, t1 in zip(ts, ts[1:]):
            raw.append((vadd(a, vscale(t0, d)), vadd(a, vscale(t1, d))))
    return raw


def inverse2d(f: PLMap) -> PLMap:
    """Exact inverse; its refinement is the overlay of f's image with the base."""
    img = f.image_complex()
    ov = overlay(img, f.base)
    n = len(ov.cells.points)
    pre: List[Optional[Point]] = [None] * n
    for s in ov.cells.simplices:
        i_img, _ = ov.provenance[s]
        # image-complex simplices carry the refinement's vertex indices, so
        # one tuple addresses both sides of the map
        img_pts = [img.points[v] for v in img.simplices[i_img]]
        src_pts = [f.refinement.points[v] for v in img.simplices[i_img]]
        for v in s:
            x = ov.cells.points[v]
            if f.base.dim == 2:
                back = _pullback2(src_pts, img_pts, x)
            else:
                t = segment_param(img_pts[0], img_pts[1], x)
                back = _combine(src_pts, (1 - t, t))
            if pre[v] is None:
                pre[v] = back
            elif pre[v] != back:
                raise InvalidComplex("inconsistent inverse images")
    return PLMap(f.base, ov.cells, pre)


def power(f: PLMap, k: int) -> PLMap:
    if k < 1:
        raise ValueError("k must be >= 1")
    out = f
    for _ in range(k - 1):
        out = compose2d(f, out)
    return out


# -- small geometric helpers ---------------------------------------------


def _segment_covered(p, q, segments) -> bool:
    """Is [p, q] fully covered by the union of the given segments?"""
    intervals = []
    for a, b in segments:
        piece = collinear_overlap(p, q, a, b)
        if piece is not None:
            intervals.append(piece[0])
    return tiles_unit(intervals)


def parse_plmap(text: str, base: Complex) -> PLMap:
    """Parse the map format: a Complex block for the refinement, then
    `img <vertex> <coords...>` lines. The `base <file>` header, if any,
    must be resolved by the caller (see cli.load_map)."""
    complex_lines = []
    images: Dict[int, Point] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        if tok[0] == "base":
            continue
        if tok[0] == "img":
            if len(tok) < 3 or not tok[1].isdecimal():
                raise ParseError(f"bad img record {line!r}")
            images[int(tok[1])] = tuple(rat(t) for t in tok[2:])
        else:
            complex_lines.append(line)
    refinement = parse_complex("\n".join(complex_lines))
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
