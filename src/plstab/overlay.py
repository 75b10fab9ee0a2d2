"""Common refinement of two triangulations of the same realization.

The 2D engine is pairwise exact convex intersection of triangles followed
by triangulation of each intersection polygon; the 1D engine merges
subdivision points along shared segments.  Output vertex indices follow
sorted coordinate order, so overlays are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple

from .clip import polygon_area2, triangle_intersection, triangulate_convex
from .complexes import Complex, SimplexT, index_cells, tri_tri_open_meet_3d
from .errors import NonCoplanarOverlap, RealizationMismatch
from .geometry import (Point, collinear_overlap, dot, drop_axis, plane_normal,
                       tiles_unit, vadd, vscale, vsub)


@dataclass(frozen=True)
class Overlay:
    """A triangulation refining two inputs, with per-cell provenance.

    ``provenance[s]`` gives, for each maximal simplex ``s`` of ``cells``,
    the pair (index into t1.simplices, index into t2.simplices) of the
    input simplices containing it.
    """

    cells: Complex
    provenance: Dict[SimplexT, Tuple[int, int]]


def _build(raw_cells, t1: Complex) -> Overlay:
    pts, sims = index_cells(cell for cell, _ in raw_cells)
    prov: Dict[SimplexT, Tuple[int, int]] = dict(zip(sims, (pair for _, pair in raw_cells)))
    cells = Complex(pts, sims, require_connected=t1.connected_flag)
    return Overlay(cells=cells, provenance=prov)


def overlay(t1: Complex, t2: Complex) -> Overlay:
    if t1.dim != t2.dim or t1.ambient_dim != t2.ambient_dim:
        raise RealizationMismatch("inputs have different dimensions")
    if t1.dim == 1:
        return _overlay_1d(t1, t2)
    return _overlay_2d(t1, t2)


# -- 1D ------------------------------------------------------------------


def _overlay_1d(t1: Complex, t2: Complex) -> Overlay:
    raw = []
    cover1 = [[] for _ in t1.simplices]
    cover2 = [[] for _ in t2.simplices]
    for i1, e1 in enumerate(t1.simplices):
        a1, b1 = (t1.points[v] for v in e1)
        d = vsub(b1, a1)
        for i2, e2 in enumerate(t2.simplices):
            a2, b2 = (t2.points[v] for v in e2)
            piece = collinear_overlap(a1, b1, a2, b2)
            if piece is None:
                continue
            (lo, hi), own2 = piece
            raw.append(((vadd(a1, vscale(lo, d)), vadd(a1, vscale(hi, d))), (i1, i2)))
            cover1[i1].append((lo, hi))
            cover2[i2].append(own2)
    for name, covers in (("first", cover1), ("second", cover2)):
        for intervals in covers:
            if not tiles_unit(intervals):
                raise RealizationMismatch(f"{name} input is not fully covered")
    return _build(raw, t1)


# -- 2D ------------------------------------------------------------------
#
# Cells are clipped in a plane.  In ambient dimension 2 that is the plane
# itself.  In ambient dimension 3 only coplanar cells may overlap: a chart
# (normal, dropped axis, offset) projects a cell's plane onto the coordinate
# plane its normal dominates, and the clipped pieces are lifted back.


def _tri_points(c: Complex, s: SimplexT):
    return [c.points[v] for v in s]


def _chart(tri):
    if len(tri[0]) == 2:
        return None
    n = plane_normal(*tri)
    return n, max(range(3), key=lambda k: abs(n[k])), dot(n, tri[0])


def _flat(pts, chart):
    if chart is None:
        return pts
    return [drop_axis(p, chart[1]) for p in pts]


def _lift(flat: Point, chart) -> Point:
    if chart is None:
        return flat
    n, ax, d = chart
    out = list(flat)
    out.insert(ax, (d - dot(drop_axis(n, ax), flat)) / n[ax])
    return tuple(out)


def _overlay_2d(t1: Complex, t2: Complex) -> Overlay:
    raw = []
    area1 = [Fraction(0)] * len(t1.simplices)
    area2 = [Fraction(0)] * len(t2.simplices)
    tris2 = [_tri_points(t2, s) for s in t2.simplices]
    for i1, s1 in enumerate(t1.simplices):
        tri1 = _tri_points(t1, s1)
        chart = _chart(tri1)
        flat1 = _flat(tri1, chart)
        for i2, tri2 in enumerate(tris2):
            if chart is not None and any(dot(chart[0], p) != chart[2] for p in tri2):
                if tri_tri_open_meet_3d(tri1, tri2):
                    raise NonCoplanarOverlap(
                        f"cells {s1} and {t2.simplices[i2]} overlap off-plane")
                continue
            poly = triangle_intersection(flat1, _flat(tri2, chart))
            a2x = abs(polygon_area2(poly)) if len(poly) >= 3 else 0
            if a2x == 0:
                continue
            for cell in triangulate_convex(poly):
                raw.append((tuple(_lift(p, chart) for p in cell), (i1, i2)))
            area1[i1] += a2x
            area2[i2] += a2x
    for c, areas, name in ((t1, area1, "first"), (t2, area2, "second")):
        for i, s in enumerate(c.simplices):
            tri = _tri_points(c, s)
            if areas[i] != abs(polygon_area2(_flat(tri, _chart(tri)))):
                raise RealizationMismatch(f"{name} input is not fully covered")
    return _build(raw, t1)
