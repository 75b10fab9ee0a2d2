"""Common refinement of two triangulations of the same realization, and
the one cell-pair kernel under it.

:func:`triangle_pieces` and :func:`segment_pieces` yield, for every pair
of cells of two lists whose interiors meet, their intersection: a convex
polygon for triangles, a pair of parameter intervals for segments.  Each
enumerates the candidate pairs of `candidate_pairs` and clips only the
pairs whose interiors meet.  Overlay, composition, map equality and the
exact image checks of `plmap` all go through them, so they are the only
callers of `triangle_intersection` and `collinear_overlap`.

The 2D overlay triangulates each intersection polygon; the 1D overlay
keeps each overlap segment.  Output vertex indices follow sorted
coordinate order, so overlays are reproducible.  The inputs are validated
complexes of one realization, so the overlay is a valid complex by
construction and is built trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple

from .clip import polygon_area2, triangle_intersection, triangulate_convex
from .complexes import (Complex, SimplexT, index_cells, tri_tri_open_meet_2d,
                        tri_tri_open_meet_3d)
from .errors import NonCoplanarOverlap, RealizationMismatch
from .geometry import (Point, candidate_pairs, collinear_overlap, dot, drop_axis,
                       plane_normal, tiles_unit, vadd, vscale, vsub)


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
    cells = Complex.trusted(pts, sims, t1.connected_flag)
    return Overlay(cells=cells, provenance=prov)


def overlay(t1: Complex, t2: Complex) -> Overlay:
    if t1.dim != t2.dim or t1.ambient_dim != t2.ambient_dim:
        raise RealizationMismatch("inputs have different dimensions")
    if t1.dim == 1:
        return _overlay_1d(t1, t2)
    return _overlay_2d(t1, t2)


# -- 1D ------------------------------------------------------------------


def segment_pieces(segs1, segs2):
    """(i1, i2, ((lo1, hi1), (lo2, hi2))) for each pair of a segment of
    ``segs1`` and one of ``segs2`` that overlap in positive length: the
    parameter intervals of the overlap along each of the two segments."""
    for i1, i2 in candidate_pairs(segs1, segs2):
        piece = collinear_overlap(*segs1[i1], *segs2[i2])
        if piece is not None:
            yield i1, i2, piece


def _overlay_1d(t1: Complex, t2: Complex) -> Overlay:
    raw = []
    segs1, segs2 = t1.cells(), t2.cells()
    cover1 = [[] for _ in segs1]
    cover2 = [[] for _ in segs2]
    for i1, i2, ((lo, hi), own2) in segment_pieces(segs1, segs2):
        a1, b1 = segs1[i1]
        d = vsub(b1, a1)
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


def triangle_pieces(tris1, tris2):
    """(i1, i2, polygon) for each pair of a triangle of ``tris1`` and one of
    ``tris2`` whose interiors meet: their intersection, a counter-clockwise
    convex polygon in the chart of ``tris1[i1]``, which in ambient
    dimension 2 is the plane itself.  In ambient dimension 3, two triangles
    whose interiors meet off a common plane raise `NonCoplanarOverlap`."""
    charts1 = [_chart(tri) for tri in tris1]
    flats1 = [_flat(tri, chart) for tri, chart in zip(tris1, charts1)]
    for i1, i2 in candidate_pairs(tris1, tris2):
        chart, tri2 = charts1[i1], tris2[i2]
        if chart is not None and any(dot(chart[0], p) != chart[2] for p in tri2):
            if tri_tri_open_meet_3d(tris1[i1], tri2):
                raise NonCoplanarOverlap(
                    f"cell {i1} of the first input and cell {i2} of the second"
                    " overlap off-plane")
            continue
        flat2 = _flat(tri2, chart)
        if tri_tri_open_meet_2d(flats1[i1], flat2):
            yield i1, i2, triangle_intersection(flats1[i1], flat2)


def _overlay_2d(t1: Complex, t2: Complex) -> Overlay:
    raw = []
    tris1, tris2 = t1.cells(), t2.cells()
    charts1 = [_chart(tri) for tri in tris1]
    area1 = [Fraction(0)] * len(tris1)
    area2 = [Fraction(0)] * len(tris2)
    for i1, i2, poly in triangle_pieces(tris1, tris2):
        a2x = abs(polygon_area2(poly))
        for cell in triangulate_convex(poly):
            raw.append((tuple(_lift(p, charts1[i1]) for p in cell), (i1, i2)))
        area1[i1] += a2x
        area2[i2] += a2x
    for tris, areas, name in ((tris1, area1, "first"), (tris2, area2, "second")):
        for tri, a2x in zip(tris, areas):
            if a2x != abs(polygon_area2(_flat(tri, _chart(tri)))):
                raise RealizationMismatch(f"{name} input is not fully covered")
    return _build(raw, t1)
