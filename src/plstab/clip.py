"""Exact convex clipping and triangulation helpers in the plane.

Points are integer `homogeneous` rows, but at the loose entry points
`clip_polygon_to_triangle` and `point_in_triangle` (oriented by
`geometry.hom_cell`).  The clip kernel `triangle_intersection` takes
counter-clockwise `geometry.HomCell`s, as `Complex.hom_cells` gives
them: a vertex's side of an edge line L is L·p, and a crossing point is
a sum of two vertices' rows reduced by one gcd."""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from math import gcd
from typing import List, Optional, Sequence, Tuple

from .complexes import in_closed_cell
from .geometry import (Hom, HomCell, Point, affine_point, hom_cell, hom_cmp, homogeneous,
                       on_one_grid, orient2)


def polygon_area2(poly: Sequence[Hom]) -> Fraction:
    """Twice the signed area of a polygon given by the `homogeneous` rows
    of its vertex cycle: the shoelace sum over one W, as one Fraction."""
    pts, w = on_one_grid(poly)
    return Fraction(sum(pts[i - 1][0] * pts[i][1] - pts[i][0] * pts[i - 1][1]
                        for i in range(len(pts))), w * w)


def triangle_intersection(poly: HomCell, tri: HomCell) -> List[Hom]:
    """Intersection of a counter-clockwise convex polygon, with distinct
    vertices, and a counter-clockwise triangle, as a counter-clockwise
    cycle of `homogeneous` rows.

    The polygon is cut by the line L of each edge of the triangle in turn,
    keeping L·p >= 0 (left of the edge); a line with every vertex on that
    side cuts nothing.  Where an edge p->q of the polygon has its ends
    strictly on opposite sides, s_p = L·p and s_q = L·q, the crossing is
    |s_q| p + |s_p| q, reduced by one gcd so that equal points have equal
    tuples, which drop consecutive duplicates.
    """
    verts = list(poly.homs)
    for a, b, c in tri.lines:
        sides = [a * x + b * y + c * w for x, y, w in verts]
        if min(sides) >= 0:
            continue
        out: List[Hom] = []
        n = len(verts)
        q, sq = verts[0], sides[0]
        for i in range(1 - n, 1):  # q runs over verts[1:] and then verts[0]
            p, sp, q, sq = q, sq, verts[i], sides[i]
            if sp >= 0:
                out.append(p)
            if sp > 0 > sq or sp < 0 < sq:
                u, v = abs(sq), abs(sp)
                x, y, w = u * p[0] + v * q[0], u * p[1] + v * q[1], u * p[2] + v * q[2]
                g = gcd(x, y, w)
                out.append((x // g, y // g, w // g))
        verts = [p for k, p in enumerate(out) if not k or out[k - 1] != p]
        if len(verts) > 1 and verts[0] == verts[-1]:
            verts.pop()
        if not verts:
            return []
    return verts


def clip_polygon_to_triangle(poly: Sequence[Point], tri: Sequence[Point]) -> List[Point]:
    """Intersection of a convex polygon, with distinct vertices, and a
    triangle, each given as points in either orientation, as a
    counter-clockwise cycle of points."""
    return [affine_point(h) for h in triangle_intersection(hom_cell(poly), hom_cell(tri))]


def point_in_triangle(x: Point, tri: Sequence[Point]) -> bool:
    """Is x in the closed triangle, given in either orientation?"""
    return in_closed_cell(homogeneous(x), hom_cell(tri))


def polygon_centroid(poly: Sequence[Hom]) -> Hom:
    """The row of the area centroid of a polygon with nonzero area, given
    by the rows of its vertex cycle: over one W, each edge's cross product
    weighs the sum of its ends, over 3 W times twice the area."""
    pts, w = on_one_grid(poly)
    cx = cy = a2 = 0
    for (px, py, _), (qx, qy, _) in zip(pts, pts[1:] + pts[:1]):
        cross = px * qy - qx * py
        cx, cy, a2 = cx + (px + qx) * cross, cy + (py + qy) * cross, a2 + cross
    w *= 3 * a2
    g = gcd(cx, cy, w)
    if w < 0:  # a clockwise cycle
        g = -g
    return cx // g, cy // g, w // g


def convex_fan(homs: Sequence[Hom]) -> Tuple[List[Tuple[int, int, int]], Optional[Hom]]:
    """Triangulate a convex polygon keeping every boundary vertex, by
    position: each triangle as three indices into ``homs``, the
    `homogeneous` rows of the polygon's vertices, where the index
    ``len(homs)`` stands for the centroid, whose row is returned second
    when it is used (None otherwise).

    Callers pass the polygon counter-clockwise, as clipping returns it;
    each triangle comes out counter-clockwise too.  Fans from the least
    vertex by `hom_cmp`, testing each triangle by `orient2`.  When
    collinear boundary chains adjacent to that vertex would make a fan
    triangle degenerate (which would silently drop a boundary vertex and
    create a T-junction against the neighboring cell), falls back to
    coning from the `polygon_centroid`, which preserves every boundary
    edge.
    """
    n = len(homs)
    if n < 3:
        return [], None
    apex = homs.index(min(homs, key=cmp_to_key(hom_cmp)))
    rest = [(apex + k) % n for k in range(1, n)]
    tris = []
    for i, j in zip(rest, rest[1:]):
        if orient2(homs[apex], homs[i], homs[j]) == 0:
            break
        tris.append((apex, i, j))
    else:
        return tris, None
    c = polygon_centroid(homs)
    return [(n, i, (i + 1) % n) for i in range(n)
            if orient2(c, homs[i], homs[(i + 1) % n]) != 0], c
