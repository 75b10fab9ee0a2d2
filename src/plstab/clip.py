"""Exact convex clipping and triangulation helpers in the plane.

The clip kernel `triangle_intersection` takes counter-clockwise cells as
`geometry.HomCell`s, as `Complex.hom_cells` gives them, and cuts on
integer homogeneous coordinates: a vertex's side of an edge line L is
L·p, and a crossing point is a sum of two vertices' integer coordinates
reduced by one gcd; only crossings that survive all three cuts become
Fractions, once each.  `geometry.hom_cell` orients the loose inputs
of the two entry points, and `convex_fan` fans on rows its caller holds."""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple

from .complexes import in_closed_cell
from .geometry import Hom, HomCell, Point, affine_point, hom_cell, hom_cmp, homogeneous, orient2


def polygon_area2(poly: Sequence[Point]) -> Fraction:
    """Twice the signed area of a polygon given by its vertex cycle (exact).

    The shoelace sum on integer numerators over one denominator per axis,
    finished with one Fraction.
    """
    xs = [p[0].as_integer_ratio() for p in poly]
    ys = [p[1].as_integer_ratio() for p in poly]
    dx, dy = lcm(*(d for _, d in xs)), lcm(*(d for _, d in ys))
    x = [n * (dx // d) for n, d in xs]
    y = [n * (dy // d) for n, d in ys]
    return Fraction(sum(x[i - 1] * y[i] - x[i] * y[i - 1] for i in range(len(poly))),
                    dx * dy)


def triangle_intersection(poly: HomCell, tri: HomCell) -> List[Point]:
    """Intersection of a counter-clockwise convex polygon, with distinct
    vertices, and a counter-clockwise triangle, as a counter-clockwise
    cycle of points.

    The polygon is cut by the line L of each edge of the triangle in turn,
    keeping L·p >= 0 (left of the edge); a line with every vertex on that
    side cuts nothing.  Where an edge p->q of the polygon has its ends
    strictly on opposite sides, s_p = L·p and s_q = L·q, the crossing is
    |s_q| p + |s_p| q, reduced by one gcd so that equal points have equal
    tuples, which drop consecutive duplicates.  A kept vertex of the
    polygon is the caller's point; each crossing left at the end is
    converted once (`geometry.affine_point`).
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
    own = dict(zip(poly.homs, poly.points))
    return [own[h] if h in own else affine_point(h) for h in verts]


def clip_polygon_to_triangle(poly: Sequence[Point], tri: Sequence[Point]) -> List[Point]:
    """Intersection of a convex polygon, with distinct vertices, and a
    triangle, each in either orientation, as a counter-clockwise vertex
    cycle."""
    return triangle_intersection(hom_cell(poly), hom_cell(tri))


def point_in_triangle(x: Point, tri: Sequence[Point]) -> bool:
    """Is x in the closed triangle, given in either orientation?"""
    return in_closed_cell(homogeneous(x), hom_cell(tri))


def polygon_centroid(poly: Sequence[Point]) -> Point:
    """Area centroid of a polygon with nonzero area (exact)."""
    a2 = polygon_area2(poly)
    cx = Fraction(0)
    cy = Fraction(0)
    for i in range(len(poly)):
        p, q = poly[i], poly[(i + 1) % len(poly)]
        w = p[0] * q[1] - q[0] * p[1]
        cx += (p[0] + q[0]) * w
        cy += (p[1] + q[1]) * w
    return (cx / (3 * a2), cy / (3 * a2))


def convex_fan(poly: Sequence[Point], homs: Sequence[Hom]
               ) -> Tuple[List[Tuple[int, int, int]], Optional[Point]]:
    """Triangulate a convex polygon keeping every boundary vertex, by
    position: each triangle as three indices into ``poly``, where the index
    ``len(poly)`` stands for the centroid, returned second when it is used
    (None otherwise).

    Callers pass the polygon counter-clockwise, as clipping returns it,
    with its vertices' `homogeneous` rows ``homs``; each triangle comes
    out counter-clockwise too.  Fans from the least vertex by `hom_cmp`,
    testing each triangle by `orient2`.  When collinear boundary
    chains adjacent to that vertex would make a fan triangle degenerate (which
    would silently drop a boundary vertex and create a T-junction against the
    neighboring cell), falls back to coning from the centroid, which preserves
    every boundary edge.
    """
    n = len(poly)
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
    c = polygon_centroid(poly)
    h = homogeneous(c)
    return [(n, i, (i + 1) % n) for i in range(n)
            if orient2(h, homs[i], homs[(i + 1) % n]) != 0], c
