"""Exact convex clipping and triangulation helpers in the plane: the clip
kernel `triangle_intersection` takes counter-clockwise cells, and only the
two entry points for loose triangles orient theirs (`ccw_triangle`)."""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import List, Optional, Sequence, Tuple

from .complexes import in_closed_cell
from .geometry import Point, area2, orient2, vadd, vscale, vsub


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


def _clip_halfplane(poly: List[Point], a: Point, b: Point) -> List[Point]:
    """Keep the part of `poly` with orient2(a, b, x) >= 0 (left of a->b).

    Each vertex's side is an `orient2` sign; Fractions are built only for
    a crossing point, from the `area2` of the edge's two ends.
    """
    out: List[Point] = []
    n = len(poly)
    sides = [orient2(a, b, p) for p in poly]
    for i in range(n):
        p, q = poly[i], poly[(i + 1) % n]
        sp, sq = sides[i], sides[(i + 1) % n]
        if sp >= 0:
            out.append(p)
        if sp * sq < 0:
            ap, aq = area2(a, b, p), area2(a, b, q)
            out.append(vadd(p, vscale(ap / (ap - aq), vsub(q, p))))
    # drop consecutive duplicates
    dedup: List[Point] = []
    for p in out:
        if not dedup or dedup[-1] != p:
            dedup.append(p)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return dedup


def ccw_triangle(tri: Sequence[Point]) -> List[Point]:
    t = list(tri)
    if orient2(*t) < 0:
        t.reverse()
    return t


def triangle_intersection(poly: Sequence[Point], tri: Sequence[Point]) -> List[Point]:
    """Intersection of a counter-clockwise convex polygon with a
    counter-clockwise triangle, as a counter-clockwise vertex cycle."""
    for i in range(3):
        poly = _clip_halfplane(poly, tri[i], tri[(i + 1) % 3])
        if not poly:
            return []
    return poly


def clip_polygon_to_triangle(poly: Sequence[Point], tri: Sequence[Point]) -> List[Point]:
    """Intersection of a convex polygon with a triangle, each in either
    orientation, as a counter-clockwise vertex cycle."""
    out = list(poly)
    if polygon_area2(out) < 0:
        out.reverse()
    return triangle_intersection(out, ccw_triangle(tri))


def point_in_triangle(x: Point, tri: Sequence[Point]) -> bool:
    """Is x in the closed triangle, given in either orientation?"""
    return in_closed_cell(x, ccw_triangle(tri))


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


def convex_fan(poly: Sequence[Point]) -> Tuple[List[Tuple[int, int, int]], Optional[Point]]:
    """Triangulate a convex polygon keeping every boundary vertex, by
    position: each triangle as three indices into ``poly``, where the index
    ``len(poly)`` stands for the centroid, returned second when it is used
    (None otherwise).

    Callers pass the polygon counter-clockwise, as clipping returns it;
    each triangle comes out counter-clockwise too.  Fans from the
    lexicographically smallest vertex.  When collinear boundary
    chains adjacent to that vertex would make a fan triangle degenerate (which
    would silently drop a boundary vertex and create a T-junction against the
    neighboring cell), falls back to coning from the centroid, which preserves
    every boundary edge.
    """
    n = len(poly)
    if n < 3:
        return [], None
    apex = min(range(n), key=poly.__getitem__)
    rest = [(apex + k) % n for k in range(1, n)]
    tris = []
    for i, j in zip(rest, rest[1:]):
        if orient2(poly[apex], poly[i], poly[j]) == 0:
            break
        tris.append((apex, i, j))
    else:
        return tris, None
    c = polygon_centroid(poly)
    return [(n, i, (i + 1) % n) for i in range(n)
            if orient2(c, poly[i], poly[(i + 1) % n]) != 0], c
