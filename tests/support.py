"""Shared builders for the test suite: standard complexes, maps, a
random-triangulation generator for the unit square, and the oracles of
the affine pieces and the refinement check of `PLMap`."""

import random
from fractions import Fraction as F

from plstab.clip import point_in_triangle
from plstab.complexes import Complex
from plstab.errors import RealizationMismatch
from plstab.geometry import area2, candidate_pairs, segment_param, tiles_unit
from plstab.interval import PLMap1D
from plstab.plmap import PLMap, plmap_from_vertex_images


def affine(src, dst, x):
    """The oracle of the affine pieces of `PLMap`: the affine map taking the
    segment or planar triangle ``src`` onto the points ``dst``, at x, by
    x's barycentric coordinates in ``src`` (four `area2` solves for a
    triangle, x's parameter for a segment) combined over ``dst``."""
    if len(src) == 3:
        a, b, c = src
        d = area2(a, b, c)
        lam = (area2(x, b, c) / d, area2(a, x, c) / d, area2(a, b, x) / d)
    else:
        t = segment_param(src[0], src[1], x)
        lam = (1 - t, t)
    return tuple(sum(l * p[k] for l, p in zip(lam, dst)) for k in range(len(dst[0])))


def refinement_homes(base, refinement):
    """The oracle of the refinement check of `PLMap(...)`: the first base
    simplex containing each refinement cell, found by a containment test on
    every pair of cells whose boxes meet, then the tiling, by total area in
    the plane and by the parameter intervals on each base segment in 1D.
    Raises `RealizationMismatch` where a cell has no home or the cells do
    not tile the base."""
    def inside(x, cell):
        if len(cell) == 3:
            return point_in_triangle(x, cell)
        t = segment_param(cell[0], cell[1], x)
        return t is not None and 0 <= t <= 1

    cells, base_cells = refinement.cells(), base.cells()
    home = [None] * len(cells)
    for i, j in candidate_pairs(cells, base_cells):
        if home[i] is None and all(inside(p, base_cells[j]) for p in cells[i]):
            home[i] = j
    for s, h in zip(refinement.simplices, home):
        if h is None:
            raise RealizationMismatch(f"refinement cell {s} is not inside any base simplex")
    if base.dim == 2:
        if refinement.area2() != base.area2():
            raise RealizationMismatch("refinement does not tile the base")
        return tuple(home)
    per_base = [[] for _ in base.simplices]
    for cell, h in zip(cells, home):
        ts = sorted(segment_param(*base_cells[h], p) for p in cell)
        per_base[h].append((ts[0], ts[-1]))
    for bs, intervals in zip(base.simplices, per_base):
        if not tiles_unit(intervals):
            raise RealizationMismatch(f"refinement does not tile base simplex {bs}")
    return tuple(home)


def square_complex():
    pts = [(0, 0), (1, 0), (1, 1), (0, 1), (F(1, 2), F(1, 2))]
    return Complex(pts, [(0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4)])


def quarter_rotation():
    sq = square_complex()
    return plmap_from_vertex_images(
        sq, [(1, 0), (1, 1), (0, 1), (0, 0), (F(1, 2), F(1, 2))])


def three_cycle():
    return Complex([(0, 0), (1, 0), (0, 1)], [(0, 1), (1, 2), (0, 2)])


def cycle_rotation():
    cyc = three_cycle()
    return plmap_from_vertex_images(cyc, [(1, 0), (0, 1), (0, 0)])


def interior_move_map(target=(F(3, 4), F(5, 8))):
    """Identity outside the star of one interior vertex of the square."""
    pts = [(0, 0), (1, 0), (1, 1), (0, 1), (F(1, 2), 0), (F(1, 2), 1),
           (F(3, 4), F(1, 2))]
    sims = [(0, 4, 5), (0, 3, 5), (4, 1, 6), (1, 2, 6), (2, 5, 6), (4, 5, 6)]
    sq = Complex(pts, sims)
    imgs = list(pts)
    imgs[6] = target
    return PLMap(sq, sq, imgs)


def f1_map():
    """The standard PL map with breakpoint slopes 2, then 1/2."""
    return PLMap1D([(0, 0), (F(1, 4), F(1, 2)), (1, 1)])


def random_plmap1d(rng, max_breaks=20, a=F(0), b=F(1)):
    """Random increasing PL bijection of [a, b] with at most max_breaks
    interior breakpoints."""
    k = rng.randint(0, max_breaks)
    xs = sorted({a, b} | {a + (b - a) * F(rng.randint(1, 95), 96)
                          for _ in range(k)})
    ys = sorted({a, b} | {a + (b - a) * F(rng.randint(1, 95), 96)
                          for _ in range(len(xs) - 2)})
    while len(ys) < len(xs):
        ys = sorted(set(ys) | {a + (b - a) * F(rng.randint(1, 191), 192)})
    return PLMap1D(list(zip(xs, sorted(ys)[:len(xs)])))


def random_square_triangulation(rng, max_triangles=12):
    """Random triangulation of the unit square by repeated centroid and
    edge-midpoint splits of the 2-triangle start."""
    return random_splits(rng, [(F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1))],
                         [(0, 1, 2), (0, 2, 3)], max_triangles)


def random_splits(rng, points, tris, max_triangles):
    """The planar triangulation ``points``, ``tris`` refined by repeated
    centroid and edge-midpoint splits, up to ``max_triangles`` cells."""
    points, tris = list(points), list(tris)
    while len(tris) < max_triangles and rng.random() < 0.8:
        if rng.random() < 0.5:
            # centroid split of one triangle
            t = tris.pop(rng.randrange(len(tris)))
            a, b, c = (points[v] for v in t)
            cen = tuple((x + y + z) / 3 for x, y, z in zip(a, b, c))
            points.append(cen)
            m = len(points) - 1
            tris += [(t[0], t[1], m), (t[1], t[2], m), (t[2], t[0], m)]
        else:
            if len(tris) + 2 > max_triangles:
                continue
            # midpoint split of one edge, propagated to all incident triangles
            t = tris[rng.randrange(len(tris))]
            i = rng.randrange(3)
            u, v = t[i], t[(i + 1) % 3]
            mid = tuple((points[u][j] + points[v][j]) / 2 for j in range(2))
            points.append(mid)
            m = len(points) - 1
            new = []
            for s in tris:
                if u in s and v in s:
                    w = next(x for x in s if x not in (u, v))
                    new += [(u, w, m), (v, w, m)]
                else:
                    new.append(s)
            tris = new
    return Complex(points, tris)
