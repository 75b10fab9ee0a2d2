"""Shared builders for the test suite: standard complexes, maps, a
random-triangulation generator for the unit square, the oracles of the
affine pieces and the refinement check of `PLMap`, those of the
segment overlap predicate of `complexes` and of its rule that cells meet
in common faces, the closed surfaces of the surface tests, that of the simple-polygon test of
`geometry`, those of the germ construction and fan refinement of
`tangent`, and the per-token parse that the loader's token table
replaced; the grid complexes and grid maps of the square, the
`Fraction` merge that the breakpoint-row merge of
`interval.compose_breakpoints` replaced, the `Fraction` resampling that
`circle.inverse_lift` replaced, the chord evaluation that the stored
slopes of `interval.value_at` replaced, the parameter-interval
accounting (`tiles_unit`) that the segment measure of
`overlay.realized_pieces` replaced, the `Fraction` parse that
`geometry.ratio` replaced, the `Fraction` validating constructor of
interval maps and circle lifts that the one on breakpoint rows replaced,
the `Fraction` elimination that the integer determinant of
`presentation` replaced, the point-keyed builders of overlays and
composites that `overlay.refine` and `overlay.numbered` replaced, the
`Fraction` sort of `numbered` before its integer comparison, the keyed
sort of `complexes.close_under_faces`, the
three edge pairings that the facet table of `complexes` replaced, the
per-cell orientations that `Complex.orientations` replaced in the piece
enumeration and in composition, the `Fraction` clipper, meets-tests and
area sum that the integer homogeneous kernel replaced, the `orient2`
orientation of loose triangles and the closed-cell test and point
location that `geometry.hom_cell`, `complexes.in_closed_cell` and
`PLMap.eval` replaced, the `Fraction` `orient2`, `closed_segments_meet`
and `convex_fan` that the ones on `homogeneous` rows replaced, the
`Fraction` piece solve and application, polygon area and centroid that
the ones on rows replaced, with the `Fraction` composition and inversion
built on them, `power`, the composite f^k, and the `Fraction` vectors
and segment tests (`segment_param`, `overlap_params`, the point form of
`collinear_overlap`, `between` and `seg_seg_open_meet`) that the ones on
rows replaced.
Every helper that more than one test module uses lives here or, if it is
a hypothesis strategy, in `strategies`, so no test module imports
another, and this module needs no hypothesis."""

import importlib.util
import math
import random
from fractions import Fraction as F
from itertools import combinations
from operator import le
from pathlib import Path

from plstab.circle import CircleLift

from plstab.clip import convex_fan, triangle_intersection
from plstab.complexes import Complex, ccw_triangles_meet
from plstab.errors import InvalidComplex, ParseError, PointOutsideComplex, RealizationMismatch
from plstab.geometry import (MAX_EXPONENT, Mat, affine_point, area2, bbox,
                             candidate_pairs, cross2, hom_cell, homogeneous,
                             primitive_direction, rat)
from plstab.interval import PLMap1D
from plstab.overlay import _walked_pairs, realized_pieces, refine, segment_pieces, triangle_pieces
from plstab.plmap import PLMap, compose2d, inverse2d, plmap_from_vertex_images
from plstab.tangent import Fan, Germ, _chain_cones, in_cone


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


def ccw_triangle(tri):
    """A planar triangle's points, reversed where its `orient2` sign is
    negative: counter-clockwise.  The orientation of loose triangles that
    `geometry.hom_cell` took over from `clip`."""
    t = list(tri)
    if orient2_on_fractions(*t) < 0:
        t.reverse()
    return t


def in_closed_cell_oracle(x, cell):
    """Is x in the closed cell, a planar triangle in either orientation (on
    the closed left side of each edge of its `ccw_triangle`, by `orient2`)
    or a segment, whose `segment_param` at x is in [0, 1]?  The `Fraction`
    closed-cell test that `complexes.in_closed_cell` replaced on
    `HomCell`s and `geometry.on_segment` on segments' rows."""
    if len(cell) == 3:
        a, b, c = ccw_triangle(cell)
        return all(orient2_on_fractions(p, q, x) >= 0 for p, q in ((a, b), (b, c), (c, a)))
    t = segment_param(cell[0], cell[1], x)
    return t is not None and 0 <= t <= 1


def eval_by_fraction_scan(f, x):
    """The oracle of `PLMap.eval`: x under the barycentric `affine` map of
    the first refinement cell that holds it by `in_closed_cell_oracle`, or
    `PointOutsideComplex`."""
    for s, cell in zip(f.refinement.simplices, f.refinement.cells()):
        if in_closed_cell_oracle(x, cell):
            return affine(cell, [f.images[v] for v in s], x)
    raise PointOutsideComplex(f"{x} is not in the realization")


def refinement_homes(base, refinement):
    """The oracle of the refinement check of `PLMap(...)`: the first base
    simplex containing each refinement cell, found by a containment test on
    every pair of cells whose boxes meet, then the tiling, by total area in
    the plane and by the parameter intervals on each base segment in 1D.
    Raises `RealizationMismatch` where a cell has no home or the cells do
    not tile the base."""
    cells, base_cells = refinement.cells(), base.cells()
    home = [None] * len(cells)
    for i, j in candidate_pairs([bbox(c) for c in cells], [bbox(c) for c in base_cells]):
        if home[i] is None and all(in_closed_cell_oracle(p, base_cells[j]) for p in cells[i]):
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


# closed surfaces as abstract triangulations: the boundary of the
# tetrahedron, the octahedron (the triangles abc with a in {0, 1}, b in
# {2, 3} and c in {4, 5}), the 6-vertex projective plane and the 7-vertex
# torus ({i, i+1, i+3} and {i, i+2, i+3} mod 7)
TETRAHEDRON = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
OCTAHEDRON = [(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)]
PROJECTIVE_PLANE = [tuple(int(v) for v in t)
                    for t in "012 023 034 045 015 124 134 135 235 245".split()]
TORUS = [(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)] + [
    (i, (i + 2) % 7, (i + 3) % 7) for i in range(7)]


def surface_text(triangles):
    """The surface format of ``triangles``."""
    return "surface\n" + "".join("s %d %d %d\n" % t for t in triangles)


def seg_seg_open_meet_by_solving(a, b, c, d):
    """The oracle of `complexes.seg_seg_open_meet`: do the open segments
    (a, b) and (c, d) share a point?  Solves for the common point of
    crossing lines, and compares parameter ranges of collinear segments."""
    u = vsub(b, a)
    v = vsub(d, c)
    w = vsub(c, a)
    if len(a) == 1:
        lo1, hi1 = min(a[0], b[0]), max(a[0], b[0])
        lo2, hi2 = min(c[0], d[0]), max(c[0], d[0])
        return max(lo1, lo2) < min(hi1, hi2)
    denom = cross2(u, v)
    if denom != 0:
        t = F(cross2(w, v), denom)
        s = F(cross2(w, u), denom)
        return 0 < t < 1 and 0 < s < 1
    if cross2(w, u) != 0:
        return False  # parallel, different lines
    # collinear: compare parameter ranges along u
    den = dot(u, u)
    t0 = F(dot(w, u), den)
    t1 = F(dot(vsub(d, a), u), den)
    lo, hi = min(t0, t1), max(t0, t1)
    return max(F(0), lo) < min(F(1), hi)


def _solve(columns, rhs):
    """The unique x with sum_k x_k columns[k] = rhs, by exact Gaussian
    elimination, or None when there is no solution or more than one."""
    m = len(columns)
    rows = [[F(col[r]) for col in columns] + [F(rhs[r])] for r in range(len(rhs))]
    for k in range(m):
        piv = next((r for r in range(k, len(rows)) if rows[r][k] != 0), None)
        if piv is None:
            return None
        rows[k], rows[piv] = rows[piv], rows[k]
        for r in range(len(rows)):
            if r != k and rows[r][k] != 0:
                f = rows[r][k] / rows[k][k]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[k])]
    if any(row[m] != 0 for row in rows[m:]):
        return None
    return [rows[k][m] / rows[k][k] for k in range(m)]


def in_hull(p, verts):
    """Is p in the closed simplex spanned by the affinely independent
    points ``verts`` (none, one, two or three)?  By p's barycentric
    coordinates, solved exactly."""
    if not verts:
        return False
    lam = _solve([vsub(v, verts[0]) for v in verts[1:]], vsub(p, verts[0]))
    return lam is not None and all(x >= 0 for x in lam) and sum(lam) <= 1


def _single_points(face1, face2):
    """The point where the affine hulls of two segments meet, when that is
    a single point."""
    a = face1[0]
    columns = [vsub(v, a) for v in face1[1:]] + [vsub(face2[0], v) for v in face2[1:]]
    x = _solve(columns, vsub(face2[0], a))
    if x is None:
        return []
    return [tuple(c + sum(x[k] * (v[i] - a[i]) for k, v in enumerate(face1[1:]))
                  for i, c in enumerate(a))]


def meets_in_common_faces_by_brute_force(points, simplices):
    """The oracle of the common-face rules of `Complex`: does every pair of
    closed cells, given by vertex ``points`` and ``simplices``, meet in the
    hull of their shared vertices?

    Each extreme point of the meet of two cells is the single point where
    the affine hulls of a face of one and a face of the other meet: a
    vertex of one lying in the other, or two edges crossing.  Every such
    point in both
    cells must lie in the hull of the shared vertices.  All pairs of cells
    are tried, with no box test."""
    cells = [[points[v] for v in s] for s in simplices]
    for i, j in combinations(range(len(cells)), 2):
        s, t = simplices[i], simplices[j]
        shared = [points[v] for v in s if v in t]
        candidates = list(cells[i]) + list(cells[j])
        for e in combinations(cells[i], 2):
            for f in combinations(cells[j], 2):
                candidates += _single_points(e, f)
        for p in candidates:
            if in_hull(p, cells[i]) and in_hull(p, cells[j]) and not in_hull(p, shared):
                return False
    return True


def is_simple_polygon_on_fractions(pts):
    """The oracle of `geometry.is_simple_polygon`: the same fold-back and
    side-pair tests on the `Fraction` points as given, not scaled onto an
    integer grid, by `orient2_on_fractions` and
    `closed_segments_meet_on_fractions`."""
    n = len(pts)
    for k in range(n):
        a, b, c = pts[k - 1], pts[k], pts[(k + 1) % n]
        if orient2_on_fractions(a, b, c) == 0 and dot(vsub(a, b), vsub(c, b)) > 0:
            return False
    sides = [(pts[k], pts[(k + 1) % n]) for k in range(n)]
    for i, j in candidate_pairs([bbox(side) for side in sides]):
        if 1 < j - i < n - 1 and closed_segments_meet_on_fractions(*sides[i], *sides[j]):
            return False
    return True


def linear_part(u, v, iu, iv):
    """The 2x2 matrix A with A u = iu and A v = iv (u, v independent): the
    oracle of the germ matrices that `tangent.build_germ` reads off a map's
    affine pieces, and of the fixed-locus cell solve."""
    d = cross2(u, v)
    # A = [iu iv] * [u v]^-1, columns
    inv = ((v[1] / d, -v[0] / d), (-u[1] / d, u[0] / d))
    return Mat(
        [
            [iu[0] * inv[0][0] + iv[0] * inv[1][0], iu[0] * inv[0][1] + iv[0] * inv[1][1]],
            [iu[1] * inv[0][0] + iv[1] * inv[1][0], iu[1] * inv[0][1] + iv[1] * inv[1][1]],
        ]
    )


def build_germ_by_solving(f, p):
    """The oracle of `tangent.build_germ`: each cone's matrix solved by
    `linear_part` from the images of the cell's two edge vectors at the
    apex, and the matrices put in fan order by searching the cone list."""
    pr = f.refinement_index_of_base_vertex(p)
    apex = f.refinement.points[pr]
    assert f.images[pr] == apex
    cones, mats = [], []
    for s in f.refinement.simplices:
        if pr not in s:
            continue
        a, b = [w for w in s if w != pr]
        da = vsub(f.refinement.points[a], apex)
        db = vsub(f.refinement.points[b], apex)
        if cross2(da, db) < 0:
            a, b, da, db = b, a, db, da
        cones.append((primitive_direction(da), primitive_direction(db)))
        mats.append(linear_part(da, db, vsub(f.images[a], apex), vsub(f.images[b], apex)))
    fan = _chain_cones(apex, cones)
    return Germ(fan=fan, matrices=tuple(mats[cones.index(cone)] for cone in fan.cones))


def build_germ_by_evaluation(f, p):
    """The oracle of the matrices that `tangent.build_germ` reads off each
    cell's solved piece: column k of a cone's matrix is f(apex + e_k) -
    apex, by the cell's `Fraction` piece (`cell_map_on_fractions`) at two
    points per star cell, and the cone's two rays are found cell by
    cell."""
    pr = f.refinement_index_of_base_vertex(p)
    points = f.refinement.points
    apex = points[pr]
    assert f.images[pr] == apex
    units = [vadd(apex, e) for e in ((1, 0), (0, 1))]
    mats = {}
    for i, s in enumerate(f.refinement.simplices):
        if pr not in s:
            continue
        da, db = (primitive_direction(vsub(points[w], apex)) for w in s if w != pr)
        if cross2(da, db) < 0:
            da, db = db, da
        piece = cell_map_on_fractions(f, i)
        cols = [vsub(piece(x), apex) for x in units]
        mats[da, db] = Mat([[cols[0][0], cols[1][0]], [cols[0][1], cols[1][1]]])
    fan = _chain_cones(apex, list(mats))
    return Germ(fan=fan, matrices=tuple(mats[cone] for cone in fan.cones))


def refine_fans_per_germ(germs):
    """The oracle of `tangent.refine_fans`: each germ's own fan cut at every
    ray of every germ, a closed fan turned to start at the least ray, each
    refined cone given the matrix of the germ's cone around its mid
    direction, and the refined fans checked to be one fan."""
    all_rays = sorted({r for g in germs for r in g.fan.rays})
    out = []
    for g in germs:
        cones = []
        for u, v in g.fan.cones:
            inside = [r for r in all_rays if in_cone(r, u, v, strict=True)]
            # a ray strictly inside a salient cone makes an angle in (0, pi)
            # with u, whose cotangent dot/cross falls as the angle grows
            inside.sort(key=lambda r: F(-dot(u, r), cross2(u, r)))
            chain = [u] + inside + [v]
            cones += zip(chain, chain[1:])
        if g.fan.closed:
            k = next(i for i, c in enumerate(cones) if c[0] == all_rays[0])
            cones = cones[k:] + cones[:k]
        mats = []
        for u, v in cones:
            mid = (u[0] + v[0], u[1] + v[1])
            mats.append(next(m for (a, b), m in zip(g.fan.cones, g.matrices)
                             if in_cone(mid, a, b)))
        out.append(Germ(fan=Fan(apex=g.fan.apex, cones=tuple(cones), closed=g.fan.closed),
                        matrices=tuple(mats)))
    assert len({g.fan for g in out}) == 1
    return out


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


def c1_map():
    """A lift with kinks and rotation number strictly between 0 and 1."""
    return CircleLift([(0, F(1, 3)), (F(1, 4), F(1, 2)), (F(3, 4), F(5, 6)),
                       (1, F(4, 3))])


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


def read_records_per_token(text, with_images=False):
    """The oracle of the loader's token table: the records of a `.cx` text
    (or, ``with_images``, of a `.pm` text: a `base` line is skipped and the
    `img` records read too), each coordinate token converted by its own
    `rat` call.  Records are read in file order and numbered by the file's
    lines.  Returns (points, simplices, images by vertex)."""
    points, sims, images = {}, [], {}

    def index(token, lineno):
        try:
            return int(token)
        except ValueError:
            raise ParseError(f"line {lineno}: bad vertex index {token!r}") from None

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        if tok[0] == "v":
            if len(tok) < 3 or len(tok) > 5:
                raise ParseError(f"line {lineno}: bad vertex record")
            i = index(tok[1], lineno)
            if i in points:
                raise ParseError(f"line {lineno}: duplicate vertex {i}")
            points[i] = tuple(rat(t) for t in tok[2:])
        elif tok[0] == "s":
            if len(tok) < 2 or len(tok) > 4:
                raise ParseError(f"line {lineno}: bad simplex record")
            sims.append(tuple(index(t, lineno) for t in tok[1:]))
        elif with_images and tok[0] == "base":
            continue
        elif with_images and tok[0] == "img":
            if len(tok) < 3 or not tok[1].isdecimal():
                raise ParseError(f"line {lineno}: bad img record {line!r}")
            i = int(tok[1])
            if i in images:
                raise ParseError(f"line {lineno}: duplicate img record for vertex {i}")
            images[i] = tuple(rat(t) for t in tok[2:])
        else:
            raise ParseError(f"line {lineno}: unknown record {tok[0]!r}")
    if not points:
        raise ParseError("no vertices")
    if sorted(points) != list(range(len(points))):
        raise ParseError("vertex indices must be 0..n-1 without gaps")
    return [points[i] for i in range(len(points))], sims, images


def load_map_per_token(base_text, map_text):
    """The oracle of `cli.load_map` on a `.pm` file and its base: both read
    by `read_records_per_token`, each token converted on its own, and the
    refinement block taken for the base when its points and simplices
    equal the base's by value."""
    points, sims, _ = read_records_per_token(base_text)
    base = Complex(points, sims)
    points, sims, images = read_records_per_token(map_text, with_images=True)
    if (sorted(tuple(sorted(s)) for s in sims) == list(base.simplices)
            and tuple(points) == base.points):
        refinement = base
    else:
        refinement = Complex(points, sims)
    if sorted(images) != list(range(len(refinement.points))):
        raise InvalidComplex("img records do not cover the refinement vertices")
    return PLMap(base, refinement, [images[i] for i in range(len(refinement.points))])


# -- grid complexes and maps of the unit square -------------------------


def two_squares():
    """[0,1]^2 and [2,3]^2, each cut by a diagonal: a disconnected base."""
    pts = [(0, 0), (1, 0), (1, 1), (0, 1), (2, 0), (3, 0), (3, 1), (2, 1)]
    return Complex(pts, [(0, 1, 2), (0, 2, 3), (4, 5, 6), (4, 6, 7)])


def grid_complex(n):
    pts = [(F(i, n), F(j, n)) for j in range(n + 1) for i in range(n + 1)]
    sims = []
    for j in range(n):
        for i in range(n):
            a = j * (n + 1) + i
            b, c, d = a + 1, a + n + 2, a + n + 1
            sims += [(a, b, c), (a, c, d)]
    return Complex(pts, sims)


SYMMETRIES = [
    lambda x, y: (x, y), lambda x, y: (1 - x, y),
    lambda x, y: (x, 1 - y), lambda x, y: (1 - x, 1 - y),
    lambda x, y: (y, x), lambda x, y: (1 - y, x),
    lambda x, y: (y, 1 - x), lambda x, y: (1 - y, 1 - x),
]


def _along_boundary(p, d):
    """The offset d of grid point p with its component off the boundary
    dropped: corners stay, edge points slide along their edge."""
    (x, y), (dx, dy) = p, d
    return (0 if x in (0, 1) else dx, 0 if y in (0, 1) else dy)


GRIDS = {2: grid_complex(2), 3: grid_complex(3)}


def centroid_split(c):
    """c with each triangle split at its centroid: the boundary is c's."""
    points, sims = list(c.points), []
    for a, b, d in c.simplices:
        points.append(tuple(sum(x) / 3 for x in zip(c.points[a], c.points[b], c.points[d])))
        m = len(points) - 1
        sims += [(a, b, m), (b, d, m), (a, d, m)]
    return Complex(points, sims)


def grid_map(n, offsets, centre_offsets, boundary, sym, refine):
    """The n x n grid with vertex k moved by offsets[k]/(4n), then a symmetry
    of the square.  Boundary vertices stay ("fixed"), slide along their side
    ("slide") or move freely ("free").  The refinement is the base itself,
    an equal copy, or the base split at centroids; the centroid of cell k
    goes to the centroid of its image moved by centre_offsets[k]/(24n)."""
    base = GRIDS[n]
    moved = []
    for (x, y), (dx, dy) in zip(base.points, offsets):
        if boundary != "free" and {x, y} & {0, 1}:
            dx, dy = (0 if x in (0, 1) else dx, 0 if y in (0, 1) else dy)
            if boundary == "fixed":
                dx = dy = 0
        moved.append(SYMMETRIES[sym](x + F(dx, 4 * n), y + F(dy, 4 * n)))
    if refine == "same":
        return base, base, moved
    if refine == "copy":
        return base, Complex(base.points, base.simplices), moved
    for (a, b, c), (dx, dy) in zip(base.simplices, centre_offsets):
        cx, cy = (sum(x) / 3 for x in zip(moved[a], moved[b], moved[c]))
        moved.append((cx + F(dx, 24 * n), cy + F(dy, 24 * n)))
    return base, centroid_split(base), moved


def bench_grid_maps(n, seed):
    """Two seeded grid maps of the benchmark's generator, ``bench/gen.py``."""
    spec = importlib.util.spec_from_file_location(
        "bench_gen", Path(__file__).resolve().parents[1] / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    base = Complex(gen.grid_points(n), gen.grid_triangles(n))
    rng = random.Random(seed)
    return [PLMap(base, base, gen.grid_map(rng, n)[0]) for _ in range(2)]


# -- the Fraction merge, the oracle of the row merge ---------------------


def fraction_breakpoints(rows):
    """Breakpoint rows (xn, xd, yn, yd) as (x, y) Fraction pairs."""
    return [(F(xn, xd), F(yn, yd)) for xn, xd, yn, yd in rows]


def fraction_merge(fbps, fslopes, gbps, gslopes):
    """The merge of `interval.compose_breakpoints` on `Fraction` breakpoints
    and slopes, as it ran before the row form: the same candidate points
    and the same slope-product test, with Fraction arithmetic."""
    last = len(fslopes) - 1  # index of the last f piece
    end = len(gbps) - 1
    xa, ya = gbps[0]
    j = 0
    while j < last and fbps[j + 1][0] <= ya:
        j += 1
    (u0, v0), (u1, v1), fsl = fbps[j], fbps[j + 1], fslopes[j]
    out = [(xa, v0 + (ya - u0) * fsl)]
    slopes = [fsl * gslopes[0]]
    for m in range(1, end + 1):
        xb, yb = gbps[m]
        gsl = gslopes[m - 1]
        while u1 < yb:  # an f breakpoint strictly inside the g piece
            j += 1
            (u0, v0), (u1, v1), fsl = (u1, v1), fbps[j + 1], fslopes[j]
            h = fsl * gsl
            if h != slopes[-1]:
                out.append((xa + (u0 - ya) / gsl, v0))
                slopes.append(h)
        if m == end:
            out.append((xb, v1 if yb == u1 else v0 + (yb - u0) * fsl))
            break
        if yb == u1:
            j += 1
            (u0, v0), (u1, v1), fsl = (u1, v1), fbps[j + 1], fslopes[j]
            y = v0
        else:
            y = v0 + (yb - u0) * fsl
        h = fsl * gslopes[m]
        if h != slopes[-1]:
            out.append((xb, y))
            slopes.append(h)
        xa, ya = xb, yb
    return out, slopes


def fraction_compose1d(f, g):
    """The breakpoints and slopes of x -> f(g(x)) by `fraction_merge`; a
    decreasing g runs the merge on f reflected, after -g."""
    if g.orientation > 0:
        return fraction_merge(f.breakpoints, f.slopes, g.breakpoints, g.slopes)
    return fraction_merge([(-u, v) for u, v in reversed(f.breakpoints)],
                          [-s for s in reversed(f.slopes)],
                          [(x, -y) for x, y in g.breakpoints], [-s for s in g.slopes])


def fraction_compose_lift(F_, G):
    """The breakpoints and slopes of the lift x -> F(G(x)) by
    `fraction_merge`, over one period of F rotated to start at G(0)."""
    fb, fs = F_.breakpoints, F_.slopes
    y0 = G.breakpoints[0][1]
    k = math.floor(y0)
    i = max(n for n, (u, _) in enumerate(fb) if u <= y0 - k)
    rotated = [(u + k, v + k) for u, v in fb[i:]]
    rotated += [(u + k + 1, v + k + 1) for u, v in fb[1:i + 2]]
    return fraction_merge(rotated, fs[i:] + fs[:i + 1], G.breakpoints, G.slopes)


def piece_slopes(bps):
    """Slope of each piece between consecutive breakpoints."""
    return tuple((y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1) in zip(bps, bps[1:]))


def chord_interpolate(bps, x):
    """The oracle of `interval.value_at`: the value at x of the PL
    function through the breakpoints, on the chord of the piece holding x
    (x in range), with no stored slope."""
    i = max(n for n, (u, _) in enumerate(bps[:-1]) if u <= x)
    (x0, y0), (x1, y1) = bps[i], bps[i + 1]
    return y0 + (x - x0) * (y1 - y0) / (x1 - x0)


def fraction_inverse_lift(f):
    """The breakpoints and slopes of the inverse of the lift f by the
    `Fraction` resampling that the row merge of `circle.inverse_lift`
    replaced: the inverse is sampled on [f(0), f(0) + 1], and its kinks on
    [0, 1] are the images mod 1 of f's interior breakpoints, and of the
    period seam when f's slope changes there."""
    sw = [(y, x) for x, y in f.breakpoints]
    c = sw[0][0]

    def geval(y):
        k = math.floor(y - c)
        return k + chord_interpolate(sw, y - k)

    ts = {y - math.floor(y) for y, _ in sw}
    if f.slopes[0] == f.slopes[-1]:
        ts.discard(c - math.floor(c))
    ts.add(F(0))
    bps = [(t, geval(t)) for t in sorted(ts)]
    bps.append((F(1), bps[0][1] + 1))
    return bps, piece_slopes(bps)


def tiles_unit(intervals):
    """Do the closed parameter intervals cover [0, 1] without a gap?"""
    pos = F(0)
    for lo, hi in sorted(intervals):
        if lo > pos:
            return False
        pos = max(pos, hi)
    return pos == 1


def parameter_overlap(p, q, a, b):
    """The overlap of the collinear segments [p, q] and [a, b] as the
    parameter intervals of positive length it spans along each, or None:
    the form `geometry.collinear_overlap` had before it returned points."""
    ta, tb = segment_param(p, q, a), segment_param(p, q, b)
    if ta is None or tb is None:
        return None
    lo, hi = max(min(ta, tb), F(0)), min(max(ta, tb), F(1))
    if lo >= hi:
        return None
    d = vsub(q, p)
    s0 = segment_param(a, b, vadd(p, vscale(lo, d)))
    s1 = segment_param(a, b, vadd(p, vscale(hi, d)))
    return (lo, hi), (min(s0, s1), max(s0, s1))


def segment_pieces_by_tiling(t1, t2):
    """The oracle of `overlay.realized_pieces` on 1-complexes, the cover
    accounting it replaced: the (i1, i2, (p, q)) overlap of each pair of
    segments, end points in the direction of segment i1, once the
    parameter intervals of the overlaps tile [0, 1] along every segment of
    both inputs; otherwise `RealizationMismatch` with the message of the
    first input not covered."""
    segs1, segs2 = t1.cells(), t2.cells()
    pieces, cover = [], ([[] for _ in segs1], [[] for _ in segs2])
    for i1, i2 in candidate_pairs([bbox(s) for s in segs1], [bbox(s) for s in segs2]):
        overlap = parameter_overlap(*segs1[i1], *segs2[i2])
        if overlap is not None:
            (lo, hi), own2 = overlap
            a, b = segs1[i1]
            pieces.append((i1, i2, tuple(vadd(a, vscale(t, vsub(b, a))) for t in (lo, hi))))
            cover[0][i1].append((lo, hi))
            cover[1][i2].append(own2)
    for intervals, message in zip(cover, ("first input is not fully covered",
                                          "second input is not fully covered")):
        if not all(tiles_unit(own) for own in intervals):
            raise RealizationMismatch(message)
    return pieces


# -- the Fraction parse and constructor, the oracles of the row form ------


def rat_by_fraction(value):
    """The oracle of `geometry.ratio`: `rat` as it ran before `ratio`, every
    string through `Fraction(str)` after the exponent guard."""
    if isinstance(value, F):
        return value
    if isinstance(value, int):
        return F(value)
    if isinstance(value, str):
        try:
            digits = value.lower().partition("e")[2].replace("_", "").strip().lstrip("+-0")
            if digits.isdecimal() and (len(digits) > len(str(MAX_EXPONENT))
                                       or int(digits) > MAX_EXPONENT):
                raise ValueError(f"exponent beyond {MAX_EXPONENT}")
            return F(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational literal {value!r}") from exc
    raise ParseError(f"cannot interpret {value!r} as a rational")


def fraction_constructor(cls, breakpoints):
    """The oracle of the validating constructors of `PLMap1D` and
    `CircleLift`: the canonical breakpoints and piece slopes, as Fractions,
    that they made before the row form, or the error they raised."""
    bps = [(rat_by_fraction(x), rat_by_fraction(y)) for x, y in breakpoints]
    if len(bps) < 2:
        raise InvalidComplex("need at least two breakpoints")
    kept, slopes = [bps[0]], []
    for (x0, y0), (x1, y1) in zip(bps, bps[1:]):
        if x1 <= x0:
            raise InvalidComplex("breakpoint x values must strictly increase")
        s = (y1 - y0) / (x1 - x0)
        if slopes and s == slopes[-1]:
            kept[-1] = (x1, y1)
        else:
            kept.append((x1, y1))
            slopes.append(s)
    (a, ya), (b, yb) = kept[0], kept[-1]
    if cls is CircleLift:
        if a != 0 or b != 1:
            raise InvalidComplex("breakpoints must span [0, 1]")
        if any(s <= 0 for s in slopes):
            raise InvalidComplex("lift must be strictly increasing")
        if yb != ya + 1:
            raise InvalidComplex("lift must satisfy F(1) = F(0) + 1")
    else:
        if all(s > 0 for s in slopes):
            ends = (a, b)
        elif all(s < 0 for s in slopes):
            ends = (b, a)
        else:
            raise InvalidComplex("map must be strictly monotone")
        if (ya, yb) != ends:
            raise InvalidComplex("endpoints must map onto endpoints")
    return tuple(kept), tuple(slopes)


def det_by_elimination(m):
    """The oracle of `presentation._det_unimodular`: the determinant of a
    square integer matrix by Gaussian elimination over `Fraction`."""
    n = len(m)
    a = [[F(x) for x in row] for row in m]
    det = F(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            for c in range(col, n):
                a[r][c] -= factor * a[col][c]
    assert det.denominator == 1
    return det.numerator


# -- the point-keyed builders, the oracles of `overlay.refine` ------------


def index_cells(cells):
    """The vertices of point-tuple cells in sorted coordinate order, and
    each cell as a sorted index simplex over them: the numbering of derived
    refinements before `overlay.numbered`, by a set of points."""
    cells = list(cells)
    pts = sorted({p for cell in cells for p in cell})
    idx = {p: i for i, p in enumerate(pts)}
    return pts, [tuple(sorted(idx[p] for p in cell)) for cell in cells]


def numbered_by_fraction_sort(points, cells, provenance):
    """The oracle of `overlay.numbered`, as it was: the ids sorted by their
    points, tuples of Fractions, so each comparison is one of `Fraction`;
    the trusted complex over the points in that order, the provenance by
    simplex, and the id of each vertex."""
    order = sorted(range(len(points)), key=points.__getitem__)
    rank = {v: k for k, v in enumerate(order)}
    sims = [tuple(sorted(rank[v] for v in cell)) for cell in cells]
    return (Complex.trusted([homogeneous(points[v]) for v in order], sorted(sims)),
            dict(zip(sims, provenance)), order)


def close_under_faces_by_key(simplices):
    """The oracle of `complexes.close_under_faces`, as it was: every
    nonempty face of each sorted simplex, sorted by the key (length, face)."""
    out = {f for s in simplices for k in range(1, len(s) + 1)
           for f in combinations(sorted(s), k)}
    return tuple(sorted(out, key=lambda f: (len(f), f)))


def triangulate_convex(poly):
    """The triangles of `clip.convex_fan` of a counter-clockwise convex
    polygon, as points."""
    tris, c = convex_fan([homogeneous(p) for p in poly])
    pts = [*poly, None if c is None else affine_point(c)]
    return [(pts[i], pts[j], pts[k]) for i, j, k in tris]


def refinement_by_points(cells, pairs, value=None):
    """The points, simplices and provenance of the refinement made of
    point-tuple ``cells``, cell k from the pair ``pairs[k]``, numbered by
    `index_cells`; with ``value``, also ``value(i1, i2, x)`` at each vertex
    x, from the first cell in simplex order that holds x, as the vertex
    rule read it before cut points."""
    pts, sims = index_cells(cells)
    provenance = dict(zip(sims, pairs))
    out = (tuple(pts), tuple(sorted(sims)), provenance)
    if value is None:
        return out
    first = [None] * len(pts)
    for s in reversed(out[1]):
        for v in s:
            first[v] = s
    return out + ([value(*provenance[s], x) for s, x in zip(first, pts)],)


def overlay_cells_by_points(t1, t2):
    """The cells of the overlay of two complexes as point tuples, and the
    pair each came from, as `overlay.overlay` built them in its own loop:
    each piece of `realized_pieces` triangulated, or kept when it is a
    segment."""
    cells, pairs = [], []
    for i1, i2, piece in realized_pieces(t1, t2):
        piece = [affine_point(h) for h in piece]
        new = [piece] if t1.dim == 1 else triangulate_convex(piece)
        cells += new
        pairs += [(i1, i2)] * len(new)
    return cells, pairs


def compose_cells_by_points(f, g):
    """The cells of f∘g as point tuples, and the pair (i, j) each came from,
    as `compose2d` cut them before `overlay.refine`: the intersection of an
    image cell i of g with a cell j of f, pulled back through g's piece on
    i, and reversed when that piece reverses orientation."""
    cells, pairs = [], []
    if f.base.dim == 1:
        for i, j, seg in segment_pieces(g.image, f.refinement):
            cells.append([affine_point(g.pullback_in_cell(i, h)) for h in seg])
            pairs.append((i, j))
        return cells, pairs
    srcs, imgs = g.refinement.cells(), g.image.cells()
    for i, j, poly in triangle_pieces(g.image, f.refinement):
        back = [affine_point(g.pullback_in_cell(i, h)) for h in poly]
        if (orient2_on_fractions(*srcs[i]) > 0) != (orient2_on_fractions(*imgs[i]) > 0):
            back.reverse()
        new = triangulate_convex(back)
        cells += new
        pairs += [(i, j)] * len(new)
    return cells, pairs


# -- the edge pairings that the facet table replaced ---------------------


def directed_boundary_by_pop_dict(points, simplices):
    """`complexes.directed_boundary` as it was: one `orient2` per sorted
    cell, and each edge held in a dict until its second cell pops it."""
    sides = {}
    for a, b, c in simplices:
        o = orient2_on_fractions(points[a], points[b], points[c])
        if o == 0:
            return None
        left = o > 0
        for edge, edge_left in (((a, b), left), ((b, c), left), ((a, c), not left)):
            other = sides.pop(edge, None)
            if other is None:
                sides[edge] = edge_left
            elif other == edge_left:
                return None
    return [(u, v) if left else (v, u) for (u, v), left in sides.items()]


def neighbours_by_first_dict(simplices):
    """`Complex.neighbours` as it was: the cell across each edge (a, b),
    (b, c), (a, c) of each cell, paired through a dict of first cells."""
    across = [[None] * 3 for _ in simplices]
    first = {}
    for i, (a, b, c) in enumerate(simplices):
        for k, edge in enumerate(((a, b), (b, c), (a, c))):
            other = first.pop(edge, None)
            if other is None:
                first[edge] = (i, k)
            else:
                across[i][k] = other[0]
                across[other[0]][other[1]] = i
    return [tuple(n) for n in across]


def boundary_facets_by_counts(simplices):
    """The facets that lie in one simplex, counted as `facet_counts` did."""
    counts = {}
    for s in simplices:
        for f in combinations(s, len(s) - 1):
            counts[f] = counts.get(f, 0) + 1
    return [f for f, n in counts.items() if n == 1]


# -- the orientations that `Complex.orientations` replaced ---------------


def open_triangles_meet(t1, t2):
    """Do two nondegenerate planar triangles, in either orientation, share
    an interior point?  Each is oriented by its own `ccw_triangle` call."""
    return ccw_triangles_meet(hom_cell(ccw_triangle(t1)), hom_cell(ccw_triangle(t2)))


def triangle_pieces_by_ccw_triangle(t1, t2):
    """`overlay.triangle_pieces` as it was: each cell oriented by its own
    `ccw_triangle` call, not read off its complex's `orientations`."""
    cells1 = [hom_cell(ccw_triangle(tri)) for tri in t1.cells()]
    cells2 = [hom_cell(ccw_triangle(tri)) for tri in t2.cells()]
    for i1, i2 in _walked_pairs(t1, t2, cells1, cells2):
        yield i1, i2, triangle_intersection(cells1[i1], cells2[i2])


def compose2d_by_ccw_triangle(f, g):
    """`plmap.compose2d` of two planar maps as it was: the pieces of
    `triangle_pieces_by_ccw_triangle`, each reversed where two `orient2`
    calls find that g's piece reverses orientation, and every cut point
    pulled back, by whichever piece has it."""
    srcs, imgs = g.refinement.cells(), g.image.cells()

    def pulled_back():
        for i, j, cut in triangle_pieces_by_ccw_triangle(g.image, f.refinement):
            if (orient2_on_fractions(*srcs[i]) > 0) != (orient2_on_fractions(*imgs[i]) > 0):
                cut = cut[::-1]
            yield i, j, [g.pullback_in_cell(i, y) for y in cut], cut

    ov = refine(pulled_back())
    images = list(ov.at_vertices(lambda _, j, y: f.eval_in_cell(j, y)))
    return PLMap.trusted(g.base, ov.cells, images,
                         [g.cell_base[ov.provenance[s][0]] for s in ov.cells.simplices])


def power(f, k):
    """f^k for k >= 1: f composed with f^(k-1) by `compose2d`."""
    out = f
    for _ in range(k - 1):
        out = compose2d(f, out)
    return out


# -- the Fraction kernel that the integer homogeneous kernel replaced ----


def clip_halfplane_on_fractions(poly, a, b):
    """Keep the part of `poly` with orient2(a, b, x) >= 0 (left of a->b):
    each vertex's side an `orient2` sign, a crossing point built in
    Fractions from the `area2` of the edge's two ends."""
    out = []
    n = len(poly)
    sides = [orient2_on_fractions(a, b, p) for p in poly]
    for i in range(n):
        p, q = poly[i], poly[(i + 1) % n]
        sp, sq = sides[i], sides[(i + 1) % n]
        if sp >= 0:
            out.append(p)
        if sp * sq < 0:
            ap, aq = area2(a, b, p), area2(a, b, q)
            out.append(vadd(p, vscale(ap / (ap - aq), vsub(q, p))))
    dedup = []
    for p in out:
        if not dedup or dedup[-1] != p:
            dedup.append(p)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return dedup


def triangle_intersection_on_fractions(poly, tri):
    """`clip.triangle_intersection` on the points of a counter-clockwise
    convex polygon and triangle: one Fraction half-plane cut per edge."""
    for i in range(3):
        poly = clip_halfplane_on_fractions(poly, tri[i], tri[(i + 1) % 3])
        if not poly:
            return []
    return poly


def ccw_triangles_meet_on_fractions(t1, t2):
    """`complexes.ccw_triangles_meet` on points: separating axis by
    `orient2` signs."""
    for tri, (p, q, r) in ((t1, t2), (t2, t1)):
        for i in range(3):
            a, b = tri[i - 1], tri[i]
            if all(orient2_on_fractions(a, b, x) <= 0 for x in (p, q, r)):
                return False
    return True


def segment_meets_ccw_triangle_on_fractions(p, q, tri):
    """`complexes.segment_meets_ccw_triangle` on points, by `orient2`
    signs."""
    for i in range(3):
        a, b = tri[i - 1], tri[i]
        if orient2_on_fractions(a, b, p) <= 0 and orient2_on_fractions(a, b, q) <= 0:
            return False
    sides = {orient2_on_fractions(p, q, v) for v in tri}
    return 1 in sides and -1 in sides


def complex_area2_on_fractions(c):
    """`Complex.area2`: the sum of |`area2`| over the cells, in Fractions."""
    return sum((abs(area2(*cell)) for cell in c.cells()), F(0))


# -- the Fraction orientation that `geometry.orient2` on rows replaced ---


def orient2_on_fractions(a, b, c):
    """`geometry.orient2` as it was, on points: the sign of `area2`,
    decided on the integer numerators and denominators of the first two
    coordinates (an int has both too) with no Fraction built."""
    an, ad = a[0].as_integer_ratio()
    bn, bd = b[0].as_integer_ratio()
    cn, cd = c[0].as_integer_ratio()
    # b - a and c - a, each coordinate over its own positive denominator
    ux, uxd = bn * ad - an * bd, ad * bd
    vx, vxd = cn * ad - an * cd, ad * cd
    an, ad = a[1].as_integer_ratio()
    bn, bd = b[1].as_integer_ratio()
    cn, cd = c[1].as_integer_ratio()
    uy, uyd = bn * ad - an * bd, ad * bd
    vy, vyd = cn * ad - an * cd, ad * cd
    # area2 is (ux vy uyd vxd - uy vx uxd vyd) over a positive product
    left, right = ux * vy * uyd * vxd, uy * vx * uxd * vyd
    return (left > right) - (left < right)


def closed_segments_meet_on_fractions(a, b, c, d):
    """`geometry.closed_segments_meet` as it was, on points: by
    `orient2_on_fractions` signs, and by boxes when the four are
    collinear."""
    o1, o2 = orient2_on_fractions(a, b, c), orient2_on_fractions(a, b, d)
    if o1 == 0 and o2 == 0:
        (lo1, hi1), (lo2, hi2) = bbox((a, b)), bbox((c, d))
        return all(map(le, lo1, hi2)) and all(map(le, lo2, hi1))
    if (o1 > 0 and o2 > 0) or (o1 < 0 and o2 < 0):
        return False
    o3, o4 = orient2_on_fractions(c, d, a), orient2_on_fractions(c, d, b)
    return not ((o3 > 0 and o4 > 0) or (o3 < 0 and o4 < 0))


def convex_fan_on_fractions(poly):
    """`clip.convex_fan` as it was, on points: the apex the smallest
    Fraction tuple, each fan triangle tested by `orient2_on_fractions`, and
    the centroid cone when a fan triangle is degenerate."""
    n = len(poly)
    if n < 3:
        return [], None
    apex = min(range(n), key=poly.__getitem__)
    rest = [(apex + k) % n for k in range(1, n)]
    tris = []
    for i, j in zip(rest, rest[1:]):
        if orient2_on_fractions(poly[apex], poly[i], poly[j]) == 0:
            break
        tris.append((apex, i, j))
    else:
        return tris, None
    c = polygon_centroid_on_fractions(poly)
    return [(n, i, (i + 1) % n) for i in range(n)
            if orient2_on_fractions(c, poly[i], poly[(i + 1) % n]) != 0], c


# -- the Fraction pieces, area and centroid that the row ones replaced ---


def solve_piece_on_fractions(src, dst):
    """`plmap._solve_piece` as it was, on points: the affine map taking the
    segment or planar triangle ``src`` onto the points ``dst``, as integer
    rows and a denominator D, the image of x having coordinates
    (m_0 x_0 + ... + m_(n-1) x_(n-1) + c) / D, row (m, c) by row.  All
    points are put over one integer denominator first; a triangle abc goes
    by the matrix M with M(b - a) = B - A and M(c - a) = C - A and the
    offset A - M a, a segment ab by x -> A + t (B - A) with t = (x - a)·(b -
    a) / |b - a|².  D keeps the sign that the vertex order gives it."""
    ratios = [F(c).as_integer_ratio() for p in (*src, *dst) for c in p]
    scale = math.lcm(*(q for _, q in ratios))
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
    g = math.gcd(den, *(x for row in rows for x in row))
    return tuple(tuple(x // g for x in row) for row in rows), den // g


def apply_piece_on_fractions(piece, x):
    """`plmap._apply_piece` as it was: x under a piece of
    `solve_piece_on_fractions`, one Fraction per coordinate."""
    rows, den = piece
    return tuple(F(sum(m * F(c) for m, c in zip(row, x)) + row[-1], den) for row in rows)


def polygon_area2_on_fractions(poly):
    """`clip.polygon_area2` as it was, on points: twice the signed area of
    a polygon's vertex cycle, by the shoelace sum in Fractions."""
    return sum((F(p[0]) * q[1] - F(q[0]) * p[1] for p, q in zip(poly, poly[1:] + poly[:1])),
               F(0))


def polygon_centroid_on_fractions(poly):
    """`clip.polygon_centroid` as it was, on points: the area centroid of a
    polygon with nonzero area, in Fractions."""
    a2 = polygon_area2_on_fractions(poly)
    cx = cy = F(0)
    for p, q in zip(poly, poly[1:] + poly[:1]):
        w = p[0] * q[1] - q[0] * p[1]
        cx += (p[0] + q[0]) * w
        cy += (p[1] + q[1]) * w
    return (cx / (3 * a2), cy / (3 * a2))


def _pieces_on_fractions(c1, c2):
    """(i1, i2, polygon) for each pair of cells of two planar complexes
    whose interiors meet, by `Fraction` predicates over all pairs whose
    boxes meet: the counter-clockwise cells clipped on Fractions."""
    cells1 = [ccw_triangle(t) for t in c1.cells()]
    cells2 = [ccw_triangle(t) for t in c2.cells()]
    for i, j in candidate_pairs([bbox(c) for c in cells1], [bbox(c) for c in cells2]):
        if ccw_triangles_meet_on_fractions(cells1[i], cells2[j]):
            yield i, j, triangle_intersection_on_fractions(cells1[i], cells2[j])


def _fanned_on_fractions(poly):
    """The triangles of `convex_fan_on_fractions` of a polygon, as points."""
    tris, c = convex_fan_on_fractions(poly)
    pts = [*poly, c]
    return [(pts[i], pts[j], pts[k]) for i, j, k in tris]


def cell_map_on_fractions(f, i, backward=False):
    """x -> x under f's affine piece on refinement cell ``i`` (or its
    inverse), by `solve_piece_on_fractions` and `apply_piece_on_fractions`
    on the cell's points and images."""
    s = f.refinement.simplices[i]
    ends = [[f.refinement.points[v] for v in s], [f.images[v] for v in s]]
    if backward:
        ends.reverse()
    piece = solve_piece_on_fractions(*ends)
    return lambda x: apply_piece_on_fractions(piece, x)


def compose2d_on_fractions(f, g):
    """The points, simplices, `cell_base` and images of f∘g for planar maps,
    on Fractions alone: the `Fraction` pieces of g's image and f's
    refinement, each pulled back through g's `Fraction` piece and reversed
    where it reverses orientation, fanned by `convex_fan_on_fractions`,
    numbered by `index_cells`, and each vertex mapped by g's and f's
    `Fraction` pieces."""
    srcs, imgs = g.refinement.cells(), g.image.cells()
    cells, pairs = [], []
    for i, j, cut in _pieces_on_fractions(g.image, f.refinement):
        back = [cell_map_on_fractions(g, i, backward=True)(y) for y in cut]
        if (orient2_on_fractions(*srcs[i]) > 0) != (orient2_on_fractions(*imgs[i]) > 0):
            back.reverse()
        new = _fanned_on_fractions(back)
        cells += new
        pairs += [(i, j)] * len(new)
    pts, sims, provenance, images = refinement_by_points(
        cells, pairs, lambda i, j, x: cell_map_on_fractions(f, j)(cell_map_on_fractions(g, i)(x)))
    return pts, sims, tuple(g.cell_base[provenance[s][0]] for s in sims), tuple(images)


def inverse2d_on_fractions(f):
    """The points, simplices, `cell_base` and images of the inverse of a
    planar map, on Fractions alone: the `Fraction` pieces of f's image and
    base, fanned, numbered by `index_cells`, each vertex pulled back by the
    inverse of f's `Fraction` piece on its image cell."""
    cells, pairs = [], []
    for i, j, poly in _pieces_on_fractions(f.image, f.base):
        new = _fanned_on_fractions(poly)
        cells += new
        pairs += [(i, j)] * len(new)
    pts, sims, provenance, images = refinement_by_points(
        cells, pairs, lambda i, _, y: cell_map_on_fractions(f, i, backward=True)(y))
    return pts, sims, tuple(provenance[s][1] for s in sims), tuple(images)


def assert_builds_as_on_fractions(f, g):
    """`compose2d(f, g)` and `inverse2d(f)` of planar maps have the points,
    simplices, `cell_base` and images of `compose2d_on_fractions` and
    `inverse2d_on_fractions`."""
    for got, want in ((compose2d(f, g), compose2d_on_fractions(f, g)),
                      (inverse2d(f), inverse2d_on_fractions(f))):
        assert (got.refinement.points, got.refinement.simplices, got.cell_base,
                got.images) == want


# -- the Fraction vectors and segment tests that the row ones replaced ---


def dot(a, b):
    return sum((x * y for x, y in zip(a, b)), F(0))


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vscale(s, a):
    s = rat(s)
    return tuple(s * x for x in a)


def segment_param(a, b, x):
    """Parameter t with x = a + t (b - a), or None if x is off the line."""
    d = vsub(b, a)
    den = dot(d, d)
    if den == 0:
        return F(0) if x == a else None
    t = F(dot(vsub(x, a), d), den)
    if vadd(a, vscale(t, d)) != x:
        return None
    return t


def between_on_fractions(a, b, x):
    """The oracle of `geometry.on_segment`: is x on the closed segment
    [a, b], its `segment_param` in [0, 1]?"""
    t = segment_param(a, b, x)
    return t is not None and 0 <= t <= 1


def overlap_params(ta, tb):
    """Where a segment [a, b] on the line of [p, q] overlaps it, for the
    `segment_param` values ta, tb of a and b along p -> q: the parameters
    (lo, hi) of the overlap when it has positive length, or None."""
    lo, hi = max(min(ta, tb), F(0)), min(max(ta, tb), F(1))
    return (lo, hi) if lo < hi else None


def collinear_overlap_on_fractions(p, q, a, b):
    """The oracle of `geometry.collinear_overlap`: the end points, in the
    direction p -> q, of the overlap of [p, q] and [a, b] when both ends of
    [a, b] are on the line of [p, q] and it has positive length, or None."""
    ta, tb = segment_param(p, q, a), segment_param(p, q, b)
    span = None if ta is None or tb is None else overlap_params(ta, tb)
    if span is None:
        return None
    (lo, hi), d = span, vsub(q, p)
    return vadd(p, vscale(lo, d)), vadd(p, vscale(hi, d))


def seg_seg_open_meet_on_fractions(a, b, c, d):
    """The oracle of `complexes.seg_seg_open_meet` as it ran on points:
    collinear segments by `overlap_params`, others by strict `orient2`
    signs."""
    tc, td = segment_param(a, b, c), segment_param(a, b, d)
    if tc is not None and td is not None:
        return overlap_params(tc, td) is not None
    return (orient2_on_fractions(a, b, c) * orient2_on_fractions(a, b, d) < 0
            and orient2_on_fractions(c, d, a) * orient2_on_fractions(c, d, b) < 0)
