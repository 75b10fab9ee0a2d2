"""Output checks that do not depend on plstab.

The oracle carries its own exact evaluators: grid maps are located by
``floor(n*x)``, ``floor(n*y)`` and the cell diagonal and interpolated with
``Fraction``; 1D maps by bisection.  Each ``check_*`` function returns when
the output is right and raises ``Bad`` with a one-line reason otherwise.
"""

import json
from bisect import bisect_right
from fractions import Fraction as F
from math import floor, gcd

from gen import grid_neighbours


class Bad(Exception):
    """An output failed a check; the message says which."""


def rat(text):
    try:
        return F(text)
    except (ValueError, ZeroDivisionError):
        raise Bad("not a rational: %r" % (text,))


def area2(a, b, c):
    """Twice the signed area of triangle abc."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def in_triangle(x, tri):
    s = [area2(tri[k], tri[(k + 1) % 3], x) for k in range(3)]
    return all(v >= 0 for v in s) or all(v <= 0 for v in s)


# -- evaluators ---------------------------------------------------------------


class GridMap:
    """A map on the n x n grid, affine on each grid triangle."""

    def __init__(self, n, images):
        self.n = n
        self.images = images

    def __call__(self, p):
        n = self.n
        x, y = p
        if not (0 <= x <= 1 and 0 <= y <= 1):
            raise Bad("point %s outside the square" % (p,))
        i, j = min(floor(n * x), n - 1), min(floor(n * y), n - 1)
        u, w = n * x - i, n * y - j
        a = j * (n + 1) + i
        im = self.images
        if u >= w:   # triangle (i,j), (i+1,j), (i+1,j+1)
            lam = ((1 - u, im[a]), (u - w, im[a + 1]), (w, im[a + n + 2]))
        else:        # triangle (i,j), (i+1,j+1), (i,j+1)
            lam = ((1 - w, im[a]), (u, im[a + n + 2]), (w - u, im[a + n + 1]))
        return (sum(l * q[0] for l, q in lam), sum(l * q[1] for l, q in lam))


class PL1D:
    """Increasing PL map of an interval, given by breakpoints."""

    def __init__(self, bps):
        self.xs = [x for x, _ in bps]
        self.ys = [y for _, y in bps]

    def __call__(self, x):
        xs, ys = self.xs, self.ys
        if not xs[0] <= x <= xs[-1]:
            raise Bad("%s outside the map's interval" % x)
        i = min(bisect_right(xs, x) - 1, len(xs) - 2)
        return ys[i] + (x - xs[i]) * (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])


def invariant_factors(ds):
    """Abelian invariants of Z^k / diag(ds), in plstab's order: factors > 1
    in a divisibility chain, then one 0 per free factor."""
    fs = [d for d in ds if d > 1]
    changed = True
    while changed:
        changed = False
        for a in range(len(fs)):
            for b in range(a + 1, len(fs)):
                g = gcd(fs[a], fs[b])
                lo, hi = g, fs[a] * fs[b] // g
                if (lo, hi) != (fs[a], fs[b]):
                    fs[a], fs[b], changed = lo, hi, True
    return [f for f in fs if f > 1] + [0] * ds.count(0)


# -- parsers for plstab's output formats -------------------------------------


def parse_pm(text):
    """(points, triangles, images) of a 2D map file."""
    pts, tris, imgs = {}, [], {}
    for line in text.splitlines():
        tok = line.split()
        if not tok or tok[0] == "base":
            continue
        if tok[0] == "v":
            pts[int(tok[1])] = (rat(tok[2]), rat(tok[3]))
        elif tok[0] == "s":
            tris.append(tuple(int(t) for t in tok[1:]))
        elif tok[0] == "img":
            imgs[int(tok[1])] = (rat(tok[2]), rat(tok[3]))
        else:
            raise Bad("unexpected line %r" % line)
    if sorted(pts) != list(range(len(pts))) or sorted(imgs) != sorted(pts):
        raise Bad("vertex and img records do not match")
    return [pts[k] for k in range(len(pts))], tris, [imgs[k] for k in range(len(pts))]


def parse_points_1d(text, header):
    lines = text.split("\n")
    if lines[0] != header or lines[-1] != "":
        raise Bad("bad 1D map text")
    return [tuple(rat(t) for t in ln.split()) for ln in lines[1:-1]]


def parse_report(text):
    """The text form of `analyze`: generator blocks of `key: json` lines."""
    out, cur = {}, None
    for line in text.splitlines():
        if line.startswith("generator "):
            cur = out.setdefault(line.split(" ", 1)[1], {})
        else:
            key, val = line.strip().split(": ", 1)
            cur[key] = json.loads(val)
    return out


def _pt(lst):
    return tuple(rat(t) for t in lst)


# -- checks -------------------------------------------------------------------


def _covers_square(pts, tris):
    total = 0
    for t in tris:
        a = area2(*(pts[v] for v in t))
        if a == 0:
            raise Bad("degenerate output cell %s" % (t,))
        total += abs(a)
    if total != 2:
        raise Bad("output cells cover area %s, not 1" % (total / 2))


def check_compose2d(out, f, g):
    pts, tris, imgs = parse_pm(out)
    _covers_square(pts, tris)
    for p, q in zip(pts, imgs):
        if f(g(p)) != q:
            raise Bad("compose: image of %s is %s, expected %s" % (p, q, f(g(p))))


def check_invert2d(out, f):
    pts, tris, imgs = parse_pm(out)
    _covers_square(pts, tris)
    for p, q in zip(pts, imgs):
        if f(q) != p:
            raise Bad("invert: f(%s) != %s" % (q, p))


def check_fixset(out, f, must_contain):
    """Every listed vertex and the centroid of every listed simplex is fixed,
    and every grid vertex the map does not move is listed."""
    pts, sims = [], []
    for line in out.splitlines():
        tok = line.split()
        if tok[0] == "v":
            pts.append((rat(tok[2]), rat(tok[3])))
        elif tok[0] == "s":
            sims.append([int(t) for t in tok[1:]])
    if {v for s in sims for v in s} != set(range(len(pts))):
        raise Bad("fixset simplices do not use exactly the listed vertices")
    for p in pts:
        if f(p) != p:
            raise Bad("fixset lists %s, which moves" % (p,))
    for s in sims:
        c = tuple(sum(pts[v][k] for v in s) / len(s) for k in (0, 1))
        if len(set(s)) != len(s) or f(c) != c:
            raise Bad("fixset simplex %s is not fixed" % (s,))
    missing = set(must_contain) - set(pts)
    if missing:
        raise Bad("fixset misses fixed vertex %s" % (min(missing),))


def check_point(out, expected):
    got = tuple(rat(t) for t in out.split())
    if got != tuple(expected):
        raise Bad("eval gave %s, expected %s" % (got, expected))


def check_overlay(out, t1, t2):
    pts, tris, prov = {}, [], []
    for line in out.splitlines():
        tok = line.split()
        if tok[0] == "v":
            pts[int(tok[1])] = (rat(tok[2]), rat(tok[3]))
        elif tok[0] == "s":
            tris.append(tuple(int(t) for t in tok[1:]))
        elif tok[:2] == ["#", "cell"]:
            prov.append((tuple(int(t) for t in tok[2:5]), int(tok[6]), int(tok[7])))
    if sorted(s for s, _, _ in prov) != sorted(tris):
        raise Bad("overlay provenance does not list every cell once")
    _covers_square(pts, tris)
    for s, i1, i2 in prov:
        for src, i in ((t1, i1), (t2, i2)):
            tri = [src[0][v] for v in sorted(tuple(sorted(t)) for t in src[1])[i]]
            if not all(in_triangle(pts[v], tri) for v in s):
                raise Bad("overlay cell %s is not inside its source cell" % (s,))


def check_analyze2d(out, gens):
    rep = parse_report(out)
    if sorted(rep) != sorted(gens):
        raise Bad("analyze reports generators %s" % sorted(rep))
    for name, must_fix in gens.items():
        e = rep[name]
        want = {"fix_empty": False, "fix_everything": False,
                "fuller_k": 1, "fuller_euler": 1}
        for k, v in want.items():
            if e.get(k) != v:
                raise Bad("analyze %s: %s = %r, expected %r" % (name, k, e.get(k), v))
        if e["fix_cells_by_dim"]["0"] < must_fix:
            raise Bad("analyze %s: too few fixed vertices" % name)


def check_rotno(out, p, q, qmax):
    if not (out.startswith("[") and out.endswith("]\n")):
        raise Bad("rotno output %r" % out)
    lo, hi = (rat(t) for t in out[1:-2].split(", "))
    r = F(p, q)
    if q <= qmax and (lo, hi) != (r, r):
        raise Bad("rotno [%s, %s], expected exactly %s" % (lo, hi, r))
    if not lo <= r <= hi:
        raise Bad("rotno enclosure [%s, %s] misses %s" % (lo, hi, r))


def check_analyze_circle(out, gens):
    rep = parse_report(out)
    if sorted(rep) != sorted(gens):
        raise Bad("analyze reports generators %s" % sorted(rep))
    for name, (p, q, orbit) in gens.items():
        e = rep[name]
        lo, hi = (rat(t) for t in e["rotation_enclosure"])
        if not lo <= F(p, q) <= hi:
            raise Bad("analyze %s: enclosure misses %s/%s" % (name, p, q))
        if e["rational"] != [p, q] or e["rational_outcome"] != "found":
            raise Bad("analyze %s: rational %r" % (name, e["rational"]))
        pieces = [(rat(a), rat(b)) for a, b in e["fixed_set_power_q"]]
        for x in orbit:
            if not any(a <= x <= b for a, b in pieces):
                raise Bad("analyze %s: periodic point %s not in Fix(F^q - p)" % (name, x))


def _probe_points(xs):
    """Breakpoints of an output 1D map and the midpoints between them: two
    PL maps that agree there and share those breakpoints are equal."""
    return list(xs) + [(a + b) / 2 for a, b in zip(xs, xs[1:])]


def check_compose1d(out, chain):
    bps = parse_points_1d(out, "interval 0 1")
    got = PL1D(bps)
    for x in _probe_points([x for x, _ in bps]):
        y = x
        for f in reversed(chain):
            y = f(y)
        if got(x) != y:
            raise Bad("compose1d differs at %s" % x)


def check_invert1d(out, f):
    bps = parse_points_1d(out, "interval 0 1")
    got = PL1D(bps)
    for y in _probe_points([x for x, _ in bps]):
        if f(got(y)) != y:
            raise Bad("invert1d: f(h(%s)) != %s" % (y, y))


def check_abelianize(out, ds):
    want = invariant_factors(ds)
    text = " ".join(str(f) for f in want) if want else "(trivial)"
    if out != text + "\n":
        raise Bad("abelianize %r, expected %r" % (out, text))


def check_certify(out, code, expect, as_json):
    """`expect` holds the verdict known by construction and what the witness
    is re-checked against: maps (name -> GridMap), moved vertex sets, n."""
    if as_json:
        doc = json.loads(out)
        if doc.get("schema_version") != 1 or doc.get("command") != "certify":
            raise Bad("bad certify envelope")
        rep = doc["report"]
    else:
        rep = {"witness": None}
        for line in out.splitlines():
            key, _, val = line.partition(": ")
            if key == "witness":
                rep["witness"] = json.loads(val)
            elif key == "verified_stars":
                rep[key] = [int(t) for t in val.split()]
            elif key in ("status", "stage"):
                rep[key] = val
    status, stage = expect["verdict"]
    if (rep.get("status"), rep.get("stage")) != (status, stage):
        raise Bad("certify %s/%s, expected %s/%s"
                  % (rep.get("status"), rep.get("stage"), status, stage))
    want_code = {"Trivial": 0, "Obstructed": 2, "HypothesisFailed": 3}[status]
    if code != want_code:
        raise Bad("certify exit %s, expected %s" % (code, want_code))
    n, maps, moved = expect["n"], expect["maps"], expect["moved"]
    verified = rep.get("verified_stars", [])
    for v in verified:
        star = set(grid_neighbours(n, v)) | {v}
        if any(star & moved[name] for name in maps):
            raise Bad("certify verified the star of %d, which a generator moves" % v)
    w = rep["witness"]
    if status == "Trivial" and len(verified) != (n + 1) ** 2:
        raise Bad("Trivial certificate does not cover every star")
    if status == "HypothesisFailed" and w["free_rank"] != expect["free_rank"]:
        raise Bad("H1 witness free rank %s" % w["free_rank"])
    if status == "Obstructed":
        f = maps[w["generator"]]
        if stage != "Propagation" and w["vertex"] != expect["vertex"]:
            raise Bad("witness names vertex %s, not %s" % (w["vertex"], expect["vertex"]))
        if stage == "TangentGate":
            _check_cone(f, n, w["vertex"], w["cone"], w["matrix"])
            return
        x, y = _pt(w["point"]), _pt(w["image"])
        if f(x) != y or x == y:
            raise Bad("witness point %s -> %s does not re-check" % (x, y))
        if stage == "FixedPointGate" and x != _grid_point(n, w["vertex"]):
            raise Bad("witness point %s is not vertex %s" % (x, w["vertex"]))
        if stage == "Propagation":
            cell = [_grid_point(n, v) for v in w["cell"]]
            if w["vertex"] not in w["cell"] or not in_triangle(x, cell):
                raise Bad("witness point %s is not in the star of vertex %s" % (x, w["vertex"]))


def _grid_point(n, v):
    return (F(v % (n + 1), n), F(v // (n + 1), n))


def _check_cone(f, n, vertex, cone, matrix):
    """The germ matrix must move the cone's rays as f does near the vertex,
    and must not be a positive multiple of the identity."""
    a = [[rat(t) for t in row] for row in matrix]
    if a[0][1] == a[1][0] == 0 and a[0][0] == a[1][1] > 0:
        raise Bad("tangent witness matrix is a positive scalar")
    for ray in cone:
        _check_ray(f, n, vertex, ray, a)


def _check_ray(f, n, vertex, ray, a):
    """f moves the grid neighbour of `vertex` along `ray` as the matrix a
    moves the ray (the vertex is fixed and f is linear on the cone)."""
    p = _grid_point(n, vertex)
    t = F(1, n * max(abs(c) for c in ray))
    d = (t * ray[0], t * ray[1])
    want = (p[0] + a[0][0] * d[0] + a[0][1] * d[1], p[1] + a[1][0] * d[0] + a[1][1] * d[1])
    if f((p[0] + d[0], p[1] + d[1])) != want:
        raise Bad("germ matrix %s disagrees with the map on ray %s at vertex %d" % (a, ray, vertex))


def check_tangent(out, f, n, vertex):
    rays, mats = [], []
    for line in out.splitlines():
        tok = line.split()
        if tok[0] == "ray":
            rays.append((int(tok[1]), int(tok[2])))
        else:
            m = [rat(t) for t in tok[2:]]
            mats.append([m[0:2], m[2:4]])
    if len(rays) < len(mats):
        raise Bad("tangent lists fewer rays than cones")
    for k, m in enumerate(mats):
        for ray in (rays[k], rays[(k + 1) % len(rays)]):
            _check_ray(f, n, vertex, ray, m)
