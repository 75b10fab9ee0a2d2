"""Seeded input generators for the benchmark (standard library only).

Every generator takes a ``random.Random`` and returns plain data: exact
``Fraction`` coordinates plus the text of the file plstab will read.  The
benchmark keeps the data to check outputs with its own oracle (``oracle.py``)
and hands plstab only the files.
"""

from fractions import Fraction as F
from math import gcd


def fmt(q):
    """Canonical text of a rational: 'p/q', or 'p' when q = 1."""
    q = F(q)
    return str(q.numerator) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)


# -- triangulations of the unit square --------------------------------------


def grid_points(n):
    """Vertex (i, j) of the n x n grid has index j*(n+1) + i and sits at (i/n, j/n)."""
    return [(F(i, n), F(j, n)) for j in range(n + 1) for i in range(n + 1)]


def grid_triangles(n):
    """Each grid cell is cut by its diagonal from (i, j) to (i+1, j+1)."""
    tris = []
    for j in range(n):
        for i in range(n):
            a = j * (n + 1) + i
            tris.append((a, a + 1, a + n + 2))
            tris.append((a, a + n + 2, a + n + 1))
    return tris


def interior_vertices(n):
    return [j * (n + 1) + i for j in range(1, n) for i in range(1, n)]


def grid_neighbours(n, v):
    """Vertices sharing a grid triangle with v (the closed star minus v)."""
    i, j = v % (n + 1), v // (n + 1)
    out = []
    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)):
        a, b = i + di, j + dj
        if 0 <= a <= n and 0 <= b <= n:
            out.append(b * (n + 1) + a)
    return out


def complex_text(points, tris):
    lines = ["v %d %s" % (k, " ".join(fmt(c) for c in p)) for k, p in enumerate(points)]
    lines += ["s %s" % " ".join(str(v) for v in t) for t in tris]
    return "\n".join(lines) + "\n"


def pm_text(points, tris, images, base_name="base.cx"):
    """A 2D map file whose refinement is the base triangulation itself."""
    body = complex_text(points, tris)
    imgs = "".join("img %d %s\n" % (k, " ".join(fmt(c) for c in p))
                   for k, p in enumerate(images))
    return "base %s\n%s%s" % (base_name, body, imgs)


def move_vertices(rng, n, moved):
    """Images of the grid vertices when each vertex in `moved` shifts by
    +-1/(5n) in y and by -1/(5n), 0 or +1/(5n) in x.

    A shift of at most 1/(5n) per coordinate keeps every grid triangle
    positively oriented (twice its area stays >= (3/5)^2 - (2/5)^2 > 0 in
    units of 1/n^2), so the map is a homeomorphism that fixes the boundary.
    """
    pts = grid_points(n)
    d = F(1, 5 * n)
    images = list(pts)
    for v in sorted(moved):
        x, y = pts[v]
        images[v] = (x + rng.choice((-d, F(0), d)), y + rng.choice((-d, d)))
    return images


def grid_map(rng, n, avoid=()):
    """Move a seeded half of the interior vertices not listed in `avoid`."""
    avoid = set(avoid)
    pool = [v for v in interior_vertices(n) if v not in avoid]
    moved = set(rng.sample(pool, max(1, len(pool) // 2))) if pool else set()
    return move_vertices(rng, n, moved), moved


def random_triangulation(rng, splits, centroid_share=0.5):
    """Triangulation of the unit square by seeded centroid and edge-midpoint
    splits of the two-triangle square; returns (points, triangles).  Each
    split is a centroid split with probability centroid_share.  A centroid
    split always adds two triangles, an edge split one or two."""
    points = [(F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1))]
    tris = [(0, 1, 2), (0, 2, 3)]
    for _ in range(splits):
        if rng.random() < centroid_share:
            t = tris.pop(rng.randrange(len(tris)))
            a, b, c = (points[v] for v in t)
            points.append(((a[0] + b[0] + c[0]) / 3, (a[1] + b[1] + c[1]) / 3))
            m = len(points) - 1
            tris += [(t[0], t[1], m), (t[1], t[2], m), (t[2], t[0], m)]
        else:
            t = tris[rng.randrange(len(tris))]
            k = rng.randrange(3)
            u, v = t[k], t[(k + 1) % 3]
            points.append(((points[u][0] + points[v][0]) / 2,
                           (points[u][1] + points[v][1]) / 2))
            m = len(points) - 1
            new = []
            for s in tris:
                if u in s and v in s:
                    w = next(x for x in s if x not in (u, v))
                    new += [(u, w, m), (v, w, m)]
                else:
                    new.append(s)
            tris = new
    return points, tris


# -- 1D maps ----------------------------------------------------------------


def interval_map(rng, nbreaks):
    """Increasing PL bijection of [0, 1] with `nbreaks` interior breakpoints."""
    den = 8 * nbreaks
    xs = sorted(rng.sample(range(1, den), nbreaks))
    ys = sorted(rng.sample(range(1, den), nbreaks))
    return [(F(0), F(0))] + [(F(x, den), F(y, den)) for x, y in zip(xs, ys)] + [(F(1), F(1))]


def interval_text(bps):
    return "interval 0 1\n" + "".join("%s %s\n" % (fmt(x), fmt(y)) for x, y in bps)


def circle_lift(rng, p, q, kinks):
    """Lift of a circle map with rotation number p/q (gcd(p, q) = 1).

    The lift permutes q seeded points 0 = x_0 < ... < x_{q-1} < 1 cyclically,
    x_i -> x_{i+p} (plus 1 on wrap-around), so F^q(x_i) = x_i + p.  `kinks`
    extra breakpoints inside seeded gaps make iterates grow breakpoints.
    """
    den = 4 * q
    xs = [F(0)] + sorted(F(k, den) for k in rng.sample(range(1, den), q - 1))
    image = [xs[i + p] if i + p < q else xs[i + p - q] + 1 for i in range(q)]
    bps = list(zip(xs, image))
    for g in sorted(rng.sample(range(q), min(kinks, q))):
        (x0, y0) = bps[g]
        x1, y1 = (xs[g + 1], image[g + 1]) if g + 1 < q else (F(1), image[0] + 1)
        # the midpoint of the gap goes to a quarter point of its image gap,
        # so the kink is a real breakpoint that canonical forms keep
        s = F(rng.choice((1, 3)), 4)
        bps.append(((x0 + x1) / 2, y0 + s * (y1 - y0)))
    bps.sort()
    bps.append((F(1), image[0] + 1))
    return bps, xs


def circle_text(bps):
    return "circle\n" + "".join("%s %s\n" % (fmt(x), fmt(y)) for x, y in bps)


def coprime_p(rng, q):
    while True:
        p = rng.randrange(1, q)
        if gcd(p, q) == 1:
            return p


# -- presentations ----------------------------------------------------------


def presentation(rng, k):
    """Presentation with diagonal relators g_i^{d_i}, scrambled by seeded
    relator products and Nielsen substitutions g_i -> g_i g_j^{+-1}.

    Both moves act unimodularly on the exponent-sum matrix, so the abelian
    invariants stay those of diag(d_1, ..., d_k).  Returns (text, ds); a
    zero in ds is a generator with no relator (a free factor).
    """
    names = "abcdefgh"[:k]
    ds = [rng.choice((0, 1, 2, 3, 4, 6, 8, 9, 12)) for _ in range(k)]
    rels = [[(i, 1)] * d for i, d in enumerate(ds) if d]
    for _ in range(rng.randint(2, 4)):
        i, j = rng.sample(range(k), 2)
        e = rng.choice((1, -1))
        sub = [(i, 1), (j, e)]
        inv = [(j, -e), (i, -1)]
        rels = [[t for g, s in r for t in ((sub if s > 0 else inv) if g == i else [(g, s)])]
                for r in rels]
    if len(rels) >= 2:
        a, b = rng.sample(range(len(rels)), 2)
        rels[a] = rels[a] + rels[b]
    lines = ["gens " + " ".join(names)]
    for r in rels:
        lines.append("rel " + " ".join(names[g] if s > 0 else names[g] + "^-1" for g, s in r))
    return "\n".join(lines) + "\n", ds
