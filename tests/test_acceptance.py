"""Acceptance suite: one criterion per test, one pass/fail line each.

The summary lines are collected in RESULTS and echoed after the run by
the pytest_terminal_summary hook in conftest.py, so plain `pytest -v`
shows them.
"""

import math
import random
import time
from fractions import Fraction as F

from plstab.circle import (CircleLift, detect_rational_rotation,
                           rotation_enclosure)
from plstab.complexes import Complex, triangle_area2
from plstab.clip import point_in_triangle
from plstab.fixedlocus import canonical_invariant, fixed_subcomplex, fuller_search
from plstab.geometry import Mat, primitive_direction
from plstab.interval import (PLMap1D, compose1d, eval1d, fixed_set_1d,
                             inverse1d, one_sided_derivative)
from plstab.overlay import overlay
from plstab.plmap import PLMap, identity_map, plmap_from_vertex_images
from plstab.presentation import Presentation, abelianization, commutator
from plstab.stability import ActionSpec, certify_trivial
from plstab.tangent import Germ, build_germ, fan_of_star, is_trivial_on_tangent_sphere

from support import (cycle_rotation, interior_move_map, quarter_rotation,
                     random_plmap1d, random_square_triangulation,
                     square_complex)


RESULTS = []


def report(num, name, ok, elapsed=None):
    line = "ACCEPTANCE %d %s: %s" % (num, name, "PASS" if ok else "FAIL")
    if elapsed is not None:
        line += " (%.1fs)" % elapsed
    RESULTS.append(line)
    print(line, flush=True)
    assert ok


def test_criterion_1_exact_composition_oracle():
    start = time.monotonic()
    rng = random.Random(101)
    ok = True
    for _ in range(500):
        f = random_plmap1d(rng, max_breaks=20)
        g = random_plmap1d(rng, max_breaks=20)
        h = compose1d(f, g)
        for _ in range(100):
            x = F(rng.randint(0, 4096), 4096)
            if eval1d(h, x) != eval1d(f, eval1d(g, x)):
                ok = False
    elapsed = time.monotonic() - start
    report(1, "exact composition oracle", ok and elapsed < 10, elapsed)


def random_map_fixing_zero(rng):
    while True:
        f = random_plmap1d(rng, max_breaks=6)
        if eval1d(f, 0) == 0:
            return f


def test_criterion_2_derivative_character():
    rng = random.Random(202)
    gens = [random_map_fixing_zero(rng) for _ in range(3)]
    chars = [one_sided_derivative(f, 0, "right") for f in gens]
    ok = True
    for _ in range(200):
        word = [rng.choice([1, -1, 2, -2, 3, -3])
                for _ in range(rng.randint(1, 6))]
        m = PLMap1D.identity()
        expected = F(1)
        for letter in word:
            g = gens[abs(letter) - 1]
            c = chars[abs(letter) - 1]
            if letter < 0:
                g, c = inverse1d(g), 1 / c
            m = compose1d(g, m)
            expected *= c
        if one_sided_derivative(m, 0, "right") != expected:
            ok = False
    # commutator words always have character 1
    for _ in range(50):
        i, j = rng.choice([1, 2, 3]), rng.choice([1, 2, 3])
        w = commutator((i,), (j,))
        m = PLMap1D.identity()
        for letter in w:
            g = gens[abs(letter) - 1]
            m = compose1d(inverse1d(g) if letter < 0 else g, m)
        if one_sided_derivative(m, 0, "right") != 1:
            ok = False
    report(2, "derivative character homomorphism", ok)


def test_criterion_3_rotation_numbers():
    start = time.monotonic()
    ok = True
    for q in range(1, 33):
        for p in range(q):
            if math.gcd(p, q) != 1:
                continue
            rat, outcome = detect_rational_rotation(CircleLift.rotation(F(p, q)),
                                                    qmax=32)
            if outcome != "found" or (rat.p, rat.q) != (p, q):
                ok = False
    maps = [CircleLift.rotation(F(2, 7)),
            CircleLift([(0, F(1, 3)), (F(1, 4), F(1, 2)), (F(3, 4), F(5, 6)),
                        (1, F(4, 3))]),
            CircleLift([(0, F(1, 8)), (F(1, 2), F(3, 4)), (1, F(9, 8))])]
    for Fm in maps:
        rat, _ = detect_rational_rotation(Fm, qmax=16)
        for n in (4, 16, 64, 256, 1024):
            enc = rotation_enclosure(Fm, n)
            if enc.hi - enc.lo > F(2, n):
                ok = False
            if rat is not None and not (enc.lo <= rat.value <= enc.hi):
                ok = False
    elapsed = time.monotonic() - start
    report(3, "rotation number detection and enclosures", ok and elapsed < 30,
           elapsed)


def brute_fixed_1d(f):
    pieces = []
    for (x0, y0), (x1, y1) in zip(f.breakpoints, f.breakpoints[1:]):
        sl = (y1 - y0) / (x1 - x0)
        if sl == 1 and y0 == x0:
            pieces.append((x0, x1))
        elif sl != 1:
            x = (sl * x0 - y0) / (sl - 1)
            if x0 <= x <= x1:
                pieces.append((x, x))
    merged = []
    for lo, hi in sorted(pieces):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def fix_matches_2d(f):
    """Compare fixed_subcomplex against a direct per-cell affine check."""
    fl = fixed_subcomplex(f)
    # (a) every cell the locus claims is pointwise fixed
    for s in fl.cells.simplices:
        pts = [fl.refined.points[v] for v in s]
        probes = list(pts)
        if len(pts) >= 2:
            probes.append(tuple(sum(c) / len(pts) for c in zip(*pts)))
        for x in probes:
            if f.eval(x) != x:
                return False
    # (b) a dense rational sample of truly fixed points lies in the locus
    tris = [[fl.refined.points[v] for v in s] for s in fl.cells.of_dim(2)]
    segs = [[fl.refined.points[v] for v in s] for s in fl.cells.of_dim(1)]
    dots = [fl.refined.points[s[0]] for s in fl.cells.of_dim(0)]
    for k in range(9):
        for l in range(9):
            x = (F(k, 8), F(l, 8))
            try:
                fixed = f.eval(x) == x
            except Exception:
                continue
            if not fixed:
                continue
            inside = (x in dots
                      or any(point_in_triangle(x, t) for t in tris)
                      or any(_on_segment(x, a, b) for a, b in segs))
            if not inside:
                return False
    return True


def _on_segment(x, a, b):
    from plstab.geometry import between
    return between(a, b, x)


def n_f_is_closed_manifold(fl):
    try:
        ci = canonical_invariant(fl)
    except Exception:
        return True  # empty or everything: no invariant to check
    top = max((len(s) - 1 for s in ci.n_f.simplices), default=0)
    if top == 0:
        return True
    degrees = {}
    for s in ci.n_f.of_dim(1):
        for v in s:
            degrees[v] = degrees.get(v, 0) + 1
    return all(d == 2 for d in degrees.values())


def test_criterion_4_fixed_loci():
    rng = random.Random(404)
    ok = True
    for _ in range(200):
        f = random_plmap1d(rng, max_breaks=10)
        if fixed_set_1d(f) != brute_fixed_1d(f):
            ok = False
    built = 0
    while built < 50:
        a = F(rng.randint(9, 15), 16)
        b = F(rng.randint(1, 15), 16)
        try:
            f = interior_move_map(target=(a, b))
        except Exception:
            continue
        built += 1
        fl = fixed_subcomplex(f)
        if not fix_matches_2d(f) or not n_f_is_closed_manifold(fl):
            ok = False
    # symmetry preservation: the vertical reflection commutes with any
    # target on the horizontal midline
    f = interior_move_map(target=(F(13, 16), F(1, 2)))
    refl = plmap_from_vertex_images(
        f.base, [(0, 1), (1, 1), (1, 0), (0, 0), (F(1, 2), 1), (F(1, 2), 0),
                 (F(3, 4), F(1, 2))])
    fl = fixed_subcomplex(f)
    for s in fl.cells.simplices:
        for v in s:
            x = refl.eval(fl.refined.points[v])
            if f.eval(x) != x:
                ok = False
    report(4, "fixed loci vs brute force", ok)


def direction_sampling_trivial(g, directions=100):
    per_cone = max(3, directions // max(1, len(g.fan.cones)))
    for (u, v), m in zip(g.fan.cones, g.matrices):
        probes = [u, v]
        for k in range(1, per_cone + 1):
            a, b = F(k, per_cone + 1), F(per_cone + 1 - k, per_cone + 1)
            probes.append((a * u[0] + b * v[0], a * u[1] + b * v[1]))
        for d in probes:
            if d == (0, 0):
                continue
            if primitive_direction(m.apply(d)) != primitive_direction(d):
                return False
    return True


def random_germ(rng):
    fan = fan_of_star(square_complex(), 4)
    kind = rng.choice(["scalar", "mixed-scalars", "rotation", "linear"])
    if kind == "scalar":
        lam = F(rng.randint(1, 9), rng.randint(1, 9))
        mats = [Mat([[lam, 0], [0, lam]])] * len(fan.cones)
    elif kind == "mixed-scalars":
        mats = [Mat([[lam, 0], [0, lam]])
                for lam in (F(rng.randint(1, 9), rng.randint(1, 9))
                            for _ in fan.cones)]
    elif kind == "rotation":
        r = Mat([[0, -1], [1, 0]])
        mats = [r] * len(fan.cones)
    else:
        m = Mat([[rng.randint(-3, 3), rng.randint(-3, 3)],
                 [rng.randint(-3, 3), rng.randint(-3, 3)]])
        if m.det() == 0:
            return random_germ(rng)
        mats = [m] * len(fan.cones)
    return Germ(fan=fan, matrices=tuple(mats))


def test_criterion_5_tangent_triviality():
    rng = random.Random(505)
    ok = True
    for _ in range(300):
        g = random_germ(rng)
        if is_trivial_on_tangent_sphere(g) != direction_sampling_trivial(g):
            ok = False
    rot = build_germ(quarter_rotation(), 4)
    if is_trivial_on_tangent_sphere(rot):
        ok = False
    lam = F(3, 7)
    fan = fan_of_star(square_complex(), 4)
    scalars = Germ(fan=fan, matrices=tuple([Mat([[lam, 0], [0, lam]])] * 4))
    if not is_trivial_on_tangent_sphere(scalars):
        ok = False
    report(5, "tangent triviality vs ray sampling", ok)


def test_criterion_6_overlay_conservation():
    start = time.monotonic()
    rng = random.Random(606)
    ok = True
    for _ in range(100):
        c1 = random_square_triangulation(rng)
        c2 = random_square_triangulation(rng)
        ov = overlay(c1, c2)
        total = sum(triangle_area2(tuple(ov.cells.points[v] for v in s)) / 2
                    for s in ov.cells.simplices)
        if total != 1:
            ok = False
        for s, (i1, i2) in ov.provenance.items():
            tri1 = [c1.points[v] for v in c1.simplices[i1]]
            tri2 = [c2.points[v] for v in c2.simplices[i2]]
            if not all(point_in_triangle(ov.cells.points[v], tri1)
                       and point_in_triangle(ov.cells.points[v], tri2)
                       for v in s):
                ok = False
    elapsed = time.monotonic() - start
    report(6, "overlay conservation", ok and elapsed < 60, elapsed)


def test_criterion_7_snf_and_abelianization():
    rng = random.Random(707)
    ok = True
    from plstab.presentation import smith_normal_form

    def matmul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
                 for j in range(len(b[0]))] for i in range(len(a))]

    for _ in range(200):
        r, c = rng.randint(1, 6), rng.randint(1, 8)
        m = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
        s = smith_normal_form(m)
        if matmul(matmul(s["U"], m), s["V"]) != s["D"]:
            ok = False
        diag = [s["D"][i][i] for i in range(min(r, c))]
        for a, b in zip(diag, diag[1:]):
            if b != 0 and (a == 0 or b % a != 0):
                ok = False
    ok = ok and abelianization(Presentation(["a"], [])).invariant_factors == [0]
    ok = ok and abelianization(Presentation(["a"], [(1, 1)])).invariant_factors == [2]
    ok = ok and abelianization(
        Presentation(["a", "b"], [commutator((1,), (2,))])).invariant_factors == [0, 0]
    report(7, "Smith normal form and abelianization", ok)


def f1_as_complex_action():
    base = Complex([(F(0),), (F(1),)], [(0, 1)])
    ref = Complex([(F(0),), (F(1, 4),), (F(1),)], [(0, 1), (1, 2)])
    return PLMap(base, ref, [(F(0),), (F(1, 2),), (F(1),)])


def test_criterion_8_certifier_end_to_end():
    ok = True
    budgets = []
    # (a) all-identity action with perfect presentation
    t0 = time.monotonic()
    sq = square_complex()
    a = ActionSpec([("a", identity_map(sq)), ("b", identity_map(sq))],
                   presentation=Presentation(["a", "b"], [(1,), (2,)]))
    cert = certify_trivial(a, 0)
    ok = ok and cert.status == "Trivial" and len(cert.verified_stars) == 5
    budgets.append(time.monotonic() - t0)
    # (b) f1 on the interval complex with a free presentation
    t0 = time.monotonic()
    b = ActionSpec([("a", f1_as_complex_action())],
                   presentation=Presentation(["a"], []))
    cert = certify_trivial(b, 0)
    ok = ok and cert.status == "HypothesisFailed" and cert.stage == "H1Gate"
    budgets.append(time.monotonic() - t0)
    # (c) square shear at the center: TangentGate witness that rechecks
    t0 = time.monotonic()
    pts = [(0, 0), (1, 0), (1, 1), (0, 1), (F(1, 2), F(1, 2)),
           (F(1, 2), F(1, 4))]
    shear_base = Complex(pts, [(0, 1, 5), (0, 4, 5), (1, 4, 5), (1, 2, 4),
                               (2, 3, 4), (3, 0, 4)])
    shear = plmap_from_vertex_images(
        shear_base, pts[:5] + [(F(1, 2), F(3, 8))])
    cert = certify_trivial(ActionSpec([("s", shear)]), 4)
    ok = ok and cert.status == "Obstructed" and cert.stage == "TangentGate"
    if ok:
        u, v = cert.witness["cone"]
        apex = shear_base.points[4]
        d = (u[0] + v[0], u[1] + v[1])
        probe = (apex[0] + F(d[0], 64), apex[1] + F(d[1], 64))
        wanted = tuple(apex[k] + sum(F(row[j], 64) * d[j] for j in range(2))
                       for k, row in enumerate(cert.witness["matrix"]))
        ok = shear.eval(probe) == wanted and probe != wanted
    budgets.append(time.monotonic() - t0)
    # (d) identity near p, nontrivial on a distant star
    t0 = time.monotonic()
    h = interior_move_map()
    cert = certify_trivial(ActionSpec([("h", h)]), 3)
    ok = (ok and cert.status == "Obstructed" and cert.stage == "Propagation"
          and cert.witness["vertex"] is not None
          and h.eval(cert.witness["point"]) != cert.witness["point"])
    budgets.append(time.monotonic() - t0)
    ok = ok and all(t < 5 for t in budgets)
    report(8, "certifier end-to-end", ok, sum(budgets))


def test_criterion_9_fuller_search():
    res = fuller_search(quarter_rotation(), 4)
    ok = res.k == 1 and res.euler_char == 1
    rot3 = cycle_rotation()
    ok = ok and fuller_search(rot3, 2).k is None
    res3 = fuller_search(rot3, 3)
    ok = ok and res3.k == 3 and res3.euler_char == 0
    report(9, "Fuller periodic-point search", ok)
