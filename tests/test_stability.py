import os
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest

from plstab import fixedlocus, stability
from plstab.circle import CircleLift
from plstab.errors import DisconnectedComplex, VertexNotInComplex
from plstab.complexes import Complex, adjacency
from plstab.fixedlocus import fixed_subcomplex, fuller_search
from plstab.interval import PLMap1D
from plstab.plmap import (PLMap, compose2d, identity_map, inverse2d,
                          plmap_from_vertex_images)
from plstab.presentation import Presentation
from plstab.stability import (ActionSpec, analyze_action, certify_trivial,
                              verify_relators)

from support import (bench_grid_maps, f1_map, interior_move_map, quarter_rotation,
                     square_complex, three_cycle)


def test_trivial_action_covers_all_vertices():
    sq = square_complex()
    a = ActionSpec([("a", identity_map(sq)), ("b", identity_map(sq))],
                   presentation=Presentation(["a", "b"], [(1,), (2,)]))
    cert = certify_trivial(a, 0)
    assert cert.status == "Trivial"
    assert sorted(cert.verified_stars) == [0, 1, 2, 3, 4]
    assert cert.witness is None


def test_h1_gate_blocks_free_group():
    a = ActionSpec([("a", quarter_rotation())],
                   presentation=Presentation(["a"], []))
    cert = certify_trivial(a, 4)
    assert cert.status == "HypothesisFailed"
    assert cert.stage == "H1Gate"
    assert cert.witness["free_rank"] == 1


def test_fixed_point_gate():
    cert = certify_trivial(ActionSpec([("r", quarter_rotation())]), 0)
    assert cert.status == "Obstructed"
    assert cert.stage == "FixedPointGate"
    assert cert.witness["vertex"] == 0


def test_tangent_gate_rotation():
    cert = certify_trivial(ActionSpec([("r", quarter_rotation())]), 4)
    assert cert.status == "Obstructed"
    assert cert.stage == "TangentGate"
    assert cert.witness["matrix"] == ((F(0), F(-1)), (F(1), F(0)))


def test_tangent_gate_on_a_cycle():
    """The reflection of the triangle's boundary cycle that fixes vertex 0
    sends the edge direction (1, 0) there to (0, 1)."""
    f = plmap_from_vertex_images(three_cycle(), [(0, 0), (0, 1), (1, 0)])
    cert = certify_trivial(ActionSpec([("r", f)]), 0)
    assert (cert.status, cert.stage) == ("Obstructed", "TangentGate")
    assert cert.witness == {"vertex": 0, "generator": "r", "ray": (1, 0), "image_ray": (0, 1)}


def test_propagation_obstruction_names_frontier_vertex():
    h = interior_move_map()
    cert = certify_trivial(ActionSpec([("h", h)]), 3)
    assert cert.status == "Obstructed"
    assert cert.stage == "Propagation"
    assert cert.verified_stars  # identity held near the start vertex
    w = cert.witness
    assert h.eval(w["point"]) == w["image"] != w["point"]


def test_certify_errors():
    a = ActionSpec([("r", quarter_rotation())])
    with pytest.raises(VertexNotInComplex):
        certify_trivial(a, 99)
    pts = [(0, 0), (1, 0), (5, 0), (6, 0)]
    disc = Complex(pts, [(0, 1), (2, 3)])
    f = PLMap(disc, disc, list(pts))
    with pytest.raises(DisconnectedComplex):
        certify_trivial(ActionSpec([("f", f)]), 0)


def test_malformed_actions_are_refused():
    r = quarter_rotation()
    with pytest.raises(ValueError, match="duplicate generator names"):
        ActionSpec([("a", r), ("a", r)])
    with pytest.raises(ValueError, match="presentation generator names do not match"):
        ActionSpec([("a", r)], presentation=Presentation(["b"], []))
    with pytest.raises(ValueError, match="no presentation supplied"):
        verify_relators(ActionSpec([("a", r)]))
    with pytest.raises(ValueError, match="action has no generators"):
        certify_trivial(ActionSpec([]), 0)


def test_verify_relators():
    r = quarter_rotation()
    a = ActionSpec([("a", r)],
                   presentation=Presentation(["a"], [(1, 1, 1, 1)]))
    assert verify_relators(a) == "pass"
    bad = ActionSpec([("a", r)],
                     presentation=Presentation(["a"], [(1, 1)]))
    res = verify_relators(bad)
    assert res != "pass"
    assert res["relator"] == (1, 1)


def test_verify_relators_interval():
    a = ActionSpec([("a", f1_map())],
                   presentation=Presentation(["a"], [(1, 1)]))
    res = verify_relators(a)
    assert res != "pass" and res["sample_point"] is not None


def test_subset_monotonicity():
    sq = square_complex()
    gens = [("a", identity_map(sq)), ("b", identity_map(sq)),
            ("c", identity_map(sq))]
    rng = random.Random(8)
    for _ in range(5):
        k = rng.randint(1, 3)
        sub = rng.sample(gens, k)
        cert = certify_trivial(ActionSpec(sub), 2)
        assert cert.status == "Trivial"


def test_conjugation_covariance():
    # conjugating by the rotation maps the witness star around the square
    r = quarter_rotation()
    h = compose2d(r, compose2d(identity_map(r.base), inverse2d(r)))
    cert_orig = certify_trivial(ActionSpec([("g", r)]), 4)
    conj = compose2d(r, compose2d(r, inverse2d(r)))
    cert_conj = certify_trivial(ActionSpec([("g", conj)]), 4)
    assert cert_orig.status == cert_conj.status == "Obstructed"
    assert cert_orig.stage == cert_conj.stage


def test_analyze_complex_action():
    rep = analyze_action(ActionSpec([("r", quarter_rotation())]),
                         kmax=4)
    assert rep["r"]["fuller_k"] == 1
    assert rep["r"]["derivation_depth"] == 1
    assert rep["r"]["fix_cells_by_dim"][0] == 1


def test_analyze_builds_one_fixed_locus_per_generator_with_a_fixed_point(monkeypatch):
    """Fix(g) is Fix(g^1), so a generator with a fixed point has Fuller k = 1
    from the locus that `analyze_action` builds, and no search builds it
    again: on sixteen seeded pairs of n=3 grid maps, the benchmark's
    `analyze3` generator, whose maps fix the grid's boundary, that is 32
    builds.  The report is what the search gives."""
    def search(g):
        r = fuller_search(g, 6)
        return r.k, r.euler_char

    actions = [ActionSpec(list(zip("ab", bench_grid_maps(3, seed)))) for seed in range(16)]
    searched = [{name: search(g) for name, g in a.generators} for a in actions]
    builds = []

    def spy(f):
        builds.append(f)
        return fixed_subcomplex(f)

    monkeypatch.setattr(fixedlocus, "fixed_subcomplex", spy)
    monkeypatch.setattr(stability, "fixed_subcomplex", spy)
    for a, want in zip(actions, searched):
        rep = analyze_action(a)
        assert {name: (e["fuller_k"], e["fuller_euler"]) for name, e in rep.items()} == want
    assert len(builds) == 32


def test_analyze_circle_action():
    from plstab.circle import CircleLift
    rep = analyze_action(ActionSpec([("r13", CircleLift.rotation(F(1, 3)))]))
    assert rep["r13"]["rational"] == (1, 3)
    total = sum(hi - lo for lo, hi in rep["r13"]["fixed_set_power_q"])
    assert total == 1  # the cube of the rotation fixes the whole circle


def test_certify_interval_identity_is_trivial():
    a = ActionSpec([("a", PLMap1D.identity()), ("b", PLMap1D.identity())])
    for p in (0, 1):
        cert = certify_trivial(a, p)
        assert (cert.status, cert.verified_stars, cert.witness) == ("Trivial", [p, 1 - p], None)


def test_certify_interval_witness_rechecks():
    f = f1_map()
    cert = certify_trivial(ActionSpec([("f", f)]), 0)
    assert (cert.status, cert.stage) == ("Obstructed", "Propagation")
    (x,), (y,) = cert.witness["point"], cert.witness["image"]
    assert f.eval(x) == y != x


def test_certify_interval_witness_lies_past_an_identity_prefix():
    # the identity on [0, 1/2] but not globally: the first moved breakpoint
    f = PLMap1D([(0, 0), (F(1, 2), F(1, 2)), (F(3, 4), F(5, 8)), (1, 1)])
    cert = certify_trivial(ActionSpec([("f", f)]), 0)
    assert (cert.status, cert.stage) == ("Obstructed", "Propagation")
    (x,) = cert.witness["point"]
    assert x > F(1, 2) and f.eval(x) != x


def test_mixed_kind_rejected():
    """Generators of different map types, or of one type on different
    domains, do not form an action."""
    from plstab.errors import SupportMismatch
    for gens in ([quarter_rotation(), f1_map()],
                 [PLMap1D.identity(0, 1), PLMap1D.identity(0, 2)],
                 [quarter_rotation(), identity_map(_grid(2))],
                 [f1_map(), CircleLift.identity()],
                 [f1_map(), "not a map"]):
        with pytest.raises(SupportMismatch):
            ActionSpec([("g%d" % i, g) for i, g in enumerate(gens)])


def circle_map():
    return CircleLift([(0, F(1, 4)), (F(1, 2), F(1, 3)), (1, F(5, 4))])


def test_verify_relators_circle():
    a = CircleLift.rotation(F(1, 3))
    comm = ActionSpec([("a", a), ("c", CircleLift.rotation(F(1, 5)))],
                      presentation=Presentation(["a", "c"], [(1, 2, -1, -2)]))
    assert verify_relators(comm) == "pass"
    bad = ActionSpec([("a", a)],
                     presentation=Presentation(["a"], [(1, 1)]))
    res = verify_relators(bad)
    assert res["relator"] == (1, 1)
    x = res["sample_point"]
    assert (a(a(x)) - x) % 1 != 0  # moved on the circle, not only on the line
    # a^3 lifts to x -> x + 1, the identity of the circle
    cube = ActionSpec([("a", a)],
                      presentation=Presentation(["a"], [(1, 1, 1)]))
    assert verify_relators(cube) == "pass"


def test_circle_identity_is_judged_on_the_circle():
    shift = CircleLift.rotation(-2)
    assert shift.is_identity() and shift.moved_point() is None
    g = CircleLift([(0, 1), (F(1, 2), F(7, 4)), (1, 2)])  # fixes 0 on the circle
    assert not g.is_identity()
    assert g.moved_point() == F(1, 2)


@pytest.mark.parametrize("kind, gen", [
    ("interval", f1_map), ("circle", circle_map), ("complex", quarter_rotation)])
def test_verify_relators_empty_word(kind, gen):
    g = gen()
    # a a^-1 and a^-1 a reduce to the empty word; a alone moves a point
    a = ActionSpec([("a", g)],
                   presentation=Presentation(["a"], [(1, -1), (-1, 1), ()]))
    assert verify_relators(a) == "pass"
    bad = ActionSpec([("a", g)], presentation=Presentation(["a"], [(1,)]))
    x = verify_relators(bad)["sample_point"]
    image = g.eval(x) if kind == "complex" else g(x)
    assert image != x


@pytest.mark.parametrize("kind", ["interval", "circle", "complex"])
def test_verify_relators_without_generators(kind):
    # the empty action passes whatever kind of map it would hold, and so
    # does one whose only generator is the identity of that kind
    a = ActionSpec([], presentation=Presentation([], [()]))
    assert verify_relators(a) == "pass"
    gen = {"interval": f1_map, "circle": circle_map,
           "complex": quarter_rotation}[kind]
    one = ActionSpec([("e", gen().identity_like())],
                     presentation=Presentation(["e"], [(), (1,), (1, -1)]))
    assert verify_relators(one) == "pass"


@pytest.mark.parametrize("gen", [f1_map, circle_map, quarter_rotation])
def test_map_protocol(gen):
    g = gen()
    one = g.identity_like()
    assert g.domain == g.inverse().domain == one.domain
    assert one.is_identity() and one.moved_point() is None
    assert not g.is_identity()
    x = g.moved_point()
    assert g.eval(x) != x
    assert g.compose(g.inverse()).is_identity()
    assert g.inverse().compose(g).is_identity()
    assert g.compose(one) == g and one.compose(g) == g
    assert g.compose(g).eval(x) == g.eval(g.eval(x))


# Each probe breaks one step under certify_trivial and must trip an explicit
# self-check; run under `python -O`, which would strip plain asserts.
SOUNDNESS_PROBE = r"""
import sys
import plstab.stability as st
from plstab.errors import InternalError
from plstab.plmap import PLMap
from support import interior_move_map

assert sys.flags.optimize
action = st.ActionSpec([("h", interior_move_map())])
for name, obj, attr, fake in [
        ("witness", PLMap, "eval", lambda self, x: tuple(x)),
        # the star table holds only the star of vertex 3, which the
        # tangent gate reads, so the propagation stops beside it
        ("coverage", st.Complex, "stars", lambda self: [[0] if v == 3 else [] for v in range(7)]),
        ("identity", st, "_moved_cells", lambda f: {})]:
    real = getattr(obj, attr)
    setattr(obj, attr, fake)
    try:
        st.certify_trivial(action, 3)
    except InternalError:
        print("fired", name)
    finally:
        setattr(obj, attr, real)
"""


def test_certificate_checks_survive_python_O():
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    # src and tests first; the caller's path after them, which may be where
    # this interpreter finds the packages that support imports
    path = [src, here] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run([sys.executable, "-O", "-c", SOUNDNESS_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["fired witness", "fired coverage", "fired identity"]


def test_cli_does_not_report_internal_errors_as_data_errors(tmp_path, monkeypatch):
    from plstab.cli import main
    from plstab.complexes import format_complex
    from plstab.errors import InternalError
    from plstab.plmap import format_plmap

    h = interior_move_map()
    (tmp_path / "base.cx").write_text(format_complex(h.base))
    (tmp_path / "h.pm").write_text(format_plmap(h, "base.cx"))
    monkeypatch.setattr(PLMap, "eval", lambda self, x: tuple(x))
    with pytest.raises(InternalError):
        main(["certify", "--action", str(tmp_path), "--vertex", "3"])


# -- every Obstructed witness re-checks with eval ------------------------


def _grid(n):
    """The n x n grid of the unit square, each cell cut along a diagonal."""
    pts = [(F(i, n), F(j, n)) for j in range(n + 1) for i in range(n + 1)]
    tris = []
    for j in range(n):
        for i in range(n):
            a = j * (n + 1) + i
            tris += [(a, a + 1, a + n + 2), (a, a + n + 2, a + n + 1)]
    return Complex(pts, tris)


def _grid_move(rng, base, n):
    """Shift a random set of interior vertices by at most 1/(5n) per
    coordinate, which keeps every triangle positively oriented."""
    d = F(1, 5 * n)
    images = list(base.points)
    for j in range(1, n):
        for i in range(1, n):
            if rng.random() < 0.3:
                x, y = images[j * (n + 1) + i]
                images[j * (n + 1) + i] = (x + rng.choice((-d, 0, d)), y + rng.choice((-d, d)))
    return PLMap(base, base, images)


def _in_closed_triangle(x, tri):
    a, b, c = tri
    def side(p, q, r):
        return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    signs = [side(a, b, x), side(b, c, x), side(c, a, x)]
    return all(s >= 0 for s in signs) or all(s <= 0 for s in signs)


def _check_obstruction(cert, base, gens):
    w = cert.witness
    f = gens[w["generator"]]
    if cert.stage in ("FixedPointGate", "Propagation"):
        assert f.eval(w["point"]) == w["image"] != w["point"]
    if cert.stage == "FixedPointGate":
        assert w["point"] == base.points[w["vertex"]]
    elif cert.stage == "Propagation":
        assert _in_closed_triangle(w["point"], [base.points[v] for v in w["cell"]])
    else:
        pt = base.points[w["vertex"]]
        (m00, m01), (m10, m11) = w["matrix"]
        u, v = w["cone"]
        s = F(1, 10**4)
        for ray in (u, (u[0] + v[0], u[1] + v[1])):
            d = (s * ray[0], s * ray[1])
            x, y = f.eval((pt[0] + d[0], pt[1] + d[1]))
            assert (x - pt[0], y - pt[1]) == (m00 * d[0] + m01 * d[1], m10 * d[0] + m11 * d[1])
        assert not (m01 == m10 == 0 and m00 == m11 > 0)


def test_obstructed_witnesses_recheck_with_eval():
    rng = random.Random(11)
    stages = set()
    bases = {n: _grid(n) for n in (3, 4)}
    for _ in range(20):
        n = rng.choice((3, 4))
        base = bases[n]
        gens = {name: _grid_move(rng, base, n) for name in ("a", "b")[:rng.randint(1, 2)]}
        p = rng.randrange(len(base.points))
        cert = certify_trivial(ActionSpec(sorted(gens.items())), p)
        if cert.status == "Obstructed":
            _check_obstruction(cert, base, gens)
            stages.add(cert.stage)
    assert stages == {"FixedPointGate", "TangentGate", "Propagation"}


def test_the_fixed_point_gate_reads_the_image_without_eval(monkeypatch):
    """The start vertex is a refinement vertex, so the gate reads its image:
    with `PLMap.eval` refusing, an action obstructed there gives the
    certificate it gave before, for a grid map on its base, for its square
    on a finer refinement, and for an interval map that reverses [0, 1]."""
    base = _grid(3)
    images = list(base.points)
    x, y = images[5]
    images[5] = (x + F(1, 15), y - F(1, 15))
    f = PLMap(base, base, images)
    cases = [(ActionSpec([("a", f)]), 5), (ActionSpec([("a", compose2d(f, f))]), 5),
             (ActionSpec([("r", PLMap1D([(0, 1), (F(1, 2), F(1, 4)), (1, 0)]))]), 0)]
    expected = [certify_trivial(action, p) for action, p in cases]

    def refuse(self, x):
        raise AssertionError("PLMap.eval called")

    monkeypatch.setattr(PLMap, "eval", refuse)
    for (action, p), cert in zip(cases, expected):
        assert cert.stage == "FixedPointGate"
        assert certify_trivial(action, p) == cert


def _scan_propagation(base, gens, p):
    """Verified stars and witness of the propagation stage by the per-star
    scan it replaced: each star's base cells found by a scan of the base,
    and each generator's refinement scanned for the first cell in the star
    with a moved vertex."""
    neighbours = adjacency(base.simplices)
    verified, seen, queue = [], {p}, [p]
    while queue:
        v = queue.pop(0)
        star = {i for i, s in enumerate(base.simplices) if v in s}
        for name, f in gens:
            for s, home in zip(f.refinement.simplices, f.cell_base):
                moved = [u for u in s if f.images[u] != f.refinement.points[u]]
                if home in star and moved:
                    return verified, {"vertex": v, "generator": name,
                                      "cell": base.simplices[home],
                                      "point": f.refinement.points[moved[0]],
                                      "image": f.images[moved[0]]}
        verified.append(v)
        for w in sorted(neighbours[v]):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return verified, None


def test_propagation_matches_the_per_star_scan():
    rng = random.Random(5)
    outcomes = set()
    for n in (3, 3, 4, 4):
        base = _grid(n)
        gens = sorted({"a": _grid_move(rng, base, n),
                       "b": compose2d(_grid_move(rng, base, n), _grid_move(rng, base, n)),
                       "c": identity_map(base)}.items())
        for sub in (gens, gens[2:]):
            for p in range(len(base.points)):
                cert = certify_trivial(ActionSpec(sub), p)
                if cert.stage == "Propagation":
                    assert (cert.verified_stars, cert.witness) == _scan_propagation(base, sub, p)
                    outcomes.add(cert.status)
    assert outcomes == {"Trivial", "Obstructed"}
