import os
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest

from plstab.circle import CircleLift
from plstab.errors import DisconnectedComplex, VertexNotInComplex
from plstab.complexes import Complex
from plstab.interval import PLMap1D
from plstab.plmap import PLMap, compose2d, identity_map, inverse2d
from plstab.presentation import Presentation
from plstab.stability import (ActionSpec, analyze_action, certify_trivial,
                              verify_relators)

from support import (f1_map, interior_move_map, quarter_rotation,
                     square_complex)


def test_trivial_action_covers_all_vertices():
    sq = square_complex()
    a = ActionSpec("complex", [("a", identity_map(sq)), ("b", identity_map(sq))],
                   presentation=Presentation(["a", "b"], [(1,), (2,)]))
    cert = certify_trivial(a, 0)
    assert cert.status == "Trivial"
    assert sorted(cert.verified_stars) == [0, 1, 2, 3, 4]
    assert cert.witness is None


def test_h1_gate_blocks_free_group():
    a = ActionSpec("complex", [("a", quarter_rotation())],
                   presentation=Presentation(["a"], []))
    cert = certify_trivial(a, 4)
    assert cert.status == "HypothesisFailed"
    assert cert.stage == "H1Gate"
    assert cert.witness["free_rank"] == 1


def test_fixed_point_gate():
    cert = certify_trivial(ActionSpec("complex", [("r", quarter_rotation())]), 0)
    assert cert.status == "Obstructed"
    assert cert.stage == "FixedPointGate"
    assert cert.witness["vertex"] == 0


def test_tangent_gate_rotation():
    cert = certify_trivial(ActionSpec("complex", [("r", quarter_rotation())]), 4)
    assert cert.status == "Obstructed"
    assert cert.stage == "TangentGate"
    assert cert.witness["matrix"] == ((F(0), F(-1)), (F(1), F(0)))


def test_propagation_obstruction_names_frontier_vertex():
    h = interior_move_map()
    cert = certify_trivial(ActionSpec("complex", [("h", h)]), 3)
    assert cert.status == "Obstructed"
    assert cert.stage == "Propagation"
    assert cert.verified_stars  # identity held near the start vertex
    w = cert.witness
    assert h.eval(w["point"]) == w["image"] != w["point"]


def test_certify_errors():
    a = ActionSpec("complex", [("r", quarter_rotation())])
    with pytest.raises(VertexNotInComplex):
        certify_trivial(a, 99)
    pts = [(0, 0), (1, 0), (5, 0), (6, 0)]
    disc = Complex(pts, [(0, 1), (2, 3)], require_connected=False)
    f = PLMap(disc, disc, list(pts))
    with pytest.raises(DisconnectedComplex):
        certify_trivial(ActionSpec("complex", [("f", f)]), 0)


def test_verify_relators():
    r = quarter_rotation()
    a = ActionSpec("complex", [("a", r)],
                   presentation=Presentation(["a"], [(1, 1, 1, 1)]))
    assert verify_relators(a) == "pass"
    bad = ActionSpec("complex", [("a", r)],
                     presentation=Presentation(["a"], [(1, 1)]))
    res = verify_relators(bad)
    assert res != "pass"
    assert res["relator"] == (1, 1)


def test_verify_relators_interval():
    a = ActionSpec("interval", [("a", f1_map())],
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
        cert = certify_trivial(ActionSpec("complex", sub), 2)
        assert cert.status == "Trivial"


def test_conjugation_covariance():
    # conjugating by the rotation maps the witness star around the square
    r = quarter_rotation()
    h = compose2d(r, compose2d(identity_map(r.base), inverse2d(r)))
    cert_orig = certify_trivial(ActionSpec("complex", [("g", r)]), 4)
    conj = compose2d(r, compose2d(r, inverse2d(r)))
    cert_conj = certify_trivial(ActionSpec("complex", [("g", conj)]), 4)
    assert cert_orig.status == cert_conj.status == "Obstructed"
    assert cert_orig.stage == cert_conj.stage


def test_analyze_complex_action():
    rep = analyze_action(ActionSpec("complex", [("r", quarter_rotation())]),
                         kmax=4)
    assert rep["r"]["fuller_k"] == 1
    assert rep["r"]["derivation_depth"] == 1
    assert rep["r"]["fix_cells_by_dim"][0] == 1


def test_analyze_circle_action():
    from plstab.circle import CircleLift
    rep = analyze_action(ActionSpec("circle",
                                    [("r13", CircleLift.rotation(F(1, 3)))]))
    assert rep["r13"]["rational"] == (1, 3)
    total = sum(hi - lo for lo, hi in rep["r13"]["fixed_set_power_q"])
    assert total == 1  # the cube of the rotation fixes the whole circle


def test_mixed_kind_rejected():
    from plstab.errors import SupportMismatch
    with pytest.raises(SupportMismatch):
        ActionSpec("interval", [("a", quarter_rotation())])


def circle_map():
    return CircleLift([(0, F(1, 4)), (F(1, 2), F(1, 3)), (1, F(5, 4))])


def test_verify_relators_circle():
    a = CircleLift.rotation(F(1, 3))
    comm = ActionSpec("circle", [("a", a), ("c", CircleLift.rotation(F(1, 5)))],
                      presentation=Presentation(["a", "c"], [(1, 2, -1, -2)]))
    assert verify_relators(comm) == "pass"
    bad = ActionSpec("circle", [("a", a)],
                     presentation=Presentation(["a"], [(1, 1)]))
    res = verify_relators(bad)
    assert res["relator"] == (1, 1)
    x = res["sample_point"]
    assert (a(a(x)) - x) % 1 != 0  # moved on the circle, not only on the line


@pytest.mark.parametrize("kind, gen", [
    ("interval", f1_map), ("circle", circle_map), ("complex", quarter_rotation)])
def test_verify_relators_empty_word(kind, gen):
    g = gen()
    # a a^-1 and a^-1 a reduce to the empty word; a alone moves a point
    a = ActionSpec(kind, [("a", g)],
                   presentation=Presentation(["a"], [(1, -1), (-1, 1), ()]))
    assert verify_relators(a) == "pass"
    bad = ActionSpec(kind, [("a", g)], presentation=Presentation(["a"], [(1,)]))
    x = verify_relators(bad)["sample_point"]
    image = g.eval(x) if kind == "complex" else g(x)
    assert image != x


@pytest.mark.parametrize("kind", ["interval", "circle", "complex"])
def test_verify_relators_without_generators(kind):
    a = ActionSpec(kind, [], presentation=Presentation([], [()]))
    assert verify_relators(a) == "pass"


@pytest.mark.parametrize("gen", [f1_map, circle_map, quarter_rotation])
def test_map_protocol(gen):
    g = gen()
    one = g.identity_like()
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
action = st.ActionSpec("complex", [("h", interior_move_map())])
for name, obj, attr, fake in [
        ("witness", PLMap, "eval", lambda self, x: tuple(x)),
        ("coverage", st, "adjacency", lambda simplices: {v: set() for v in range(7)}),
        ("identity", st, "_identity_on_star", lambda f, star: None)]:
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
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, here]))
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
