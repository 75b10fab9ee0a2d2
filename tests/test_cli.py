import io
import json

import pytest

from plstab.cli import main
from plstab.complexes import parse_complex
from plstab.interval import parse_plmap1d
from plstab.plmap import parse_plmap

SQUARE = """\
v 0 0 0
v 1 1 0
v 2 1 1
v 3 0 1
v 4 1/2 1/2
s 0 1 4
s 0 3 4
s 1 2 4
s 2 3 4
"""

ROT = """\
base square.cx
""" + SQUARE + """\
img 0 1 0
img 1 1 1
img 2 0 1
img 3 0 0
img 4 1/2 1/2
"""

TETRA = """\
v 0 0 0 0
v 1 1 0 0
v 2 0 1 0
v 3 0 0 1
s 0 1 2
s 0 1 3
s 0 2 3
s 1 2 3
"""

R13 = "circle\n0 1/3\n2/3 1\n1 4/3\n"

F1 = "interval 0 1\n0 0\n1/4 1/2\n1 1\n"


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "square.cx").write_text(SQUARE)
    (tmp_path / "rot.pm").write_text(ROT)
    (tmp_path / "tetra.cx").write_text(TETRA)
    (tmp_path / "r13.map").write_text(R13)
    (tmp_path / "f1.map").write_text(F1)
    act = tmp_path / "action"
    act.mkdir()
    (act / "base.cx").write_text(SQUARE)
    (act / "r.pm").write_text(ROT.replace("base square.cx", "base base.cx"))
    return tmp_path


def test_euler(workdir):
    code, out = run(["euler", "--complex", str(workdir / "tetra.cx")])
    assert code == 0
    assert out == "2\n"


def test_rotno_rational(workdir):
    code, out = run(["rotno", "--map", str(workdir / "r13.map"), "--n", "9"])
    assert code == 0
    assert out == "[1/3, 1/3]\n"


def test_eval_2d(workdir):
    code, out = run(["eval", "--map", str(workdir / "rot.pm"),
                     "--point", "1/4", "1/4"])
    assert code == 0
    assert out == "3/4 1/4\n"


def test_eval_1d(workdir):
    code, out = run(["eval", "--map", str(workdir / "f1.map"),
                     "--point", "1/8"])
    assert code == 0
    assert out == "1/4\n"


def test_compose_roundtrips(workdir):
    code, out = run(["compose", "--map", str(workdir / "rot.pm"),
                     "--map", str(workdir / "rot.pm")])
    assert code == 0
    base = parse_complex(SQUARE)
    m = parse_plmap(out, base)
    assert m.eval((0, 0)) == (1, 1)


def test_invert_identity_composition(workdir):
    code, out = run(["invert", "--map", str(workdir / "f1.map")])
    assert code == 0
    inv = parse_plmap1d(out)
    from plstab.interval import compose1d, parse_plmap1d as pp
    assert compose1d(inv, pp(F1)).is_identity()


def test_determinism(workdir):
    for argv in (["euler", "--complex", str(workdir / "tetra.cx")],
                 ["tangent", "--map", str(workdir / "rot.pm"), "--vertex", "4"],
                 ["analyze", "--action", str(workdir / "action"), "--kmax", "2"],
                 ["fixset", "--map", str(workdir / "rot.pm")]):
        _, out1 = run(argv)
        _, out2 = run(argv)
        assert out1 == out2


def test_certify_exit_codes(workdir):
    code, out = run(["certify", "--action", str(workdir / "action"),
                     "--vertex", "4", "--json"])
    assert code == 2
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["report"]["status"] == "Obstructed"
    assert doc["report"]["stage"] == "TangentGate"


def test_certify_hypothesis_failed(workdir):
    pres = workdir / "free.txt"
    pres.write_text("gens r\n")
    code, _ = run(["certify", "--action", str(workdir / "action"),
                   "--vertex", "4", "--presentation", str(pres)])
    assert code == 3


def test_usage_errors():
    code, _ = run(["certify", "--vertex", "1"])
    assert code == 64
    code, _ = run(["rotno", "--map", "x.map", "--n", "0"])
    assert code == 64


def test_data_errors(workdir):
    code, _ = run(["euler", "--complex", str(workdir / "nope.cx")])
    assert code == 65
    bad = workdir / "bad.cx"
    bad.write_text("v 0 0 0\nzz\n")
    code, _ = run(["euler", "--complex", str(bad)])
    assert code == 65


def test_tangent_germ_dump(workdir):
    code, out = run(["tangent", "--map", str(workdir / "rot.pm"),
                     "--vertex", "4"])
    assert code == 0
    assert "ray 1 0" in out or "ray -1 -1" in out
    assert "cone 0 0 -1 1 0" in out


def test_abelianize(workdir):
    pres = workdir / "p.txt"
    pres.write_text("gens a b\nrel a b a^-1 b^-1\nrel a^2\n")
    code, out = run(["abelianize", "--presentation", str(pres)])
    assert code == 0
    assert out == "2 0\n"


def test_overlay_output_parses(workdir):
    code, out = run(["overlay", "--complex", str(workdir / "square.cx"),
                     "--complex", str(workdir / "square.cx")])
    assert code == 0
    body = "\n".join(l for l in out.splitlines() if not l.startswith("#"))
    c = parse_complex(body)
    assert len(c.simplices) == 4


def test_fixset_sidecar(workdir):
    side = workdir / "prov.txt"
    code, out = run(["fixset", "--map", str(workdir / "rot.pm"),
                     "--sidecar", str(side)])
    assert code == 0
    assert out.splitlines()[0] == "v 0 1/2 1/2"
    assert side.exists()
    assert "from" in side.read_text()


def test_json_euler(workdir):
    code, out = run(["euler", "--complex", str(workdir / "tetra.cx"),
                     "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc == {"schema_version": 1, "command": "euler", "report": 2}


def test_analyze_action_json(workdir):
    code, out = run(["analyze", "--action", str(workdir / "action"),
                     "--kmax", "2", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["r"]["fuller_k"] == 1


def test_bare_img_line_is_a_data_error(workdir):
    lines = ROT.splitlines()
    for bad in ("img", "img 4", "img x 1/2 1/2"):
        (workdir / "bad.pm").write_text("\n".join(lines[:-1] + [bad, lines[-1]]) + "\n")
        code, out = run(["eval", "--map", str(workdir / "bad.pm"), "--point", "0", "0"])
        assert (code, out) == (65, "")
    (workdir / "action" / "r.pm").write_text(
        ROT.replace("base square.cx", "base base.cx").replace("img 2 0 1", "img"))
    code, out = run(["certify", "--action", str(workdir / "action"), "--vertex", "4"])
    assert (code, out) == (65, "")


def test_base_header_after_comments(workdir):
    (workdir / "c.pm").write_text("# a quarter turn\n\n" + ROT)
    code, out = run(["eval", "--map", str(workdir / "c.pm"), "--point", "1/4", "1/4"])
    assert (code, out) == (0, "3/4 1/4\n")
    code, out = run(["compose", "--map", str(workdir / "c.pm"),
                     "--map", str(workdir / "rot.pm")])
    assert code == 0
    assert out.splitlines()[0] == "base square.cx"
    assert parse_plmap(out, parse_complex(SQUARE)).eval((0, 0)) == (1, 1)
    code, out = run(["invert", "--map", str(workdir / "c.pm")])
    assert code == 0 and out.splitlines()[0] == "base square.cx"
    (workdir / "nobase.pm").write_text("# no file name\nbase\n" + SQUARE)
    code, out = run(["eval", "--map", str(workdir / "nobase.pm"), "--point", "0", "0"])
    assert (code, out) == (65, "")
