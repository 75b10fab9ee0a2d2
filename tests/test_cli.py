import io
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from plstab.cli import main
from plstab.complexes import parse_complex
from plstab.geometry import fmt
from plstab.interval import PLMap1D, format_plmap1d, parse_plmap1d
from plstab.plmap import parse_plmap

from strategies import DYADIC
from support import TETRAHEDRON, surface_text

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

# the boundary of a tetrahedron in 3-space, which no command reads
TETRA_IN_3_SPACE = """\
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

R5_11 = "circle\n0 5/11\n1 16/11\n"

C1 = "circle\n0 1/3\n1/4 1/2\n3/4 5/6\n1 4/3\n"

F1 = "interval 0 1\n0 0\n1/4 1/2\n1 1\n"


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "square.cx").write_text(SQUARE)
    (tmp_path / "rot.pm").write_text(ROT)
    (tmp_path / "tetra.surface").write_text(surface_text(TETRAHEDRON))
    (tmp_path / "r13.map").write_text(R13)
    (tmp_path / "f1.map").write_text(F1)
    act = tmp_path / "action"
    act.mkdir()
    (act / "base.cx").write_text(SQUARE)
    (act / "r.pm").write_text(ROT.replace("base square.cx", "base base.cx"))
    return tmp_path


def test_euler(workdir):
    code, out = run(["euler", "--complex", str(workdir / "tetra.surface")])
    assert code == 0
    assert out == "2\n"


def test_rotno_rational(workdir):
    code, out = run(["rotno", "--map", str(workdir / "r13.map"), "--n", "9"])
    assert code == 0
    assert out == "[1/3, 1/3]\n"


def test_rotno_past_qmax_prints_the_enclosure_and_certifies_none(tmp_path):
    """Rotation by 5/11 with qmax below 11: the text is the --n enclosure,
    and the JSON outcome is certified-none, which the Stern-Brocot bracket
    proves (at qmax 2 it is 0/1 < 5/11 < 1/2)."""
    path = tmp_path / "r.map"
    path.write_text(R5_11)
    assert run(["rotno", "--map", str(path), "--qmax", "8"]) == (0, "[309/704, 331/704]\n")
    for qmax in ("2", "8"):
        code, out = run(["rotno", "--map", str(path), "--qmax", qmax, "--json"])
        assert code == 0
        assert json.loads(out)["report"] == {"enclosure": ["309/704", "331/704"],
                                             "outcome": "certified-none", "rational": None}


def test_compose_and_invert_circle_maps(tmp_path):
    (tmp_path / "c1.map").write_text(C1)
    (tmp_path / "r13.map").write_text(R13)
    c1, r13 = str(tmp_path / "c1.map"), str(tmp_path / "r13.map")
    assert run(["compose", "--map", c1, "--map", r13]) == (
        0, "circle\n0 5/9\n5/12 5/6\n2/3 4/3\n1 14/9\n")
    code, out = run(["invert", "--map", c1])
    assert (code, out) == (0, "circle\n0 -1/6\n1/3 0\n5/6 3/4\n1 5/6\n")
    (tmp_path / "inv.map").write_text(out)
    assert run(["compose", "--map", c1, "--map", str(tmp_path / "inv.map")]) == (
        0, "circle\n0 0\n1 1\n")


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
    for argv in (["euler", "--complex", str(workdir / "tetra.surface")],
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


def test_usage_errors(workdir, capsys):
    code, _ = run(["certify", "--vertex", "1"])
    assert code == 64
    code, _ = run(["rotno", "--map", "x.map", "--n", "0"])
    assert code == 64
    # commands given the wrong kind of input
    f1, r13, square = (str(workdir / name) for name in ("f1.map", "r13.map", "square.cx"))
    for argv, message in (
            (["fixset", "--map", f1], "fixset needs a complex-based map"),
            (["rotno", "--map", f1], "rotno needs a circle map"),
            (["compose", "--map", f1, "--map", r13], "cannot compose maps of different kinds"),
            (["overlay", "--complex", square], "overlay needs exactly two --complex files")):
        assert run(argv) == (64, "")
        assert message in capsys.readouterr().err


def test_parser_is_reused_across_calls(workdir):
    """One parser serves every call: usage errors and valid commands give
    the same results however often and in whatever order they run, and
    repeated options do not carry over from one call to the next."""
    calls = [
        (["certify", "--vertex", "1"], 64),
        (["euler", "--complex", str(workdir / "square.cx")], 0),
        (["rotno", "--map", "x.map", "--n", "0"], 64),
        (["compose", "--map", str(workdir / "rot.pm"), "--map", str(workdir / "rot.pm")], 0),
        (["nosuchcommand"], 64),
        (["compose", "--map", str(workdir / "rot.pm")], 64),
    ]
    first = [run(argv) for argv, _ in calls]
    assert [code for code, _ in first] == [code for _, code in calls]
    for _ in range(2):
        assert [run(argv) for argv, _ in calls] == first


def test_pinched_complex_is_a_data_error(workdir, capsys):
    # connected through vertex 2, with vertices 0 and 4 both at (0, 0)
    (workdir / "pinched.cx").write_text(
        "v 0 0 0\nv 1 1 0\nv 2 0 1\nv 3 -1 0\nv 4 0 0\ns 0 1 2\ns 2 3 4\n")
    code, out = run(["euler", "--complex", str(workdir / "pinched.cx")])
    assert (code, out) == (65, "")
    assert "vertices 0 and 4 lie at one point" in capsys.readouterr().err


def test_data_errors(workdir, capsys):
    code, _ = run(["euler", "--complex", str(workdir / "nope.cx")])
    assert code == 65
    bad = workdir / "bad.cx"
    bad.write_text("v 0 0 0\nzz\n")
    code, _ = run(["euler", "--complex", str(bad)])
    assert code == 65
    # an action directory that is missing, or holds no generator file
    empty = workdir / "empty"
    empty.mkdir()
    (empty / "base.cx").write_text(SQUARE)
    capsys.readouterr()
    for directory, message in ((workdir / "nope", "action directory"),
                               (empty, "no generator files")):
        assert run(["certify", "--action", str(directory), "--vertex", "0"]) == (65, "")
        assert message in capsys.readouterr().err


def test_a_point_outside_the_map_prints_its_coordinates_as_rationals(workdir, capsys):
    """`eval` at a point off the base prints each coordinate as `fmt` does,
    not the Python repr of a tuple of Fractions."""
    code, out = run(["eval", "--map", str(workdir / "rot.pm"), "--point", "3", "1/2"])
    assert (code, out) == (65, "")
    assert capsys.readouterr().err == "error: (3, 1/2) is not in the realization\n"


def test_a_disconnected_refinement_does_not_tile_the_base(workdir, capsys):
    """A refinement block of two triangles apart, over the connected square:
    a valid complex, which the tiling test refuses."""
    (workdir / "apart.pm").write_text(
        "base square.cx\nv 0 0 0\nv 1 1 0\nv 2 1/2 1/4\nv 3 0 1\nv 4 1 1\n"
        "v 5 1/2 3/4\ns 0 1 2\ns 3 4 5\nimg 0 0 0\nimg 1 1 0\nimg 2 1/2 1/4\n"
        "img 3 0 1\nimg 4 1 1\nimg 5 1/2 3/4\n")
    assert run(["fixset", "--map", str(workdir / "apart.pm")]) == (65, "")
    assert "refinement does not tile the base" in capsys.readouterr().err


TWO_SQUARES = """\
v 0 0 0
v 1 1 0
v 2 1 1
v 3 0 1
v 4 2 0
v 5 3 0
v 6 3 1
v 7 2 1
s 0 1 2
s 0 2 3
s 4 5 6
s 4 6 7
"""

# the unit squares [0,1]^2 and [2,3]^2 swapped by translation
SWAP_IMAGES = "img 0 2 0\nimg 1 3 0\nimg 2 3 1\nimg 3 2 1\nimg 4 0 0\nimg 5 1 0\nimg 6 1 1\nimg 7 0 1\n"


def test_a_disconnected_base_is_refused_by_certify_alone(tmp_path, capsys):
    """Two squares apart are a complex like any other: every command reads
    them, and only `certify`, which spreads triviality from one vertex over
    the stars of a connected base, refuses them."""
    act = tmp_path / "action"
    act.mkdir()
    for d, name in ((tmp_path, "two.cx"), (act, "base.cx")):
        (d / name).write_text(TWO_SQUARES)
        (d / "swap.pm").write_text("base %s\n" % name + TWO_SQUARES + SWAP_IMAGES)
    cx, swap = str(tmp_path / "two.cx"), str(tmp_path / "swap.pm")
    assert run(["eval", "--map", swap, "--point", "1/2", "1/2"]) == (0, "5/2 1/2\n")
    code, twice = run(["compose", "--map", swap, "--map", swap])
    assert code == 0
    identity = parse_plmap(twice, parse_complex(TWO_SQUARES))
    assert identity.images == identity.refinement.points
    (tmp_path / "twice.pm").write_text(twice)
    code, inverse = run(["invert", "--map", swap])
    assert code == 0
    m = parse_plmap(inverse, parse_complex(TWO_SQUARES))
    assert m.eval(("1/2", "1/2")) == (F(5, 2), F(1, 2))
    code, out = run(["fixset", "--map", swap])
    assert code == 0 and out.startswith("# empty fixed set\n")
    assert run(["tangent", "--map", str(tmp_path / "twice.pm"), "--vertex", "0"]) == (
        0, "ray 1 0\nray 1 1\nray 0 1\ncone 0 1 0 0 1\ncone 1 1 0 0 1\n")
    code, out = run(["analyze", "--action", str(act), "--json"])
    assert code == 0
    assert json.loads(out)["report"]["swap"] == {
        "fix_cells_by_dim": {"0": 0, "1": 0, "2": 0}, "fix_empty": True,
        "fix_everything": False, "fuller_euler": 2, "fuller_k": 2}
    code, out = run(["overlay", "--complex", cx, "--complex", cx])
    assert code == 0 and parse_complex(out.split("# cell")[0]).simplices == (
        (0, 1, 3), (0, 2, 3), (4, 5, 7), (4, 6, 7))
    assert run(["euler", "--complex", cx]) == (0, "2\n")
    capsys.readouterr()
    assert run(["certify", "--action", str(act), "--vertex", "0"]) == (65, "")
    assert capsys.readouterr().err == "error: base complex is not connected\n"


def test_a_complex_in_3_space_is_a_data_error(workdir, capsys):
    """Three coordinates are refused by every command that reads a `.cx`,
    as the base of a map too, with nothing printed."""
    (workdir / "tetra.cx").write_text(TETRA_IN_3_SPACE)
    (workdir / "tetra.pm").write_text("base tetra.cx\n" + TETRA_IN_3_SPACE + "".join(
        line.replace("v", "img", 1) + "\n" for line in TETRA_IN_3_SPACE.splitlines()
        if line.startswith("v")))
    cx = str(workdir / "tetra.cx")
    for argv in (["euler", "--complex", cx], ["overlay", "--complex", cx, "--complex", cx],
                 ["fixset", "--map", str(workdir / "tetra.pm")]):
        assert run(argv) == (65, "")
        assert "ambient dimension must be 1 or 2" in capsys.readouterr().err


def test_triangles_on_a_line_are_a_data_error(workdir, capsys):
    # one coordinate per vertex: a 2-complex needs a plane to lie in
    (workdir / "line.cx").write_text("v 0 0\nv 1 1\nv 2 2\ns 0 1 2\n")
    code, out = run(["euler", "--complex", str(workdir / "line.cx")])
    assert (code, out) == (65, "")
    assert "ambient dimension" in capsys.readouterr().err


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


def test_huge_relator_exponent_exits_65_promptly(workdir):
    pres = workdir / "p.txt"
    pres.write_text("gens a\nrel a^1000000000\n")
    start = time.perf_counter()
    code, out = run(["abelianize", "--presentation", str(pres)])
    assert (code, out) == (65, "")
    assert time.perf_counter() - start < 1


HUGE = "1e999999999"


@pytest.mark.parametrize("name, text, argv", [
    ("c.cx", SQUARE.replace("v 4 1/2 1/2", f"v 4 {HUGE} 1/2"), ["euler", "--complex", "c.cx"]),
    ("rot.pm", ROT.replace("img 4 1/2 1/2", f"img 4 1/2 -{HUGE}"),
     ["fixset", "--map", "rot.pm"]),
    ("f.map", F1.replace("1/4 1/2", "1/4 1e-999999999"), ["eval", "--map", "f.map", "--point", "0"]),
    ("rot.pm", ROT, ["eval", "--map", "rot.pm", "--point", HUGE, "0"]),
], ids=["cx", "img", "interval-map", "point"])
def test_huge_decimal_exponent_exits_65_promptly(tmp_path, name, text, argv):
    """A token whose exponent would make `Fraction` build a billion-digit
    power of ten is refused first.  The command runs in a subprocess with
    a timeout, so a hang fails this test instead of stalling the suite."""
    (tmp_path / "square.cx").write_text(SQUARE)
    (tmp_path / name).write_text(text)
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-m", "plstab.cli", *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (65, "")
    assert "bad rational literal" in done.stderr


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_format_examples_run(tmp_path):
    """Each example file in the README's file-format section is accepted."""
    text = README.read_text()
    section = text[text.index("### File formats"):text.index("### Example")]
    for block in re.findall(r"```\n(.*?)```", section, re.S):
        (tmp_path / block.split()[1]).write_text(block)
    d = str(tmp_path) + "/"
    assert run(["euler", "--complex", d + "square.cx"]) == (0, "1\n")
    assert run(["eval", "--map", d + "push.map", "--point", "1/8"]) == (0, "1/4\n")
    assert run(["eval", "--map", d + "rotate.map", "--point", "1/3"]) == (0, "2/3\n")
    assert run(["eval", "--map", d + "twist.pm", "--point", "1/2", "1/2"]) == (0, "1/3 1/2\n")
    assert run(["eval", "--map", d + "flip.pm", "--point", "1/3", "0"]) == (0, "0 1/3\n")
    assert run(["fixset", "--map", d + "flip.pm"]) == (0, (
        "v 0 0 0\nv 1 1/2 1/2\ns 0\ns 1\n# cell 0 1 from 1\n# cell 0 3 from 0\n"
        "# cell 1 2 from 2\n# cell 2 3 from 2\n"))
    assert run(["abelianize", "--presentation", d + "presentation.txt"]) == (0, "2 0\n")


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


def test_fixset_sidecar_that_cannot_be_written_prints_nothing(workdir, capsys):
    code, out = run(["fixset", "--map", str(workdir / "rot.pm"),
                     "--sidecar", str(workdir / "missing" / "prov.txt")])
    assert (code, out) == (65, "")
    assert "No such file or directory" in capsys.readouterr().err


def test_json_euler(workdir):
    code, out = run(["euler", "--complex", str(workdir / "tetra.surface"),
                     "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc == {"schema_version": 1, "command": "euler", "report": 2}


def test_json_only_where_the_output_has_a_json_form(workdir, capsys):
    """The commands that print a file format take no --json: argparse
    rejects it as a usage error, while euler still wraps its report."""
    for argv in (["overlay", "--complex", "square.cx", "--complex", "square.cx"],
                 ["compose", "--map", "rot.pm", "--map", "rot.pm"],
                 ["invert", "--map", "rot.pm"],
                 ["fixset", "--map", "rot.pm"],
                 ["tangent", "--map", "rot.pm", "--vertex", "4"]):
        argv = [str(workdir / a) if a.endswith((".cx", ".pm")) else a for a in argv]
        assert run(argv)[0] == 0
        assert run(argv + ["--json"]) == (64, "")
        assert "--json" in capsys.readouterr().err
    code, out = run(["euler", "--complex", str(workdir / "tetra.surface"), "--json"])
    assert code == 0
    assert json.loads(out) == {"schema_version": 1, "command": "euler", "report": 2}


def test_analyze_action_json(workdir):
    code, out = run(["analyze", "--action", str(workdir / "action"),
                     "--kmax", "2", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["r"]["fuller_k"] == 1


CYCLE = "v 0 0 0\nv 1 1 0\nv 2 0 1\ns 0 1\ns 1 2\ns 0 2\n"


def recorded_json(command, report):
    """The `--json` stdout of a command whose report is ``report``."""
    return json.dumps({"command": command, "report": report, "schema_version": 1},
                      indent=2, sort_keys=True) + "\n"


def test_certify_on_a_cycle_prints_the_recorded_tangent_witness(tmp_path):
    """The 1-complex tangent gate: the reflection of the triangle's boundary
    cycle that fixes vertex 0 swaps the two edge directions there."""
    (tmp_path / "base.cx").write_text(CYCLE)
    (tmp_path / "r.pm").write_text("base base.cx\n" + CYCLE
                                   + "img 0 0 0\nimg 1 0 1\nimg 2 1 0\n")
    argv = ["certify", "--action", str(tmp_path), "--vertex", "0"]
    assumption = "H1(G;R)=0 assumed by caller (no presentation)"
    assert run(argv) == (2, "status: Obstructed\nstage: TangentGate\nverified_stars: \n"
                            'witness: {"generator": "r", "image_ray": [0, 1], "ray": [1, 0], '
                            '"vertex": 0}\nassumption: ' + assumption + "\n")
    assert run(argv + ["--json"]) == (2, recorded_json("certify", {
        "assumptions": [assumption], "stage": "TangentGate", "status": "Obstructed",
        "verified_stars": [],
        "witness": {"generator": "r", "image_ray": [0, 1], "ray": [1, 0], "vertex": 0}}))


# an arc in R^1 on the base vertices 0, 1 and 3, its refinement cutting both
# base edges; the map fixes 0, 1 and 3 and moves the vertices between 1 and
# 3 towards 2, where it fixes one point inside a refinement edge
ARC = "v 0 0\nv 1 1\nv 2 3\ns 0 1\ns 1 2\n"
SLIDE = ("base arc.cx\nv 0 0\nv 1 1/3\nv 2 1\nv 3 3/2\nv 4 5/2\nv 5 3\n"
         "s 0 1\ns 1 2\ns 2 3\ns 3 4\ns 4 5\n"
         "img 0 0\nimg 1 1/2\nimg 2 1\nimg 3 7/4\nimg 4 9/4\nimg 5 3\n")
# the reflection of the triangle's boundary cycle in x = y
FLIP = "base triangle.cx\n" + CYCLE + "img 0 0 0\nimg 1 0 1\nimg 2 1 0\n"
# each command on the two maps above -> the exit code and stdout recorded
# when the 1-complex paths decided on the points' Fractions
ONE_COMPLEX_OUTPUTS = {
    ("compose", "slide", "slide"): (0, (
        "base arc.cx\nv 0 0\nv 1 2/9\nv 2 1/3\nv 3 1\nv 4 4/3\nv 5 3/2\nv 6 5/2\nv 7 8/3\n"
        "v 8 3\ns 0 1\ns 1 2\ns 2 3\ns 3 4\ns 4 5\ns 5 6\ns 6 7\ns 7 8\nimg 0 0\n"
        "img 1 1/2\nimg 2 5/8\nimg 3 1\nimg 4 7/4\nimg 5 15/8\nimg 6 17/8\nimg 7 9/4\n"
        "img 8 3\n")),
    ("invert", "slide"): (0, (
        "base arc.cx\nv 0 0\nv 1 1/2\nv 2 1\nv 3 7/4\nv 4 9/4\nv 5 3\ns 0 1\ns 1 2\ns 2 3\n"
        "s 3 4\ns 4 5\nimg 0 0\nimg 1 1/3\nimg 2 1\nimg 3 3/2\nimg 4 5/2\nimg 5 3\n")),
    ("fixset", "slide"): (0, (
        "v 0 0\nv 1 1\nv 2 2\nv 3 3\ns 0\ns 1\ns 2\ns 3\n# cell 0 1 from 0\n"
        "# cell 1 2 from 1\n# cell 2 3 from 2\n# cell 3 4 from 3\n# cell 4 5 from 3\n"
        "# cell 5 6 from 4\n")),
    ("eval", "slide", "2"): (0, "2\n"),
    ("eval", "slide", "7/5"): (0, "8/5\n"),
    ("eval", "slide", "1/6"): (0, "1/4\n"),
    ("eval", "slide", "0"): (0, "0\n"),
    ("compose", "flip", "flip"): (0, (
        "base triangle.cx\nv 0 0 0\nv 1 0 1\nv 2 1 0\ns 0 1\ns 0 2\ns 1 2\nimg 0 0 0\n"
        "img 1 0 1\nimg 2 1 0\n")),
    ("invert", "flip"): (0, (
        "base triangle.cx\nv 0 0 0\nv 1 0 1\nv 2 1 0\ns 0 1\ns 0 2\ns 1 2\nimg 0 0 0\n"
        "img 1 1 0\nimg 2 0 1\n")),
    ("fixset", "flip"): (0, (
        "v 0 0 0\nv 1 1/2 1/2\ns 0\ns 1\n# cell 0 1 from 1\n# cell 0 3 from 0\n"
        "# cell 1 2 from 2\n# cell 2 3 from 2\n")),
    ("eval", "flip", "1/2", "1/2"): (0, "1/2 1/2\n"),
    ("eval", "flip", "1/3", "2/3"): (0, "2/3 1/3\n"),
    ("eval", "flip", "0", "1/4"): (0, "1/4 0\n"),
    ("eval", "flip", "1/4", "1/4"): (65, ""),
}


def test_one_complex_maps_print_the_recorded_bytes(tmp_path):
    """`compose`, `invert`, `fixset` and `eval` on an arc in R^1 and on a
    cycle in R^2 print what they printed when segments were located,
    overlapped and cut on Fractions."""
    for name, text in (("arc.cx", ARC), ("slide.pm", SLIDE), ("triangle.cx", CYCLE),
                       ("flip.pm", FLIP)):
        (tmp_path / name).write_text(text)
    for (command, *maps), want in ONE_COMPLEX_OUTPUTS.items():
        if command == "eval":
            argv = ["eval", "--map", str(tmp_path / f"{maps[0]}.pm"), "--point", *maps[1:]]
        else:
            argv = [command] + [a for m in maps for a in ("--map", str(tmp_path / f"{m}.pm"))]
        assert run(argv) == want, argv
    assert run(["eval", "--map", str(tmp_path / "slide.pm"), "--point", "7/5", "--json"]) == (
        0, recorded_json("eval", ["8/5"]))


def test_analyze_interval_action_prints_the_recorded_report(tmp_path):
    (tmp_path / "f.map").write_text(F1)
    (tmp_path / "g.map").write_text("interval 0 1\n0 0\n1/4 1/4\n1/2 3/4\n1 1\n")
    argv = ["analyze", "--action", str(tmp_path)]
    assert run(argv) == (0, 'generator f\n  fixed_set: [["0", "0"], ["1", "1"]]\n'
                            "  is_identity: false\n"
                            'generator g\n  fixed_set: [["0", "1/4"], ["1", "1"]]\n'
                            "  is_identity: false\n")
    assert run(argv + ["--json"]) == (0, recorded_json("analyze", {
        "f": {"fixed_set": [["0", "0"], ["1", "1"]], "is_identity": False},
        "g": {"fixed_set": [["0", "1/4"], ["1", "1"]], "is_identity": False}}))


T_SQUARE = "v 0 0 0\nv 1 2 0\nv 2 2 2\nv 3 0 2\n"
# vertex 4 splits one of the square's two cells at the midpoint of the
# diagonal, an edge of the other cell only: a T-junction
T_JUNCTION = T_SQUARE + "v 4 1 1\ns 0 1 4\ns 1 2 4\ns 0 2 3\n"
T_REFUSED = "vertex 4 lies in simplex (0, 2, 3) but is not one of its vertices"


def t_junction_map(tmp_path, hanging_image, base=T_SQUARE + "s 0 1 2\ns 0 2 3\n"):
    """A map of the square on the T-junction refinement, fixing the
    corners and sending vertex 4, the T-junction, to ``hanging_image``."""
    (tmp_path / "sq.cx").write_text(base)
    (tmp_path / "t.pm").write_text(
        "base sq.cx\n" + T_JUNCTION
        + "".join("img %d %s\n" % (k, p) for k, p in enumerate(
            ["0 0", "2 0", "2 2", "0 2", hanging_image])))
    return str(tmp_path / "t.pm")


def test_fixset_of_the_identity_on_a_t_junction_refinement(tmp_path, capsys):
    """The refinement is no simplicial complex, so even the identity on it
    is malformed input."""
    code, out = run(["fixset", "--map", t_junction_map(tmp_path, "1 1")])
    assert (code, out) == (65, "")
    assert T_REFUSED in capsys.readouterr().err


def test_a_map_sliding_the_t_junction_along_the_diagonal_is_a_data_error(tmp_path, capsys):
    """The diagonal's cell would fix it while the split cells slide it, so
    the map would not be continuous; the refinement is refused first."""
    code, out = run(["fixset", "--map", t_junction_map(tmp_path, "1/2 1/2")])
    assert (code, out) == (65, "")
    assert T_REFUSED in capsys.readouterr().err


def test_a_base_with_a_t_junction_is_a_data_error(tmp_path, capsys):
    """With the T-junction square as both base and refinement, the map that
    slides vertex 4 to (1/2, 1/2) tears the square along the diagonal."""
    code, out = run(["fixset", "--map", t_junction_map(tmp_path, "1/2 1/2", T_JUNCTION)])
    assert (code, out) == (65, "")
    assert T_REFUSED in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    (T_JUNCTION, T_REFUSED),
    # a polyline whose end lies inside its first segment
    ("v 0 0 0\nv 1 2 0\nv 2 2 1\nv 3 1 0\ns 0 1\ns 1 2\ns 2 3\n",
     "vertex 3 lies in simplex (0, 1) but is not one of its vertices"),
], ids=["t-junction", "polyline"])
def test_cells_that_meet_in_no_common_face_are_a_data_error(tmp_path, capsys, text, message):
    (tmp_path / "c.cx").write_text(text)
    assert run(["euler", "--complex", str(tmp_path / "c.cx")]) == (65, "")
    assert message in capsys.readouterr().err


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


def test_duplicate_vertex_record_is_a_data_error(workdir, capsys):
    # the second line used to win silently, giving a kite with vertex (5, 5)
    (workdir / "dup.cx").write_text(SQUARE.replace("v 2 1 1\n", "v 2 1 1\nv 2 5 5\n"))
    code, out = run(["euler", "--complex", str(workdir / "dup.cx")])
    assert (code, out) == (65, "")
    assert "duplicate vertex 2" in capsys.readouterr().err
    (workdir / "action" / "base.cx").write_text((workdir / "dup.cx").read_text())
    code, out = run(["certify", "--action", str(workdir / "action"), "--vertex", "4"])
    assert (code, out) == (65, "")


def test_duplicate_img_record_is_a_data_error(workdir, capsys):
    # a valid map either way: the centre goes to (1/2, 1/2) or to (1/3, 1/2)
    (workdir / "dup.pm").write_text(ROT + "img 4 1/3 1/2\n")
    code, out = run(["eval", "--map", str(workdir / "dup.pm"), "--point", "0", "0"])
    assert (code, out) == (65, "")
    assert "duplicate img record for vertex 4" in capsys.readouterr().err
    (workdir / "action" / "r.pm").write_text(
        ROT.replace("base square.cx", "base base.cx") + "img 4 1/3 1/2\n")
    code, out = run(["certify", "--action", str(workdir / "action"), "--vertex", "4"])
    assert (code, out) == (65, "")


def test_a_map_parse_error_names_the_line_of_the_file(workdir, capsys):
    """The header and comment lines count: the bad simplex record is line 6."""
    (workdir / "b.cx").write_text("v 0 0 0\nv 1 1 0\nv 2 0 1\ns 0 1 2\n")
    (workdir / "bad.pm").write_text("base b.cx\n# comment\nv 0 0 0\nv 1 1 0\nv 2 0 1\n"
                                    "s 0 1 2 9 9\nimg 0 0 0\n")
    code, out = run(["fixset", "--map", str(workdir / "bad.pm")])
    assert (code, out) == (65, "")
    assert capsys.readouterr().err == "error: line 6: bad simplex record\n"
    (workdir / "bad.pm").write_text("base b.cx\n\n\nw 1\n")
    code, out = run(["fixset", "--map", str(workdir / "bad.pm")])
    assert (code, out) == (65, "")
    assert capsys.readouterr().err == "error: line 4: unknown record 'w'\n"


def test_an_img_record_error_names_its_line(workdir, capsys):
    """Both `img` record errors name the record's line of the file, as the
    record errors of its complex block do."""
    (workdir / "b.cx").write_text("v 0 0 0\nv 1 1 0\nv 2 0 1\ns 0 1 2\n")
    head = "base b.cx\nv 0 0 0\nv 1 1 0\nv 2 0 1\ns 0 1 2\n# images\nimg 0 0 0\n"
    for tail, message in (("img x 1 0\n", "line 8: bad img record 'img x 1 0'"),
                          ("img 1 1 0\n\nimg 0 0 1\n",
                           "line 10: duplicate img record for vertex 0")):
        (workdir / "bad.pm").write_text(head + tail)
        code, out = run(["fixset", "--map", str(workdir / "bad.pm")])
        assert (code, out) == (65, "")
        assert capsys.readouterr().err == f"error: {message}\n"


def test_eval_takes_one_coordinate_per_ambient_axis(workdir, capsys):
    for path, point in (("rot.pm", ["1/4"]), ("rot.pm", ["1/4", "1/4", "0"]),
                        ("f1.map", ["1/8", "1/8"]), ("r13.map", ["0", "0"])):
        code, out = run(["eval", "--map", str(workdir / path), "--point", *point])
        assert (code, out) == (64, "")
        assert "coordinate" in capsys.readouterr().err


@pytest.mark.parametrize("vertex", ["5", "99", "-1"])
def test_tangent_at_a_vertex_outside_the_base_is_a_data_error(workdir, vertex, capsys):
    code, out = run(["tangent", "--map", str(workdir / "rot.pm"), "--vertex", vertex])
    assert (code, out) == (65, "")
    assert "vertex %s not in base complex" % vertex in capsys.readouterr().err


def test_tangent_and_certify_at_a_pinch_name_it(tmp_path, capsys):
    """A base of two triangles that share only the vertex (0, 0): a valid
    complex, pinched there, so no fan of cones is its star."""
    points = "v 0 0 0\nv 1 1 0\nv 2 1 1\nv 3 -1 0\nv 4 -1 -1\n"
    bowtie = points + "s 0 1 2\ns 0 3 4\n"
    (tmp_path / "base.cx").write_text(bowtie)
    (tmp_path / "e.pm").write_text("base base.cx\n" + bowtie + points.replace("v ", "img "))
    for argv in (["tangent", "--map", str(tmp_path / "e.pm")],
                 ["certify", "--action", str(tmp_path)]):
        assert run(argv + ["--vertex", "0"]) == (65, "")
        assert ("the complex is pinched at (0, 0): star cones do not chain into a fan"
                in capsys.readouterr().err)


@pytest.mark.parametrize("second", [R13, "interval 0 2\n0 0\n1 1/2\n2 2\n"],
                         ids=["circle", "other-interval"])
def test_action_of_mixed_generators_is_a_data_error(tmp_path, second, capsys):
    """Generators of one action are of one kind on one domain."""
    (tmp_path / "a.map").write_text(F1)
    (tmp_path / "b.map").write_text(second)
    for argv in (["analyze"], ["certify", "--vertex", "0"]):
        code, out = run(argv + ["--action", str(tmp_path)])
        assert (code, out) == (65, "")
        assert "generator 'b'" in capsys.readouterr().err


def test_certify_refuses_a_circle_action(tmp_path, capsys):
    (tmp_path / "r.map").write_text(R13)
    code, out = run(["certify", "--action", str(tmp_path), "--vertex", "0"])
    assert (code, out) == (65, "")
    assert "certify_trivial needs a complex or interval action" in capsys.readouterr().err


@st.composite
def unit_interval_breakpoints(draw):
    """Breakpoints of a PL bijection of [0, 1]: increasing with an identity
    prefix or suffix of any length, the identity included, or decreasing."""
    ts = sorted(draw(st.sets(DYADIC, max_size=5)))
    k = draw(st.integers(0, len(ts)))
    top = ts[k - 1] if k else F(0)
    rest = sorted(draw(st.sets(DYADIC, min_size=len(ts) - k, max_size=len(ts) - k)))
    ys = ts[:k] + [top + (1 - top) * s for s in rest]
    pts = [(F(0), F(0))] + list(zip(ts, ys)) + [(F(1), F(1))]
    if draw(st.booleans()):  # an identity suffix in place of the prefix
        pts = [(1 - x, 1 - y) for x, y in reversed(pts)]
    if draw(st.integers(0, 3)) == 3:  # decreasing, one map in four
        pts = [(x, 1 - y) for x, y in pts]
    return pts


@st.composite
def interval_actions(draw):
    """One to three maps of one interval [a, b], and the exponent of each
    generator's relator g^e in presentation.txt (0: no relator), or None
    for no presentation."""
    a = F(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
    b = a + F(draw(st.integers(1, 4)), draw(st.integers(1, 3)))
    maps = [PLMap1D([(a + (b - a) * x, a + (b - a) * y) for x, y in pts])
            for pts in draw(st.lists(unit_interval_breakpoints(), min_size=1, max_size=3))]
    n = len(maps)
    return maps, draw(st.none() | st.lists(st.integers(0, 3), min_size=n, max_size=n))


def write_interval_action(directory, maps, exponents):
    """The action as `.map` files in `directory`/map, and as maps of the
    one-edge complex [a, b] in `directory`/pm, whose refinements are the
    canonical breakpoints; the same presentation.txt in both."""
    intervals, edges = directory / "map", directory / "pm"
    a, b = maps[0].interval
    for d in (intervals, edges):
        d.mkdir()
        if exponents is not None:
            (d / "presentation.txt").write_text(
                "gens %s\n" % " ".join("g%d" % i for i in range(len(maps)))
                + "".join("rel g%d^%d\n" % (i, e) for i, e in enumerate(exponents) if e))
    (edges / "base.cx").write_text("v 0 %s\nv 1 %s\ns 0 1\n" % (fmt(a), fmt(b)))
    for i, f in enumerate(maps):
        (intervals / ("g%d.map" % i)).write_text(format_plmap1d(f))
        bps = f.breakpoints
        (edges / ("g%d.pm" % i)).write_text("\n".join(
            ["base base.cx"] + ["v %d %s" % (j, fmt(x)) for j, (x, _) in enumerate(bps)]
            + ["s %d %d" % (j, j + 1) for j in range(len(bps) - 1)]
            + ["img %d %s" % (j, fmt(y)) for j, (_, y) in enumerate(bps)]) + "\n")
    return intervals, edges


@settings(max_examples=60, deadline=None)
@given(interval_actions())
def test_certify_interval_action_as_its_one_edge_complex_action(action):
    """`certify` on an interval action prints the bytes, and exits with the
    code, of `certify` on the same action written over the one-edge
    complex: vertex 0 is a, vertex 1 is b, and vertex 2 is no vertex."""
    with tempfile.TemporaryDirectory() as tmp:
        dirs = write_interval_action(pathlib.Path(tmp), *action)
        for vertex in ("0", "1", "2"):
            for extra in ([], ["--json"]):
                got = [run(["certify", "--action", str(d), "--vertex", vertex] + extra)
                       for d in dirs]
                assert got[0] == got[1]
                assert (got[0][0] == 65) == (vertex == "2")


def test_presentation_option_replaces_the_directory_file(workdir):
    """`--presentation` is read in place of the action's presentation.txt,
    whichever of the two would fail the H1 gate."""
    free, finite = workdir / "free.txt", workdir / "finite.txt"
    free.write_text("gens r\n")
    finite.write_text("gens r\nrel r^4\n")
    action = workdir / "action"
    certify = ["certify", "--action", str(action), "--vertex", "4", "--json"]
    for in_dir, dir_code, given, code, stage in ((finite, 2, free, 3, "H1Gate"),
                                                 (free, 3, finite, 2, "TangentGate")):
        (action / "presentation.txt").write_text(in_dir.read_text())
        assert run(certify)[0] == dir_code
        got, out = run(certify + ["--presentation", str(given)])
        assert (got, json.loads(out)["report"]["stage"]) == (code, stage)
