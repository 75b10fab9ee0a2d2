"""Truncated, single-token-mutated and line-duplicated input files: every
parser returns or raises a PLError, and the command line exits with a
documented code."""

import io
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from plstab.circle import parse_circle_lift
from plstab.cli import main
from plstab.complexes import format_complex, parse_complex, parse_surface
from plstab.errors import InvalidComplex, ParseError, PLError
from plstab.interval import parse_plmap1d
from plstab.plmap import format_plmap, parse_plmap
from plstab.presentation import format_presentation, parse_presentation

from support import PROJECTIVE_PLANE, interior_move_map, surface_text

BASE = format_complex(interior_move_map().base)
FILES = {
    "complex": BASE,
    "interval": "interval 0 1\n0 0\n1/4 1/2\n1 1\n",
    "circle": "circle\n0 1/4\n1/2 1/3\n1 5/4\n",
    "plmap": format_plmap(interior_move_map(), "base.cx"),
    "presentation": "gens a b\nrel a b a^-1 b^-1\nrel a^3\n",
    "surface": surface_text(PROJECTIVE_PLANE),
}
PARSERS = {
    "complex": parse_complex,
    "interval": parse_plmap1d,
    "circle": parse_circle_lift,
    "plmap": lambda text: parse_plmap(text, parse_complex(BASE)),
    "presentation": parse_presentation,
    "surface": parse_surface,
}
# (file name, argv after the file) for each format's command-line runs
COMMANDS = {
    "complex": ("c.cx", [["euler", "--complex"]]),
    "interval": ("f.map", [["eval", "--point", "1/3", "--map"], ["invert", "--map"]]),
    "circle": ("f.map", [["rotno", "--qmax", "8", "--n", "8", "--map"],
                         ["invert", "--map"]]),
    "plmap": ("h.pm", [["eval", "--point", "1/3", "1/3", "--map"], ["invert", "--map"]]),
    "presentation": ("p.txt", [["abelianize", "--presentation"]]),
    "surface": ("s.surface", [["euler", "--complex"]]),
}
TOKENS = ["0", "1", "-1", "2", "7", "1/2", "3/4", "1/0", "x", "a^x", "a^2", "b",
          "v", "s", "img", "base", "gens", "rel", "circle", "interval", "surface", "#", ""]


@st.composite
def mutated(draw, kind):
    text = FILES[kind]
    how = draw(st.sampled_from(["truncate", "token", "duplicate"]))
    if how == "truncate":
        return text[:draw(st.integers(0, len(text)))]
    if how == "duplicate":
        lines = text.splitlines()
        i = draw(st.integers(0, len(lines) - 1))
        return "\n".join(lines[:i + 1] + lines[i:]) + "\n"
    lines = [line.split() for line in text.splitlines()]
    slots = [(i, j) for i, line in enumerate(lines) for j in range(len(line))]
    i, j = draw(st.sampled_from(slots))
    lines[i][j] = draw(st.sampled_from(TOKENS))
    return "\n".join(" ".join(line) for line in lines) + "\n"


def _returns_or_raises_plerror(parse, text):
    try:
        parse(text)
    except PLError:
        pass


@pytest.mark.parametrize("kind", sorted(FILES))
def test_parsers_raise_only_plerror(kind):
    @settings(max_examples=60, deadline=None)
    @given(mutated(kind))
    def check(text):
        _returns_or_raises_plerror(PARSERS[kind], text)

    check()


@pytest.mark.parametrize("kind", sorted(FILES))
def test_cli_exits_with_documented_codes(kind):
    name, commands = COMMANDS[kind]

    @settings(max_examples=25, deadline=None)
    @given(mutated(kind))
    def check(text):
        with tempfile.TemporaryDirectory() as tmp:
            with open(os.path.join(tmp, "base.cx"), "w") as fh:
                fh.write(BASE)
            path = os.path.join(tmp, name)
            with open(path, "w") as fh:
                fh.write(text)
            for argv in commands:
                assert main(argv + [path], out=io.StringIO()) in (0, 2, 3, 64, 65)

    check()


def test_the_mutations_are_valid_inputs_unmutated():
    for kind, text in FILES.items():
        PARSERS[kind](text)


@pytest.mark.parametrize("kind, record", [("complex", "v"), ("plmap", "v"), ("plmap", "img")])
def test_duplicated_index_records_are_parse_errors(kind, record):
    lines = FILES[kind].splitlines()
    dups = [i for i, line in enumerate(lines) if line.split()[0] == record]
    assert dups
    for i in dups:
        with pytest.raises(ParseError, match="duplicate"):
            PARSERS[kind]("\n".join(lines[:i + 1] + lines[i:]) + "\n")


# -- argv fuzzing: valid files, odd arguments ------------------------------

VERTICES = ["-1", "0", str(len(interior_move_map().base.points)), str(10 ** 6)]
SMALL = ["-5", "0", "1"]
MAP_FILES = {"interval": "f.map", "circle": "c.map", "plmap": "h.pm"}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("argv")
    (tmp / "base.cx").write_text(BASE)
    for kind, name in MAP_FILES.items():
        (tmp / name).write_text(FILES[kind])
    act = tmp / "action"
    act.mkdir()
    (act / "base.cx").write_text(BASE)
    (act / "h.pm").write_text(FILES["plmap"])
    return tmp


def _argvs(files):
    def option(name, values):
        return st.sampled_from(values).map(lambda v: ["--" + name, v])

    maps = st.sampled_from(sorted(MAP_FILES)).map(lambda k: str(files / MAP_FILES[k]))
    action = str(files / "action")
    return st.one_of(
        st.builds(lambda m, pt: ["eval", "--map", m, "--point", *pt], maps,
                  st.lists(st.sampled_from(["0", "1/3", "-1", "1"]), max_size=3)),
        st.builds(lambda m, v: ["tangent", "--map", m] + v, maps, option("vertex", VERTICES)),
        st.builds(lambda v: ["certify", "--action", action] + v, option("vertex", VERTICES)),
        st.builds(lambda a, b: ["rotno", "--map", str(files / "c.map")] + a + b,
                  option("n", SMALL), option("qmax", SMALL)),
        st.builds(lambda a, b, c: ["analyze", "--action", action] + a + b + c,
                  option("kmax", SMALL), option("n", SMALL), option("qmax", SMALL)),
    )


def test_cli_exits_with_documented_codes_on_odd_arguments(valid_files):
    """Wrong coordinate counts, vertices outside the base and nonpositive
    sizes on valid files: every run exits 0, 2, 3, 64 or 65."""
    @settings(max_examples=80, deadline=None)
    @given(_argvs(valid_files))
    def check(argv):
        assert main(argv, out=io.StringIO()) in (0, 2, 3, 64, 65)

    check()


# -- single-fault 1D inputs: the error each raises, and the CLI's report ----

MALFORMED_1D = [
    ("interval 0 1\n0 0\n", InvalidComplex, "need at least two breakpoints"),
    ("interval 0 1\n0 0\n1/2 1/2\n1/2 3/4\n1 1\n", InvalidComplex,
     "breakpoint x values must strictly increase"),
    ("interval 0 1\n0 0\n1/2 3/4\n3/4 1/2\n1 1\n", InvalidComplex, "map must be strictly monotone"),
    ("interval 0 1\n0 1\n1/2 1/2\n3/4 1/2\n1 0\n", InvalidComplex,
     "map must be strictly monotone"),
    ("interval 0 1\n0 0\n1/2 1/2\n1 3/4\n", InvalidComplex, "endpoints must map onto endpoints"),
    ("interval 0 1\n0 1\n1 1/4\n", InvalidComplex, "endpoints must map onto endpoints"),
    ("interval 0 2\n0 0\n1 1\n", ParseError, "breakpoints do not span the declared interval"),
    ("0 0\n1 1\n", ParseError, "expected 'interval <a> <b>' header"),
    ("interval 0\n0 0\n1 1\n", ParseError, "bad interval header"),
    ("interval 0 1\n0 0\n1/2\n1 1\n", ParseError, "line 3: bad breakpoint record '1/2'"),
    ("interval 0 1\n0 0\n1/2 x\n1 1\n", ParseError, "bad rational literal 'x'"),
    ("interval 0 1/0\n0 0\n1 1\n", ParseError, "bad rational literal '1/0'"),
    ("circle\n0 1/4\n", InvalidComplex, "need at least two breakpoints"),
    ("circle\n0 0\n1/2 1/4\n1/2 1/2\n1 1\n", InvalidComplex,
     "breakpoint x values must strictly increase"),
    ("circle\n0 0\n1/2 3/4\n3/4 1/2\n1 1\n", InvalidComplex, "lift must be strictly increasing"),
    ("circle\n0 0\n1/2 1/2\n2 1\n", InvalidComplex, "breakpoints must span [0, 1]"),
    ("circle\n1/4 0\n1 1\n", InvalidComplex, "breakpoints must span [0, 1]"),
    ("circle\n0 0\n1/2 1/2\n1 5/4\n", InvalidComplex, "lift must satisfy F(1) = F(0) + 1"),
    ("circle 1\n0 0\n1 1\n", ParseError, "expected 'circle' header"),
    ("circle\n0 0 0\n1 1\n", ParseError, "line 2: bad breakpoint record '0 0 0'"),
    ("circle\n0 0\n1/2 y\n1 1\n", ParseError, "bad rational literal 'y'"),
]


@pytest.mark.parametrize("text, error, message", MALFORMED_1D)
def test_single_fault_1d_inputs(text, error, message, tmp_path, capsys):
    """Each names its one fault; `invert` exits 65 with that message, or,
    with no header to tell the map kind, with that complaint."""
    kind = "circle" if text.startswith("circle") else "interval"
    with pytest.raises(error) as info:
        PARSERS[kind](text)
    assert type(info.value) is error and str(info.value) == message
    path = tmp_path / "f.map"
    path.write_text(text)
    if text.split()[0] != kind:
        message = f"cannot determine map kind of {path}"
    capsys.readouterr()
    assert main(["invert", "--map", str(path)], out=io.StringIO()) == 65
    assert capsys.readouterr().err == f"error: {message}\n"


# a record of the wrong shape for each format, and how its reader names it
BAD_RECORDS = {
    "complex": ("w 1", "unknown record 'w'"),
    "interval": ("1/2", "bad breakpoint record '1/2'"),
    "circle": ("1/2", "bad breakpoint record '1/2'"),
    "plmap": ("w 1", "unknown record 'w'"),
    "presentation": ("relator a", "unknown record 'relator'"),
    "surface": ("v 0 0 0", "unknown record 'v'"),
}
# what a parsed object is compared by, where it has no equality of its own
VALUE = {"presentation": format_presentation, "surface": lambda s: s.simplices}


@pytest.mark.parametrize("kind", sorted(FILES))
def test_every_reader_skips_comments_and_blank_lines_and_numbers_its_lines(kind):
    """One comment rule for every format: a comment after a record and a
    blank line change nothing read, and a bad record is named by its line,
    blank and comment lines counted."""
    lines = FILES[kind].splitlines()
    annotated = "\n".join([lines[0] + "  # a comment", ""] + lines[1:]) + "\n"
    value = VALUE.get(kind, lambda x: x)
    assert value(PARSERS[kind](annotated)) == value(PARSERS[kind](FILES[kind]))
    record, message = BAD_RECORDS[kind]
    with pytest.raises(ParseError) as info:
        PARSERS[kind](annotated + record + "\n")
    assert str(info.value) == f"line {len(lines) + 2}: {message}"
