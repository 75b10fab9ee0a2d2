"""Closed surfaces, and surfaces with boundary, as abstract triangulations:
`Surface` validates by combinatorics alone, `parse_surface` reads the
surface format, and `euler` reads it beside `.cx` complexes.  Each error
names the first bad line, triangle, edge or vertex, so these tests also
pin that no set or dict order leaks into a message."""

import io
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from plstab import complexes
from plstab.cli import main
from plstab.complexes import (Surface, boundary, euler_characteristic, is_arc, is_cycle, link,
                              parse_surface)
from plstab.errors import InvalidComplex, ParseError

from support import OCTAHEDRON, PROJECTIVE_PLANE, TETRAHEDRON, TORUS, surface_text

SURFACES = {
    "octahedron": (OCTAHEDRON, 2),
    "tetrahedron": (TETRAHEDRON, 2),
    "projective-plane": (PROJECTIVE_PLANE, 1),
    "torus": (TORUS, 0),
    "triangle": ([(0, 1, 2)], 1),
}


def euler(tmp_path, text, *flags):
    """(exit code, stdout) of `euler` on a file holding ``text``."""
    path = tmp_path / "x.surface"
    path.write_text(text)
    out = io.StringIO()
    return main(["euler", "--complex", str(path), *flags], out=out), out.getvalue()


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_euler_characteristic_of_each_surface(name, tmp_path):
    triangles, chi = SURFACES[name]
    assert euler_characteristic(Surface(triangles)) == chi
    assert euler(tmp_path, surface_text(triangles)) == (0, f"{chi}\n")
    code, out = euler(tmp_path, surface_text(triangles), "--json")
    assert code == 0
    assert json.loads(out) == {"schema_version": 1, "command": "euler", "report": chi}


def test_closed_surfaces_have_cycle_links_and_no_boundary():
    for name in ("octahedron", "tetrahedron", "projective-plane", "torus"):
        s = Surface(SURFACES[name][0])
        assert all(is_cycle(link(s, v)) for v in range(s.vertex_count))
        assert not boundary(s).simplices
    triangle = Surface([(0, 1, 2)])
    assert all(is_arc(link(triangle, v)) for v in range(3))
    assert boundary(triangle).of_dim(1) == ((0, 1), (0, 2), (1, 2))


def test_a_surface_builds_its_star_table_once(monkeypatch):
    """Validation reads every vertex link through one star table, and
    later stars and links read it again."""
    built = []
    real = complexes.cell_stars
    monkeypatch.setattr(complexes, "cell_stars",
                        lambda simplices, n: built.append(n) or real(simplices, n))
    s = Surface(TORUS)
    assert built == [7]
    assert is_cycle(link(s, 3)) and built == [7]


def test_the_header_may_follow_comments_and_blank_lines():
    text = "# the projective plane\n\n  surface  # six vertices\n" + "".join(
        "s %d %d %d  # a triangle\n" % t for t in PROJECTIVE_PLANE)
    s = parse_surface(text)
    assert s.simplices == Surface(PROJECTIVE_PLANE).simplices
    assert (s.vertex_count, euler_characteristic(s)) == (6, 1)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(SURFACES)), st.integers(0, 10**6))
def test_relabelling_keeps_the_surface(name, seed):
    """Permuting the vertex labels, the triangle order and the order within
    each triangle gives a valid surface of the same Euler characteristic."""
    triangles, chi = SURFACES[name]
    rng = random.Random(seed)
    n = 1 + max(v for t in triangles for v in t)
    labels = list(range(n))
    rng.shuffle(labels)
    moved = [tuple(rng.sample([labels[v] for v in t], 3)) for t in triangles]
    rng.shuffle(moved)
    assert euler_characteristic(parse_surface(surface_text(moved))) == chi


# each validity rule, on a surface that breaks it alone
REFUSED = [
    ("surface\n", "surface has no triangles"),
    ("surface\ns 0 1 2\ns 1 1 3\n", "triangle (1, 1, 3) does not have three distinct vertices"),
    ("surface\ns 0 1 2\ns 1 2 4\n", "vertex indices must be 0..n-1 without gaps"),
    ("surface\ns 0 1 2\ns 1 2 -1\n", "vertex indices must be 0..n-1 without gaps"),
    ("surface\ns 0 1 2\ns 2 0 1\n", "triangle (0, 1, 2) appears twice"),
    # the edges 0-1 and 2-3 each lie in three triangles; 0-1 comes first
    ("surface\ns 2 3 4\ns 2 3 5\ns 2 3 6\ns 0 1 4\ns 0 1 5\ns 0 1 6\n",
     "edge (0, 1) lies in 3 triangles"),
    # a chain of triangles pinched at vertices 4 and 2; 2 comes first
    ("surface\ns 4 5 6\ns 2 3 4\ns 0 1 2\n", "the link of vertex 2 is not one cycle or one arc"),
    ("surface\ns 0 1 2\ns 3 4 5\n", "surface is not connected"),
]


@pytest.mark.parametrize("text, message", REFUSED)
def test_each_validity_rule_refuses(text, message, tmp_path, capsys):
    with pytest.raises(InvalidComplex) as info:
        parse_surface(text)
    assert str(info.value) == message
    assert euler(tmp_path, text) == (65, "")
    assert capsys.readouterr().err == f"error: {message}\n"


# each record error, naming the file's line as the `.cx` errors do
RECORD_ERRORS = [
    ("surface 2\ns 0 1 2\n", "line 1: the header must be 'surface'"),
    ("# a header with a name\n\nsurface rp2\ns 0 1 2\n", "line 3: the header must be 'surface'"),
    ("surface\ns 0 1 2\n\ns 0 1\n", "line 4: bad triangle record"),
    ("surface\ns 0 1 2 3\n", "line 2: bad triangle record"),
    ("surface\n# a comment\ns 0 x 2\n", "line 3: bad vertex index 'x'"),
    ("surface\ns 0 1 2\nv 0 0 0\n", "line 3: unknown record 'v'"),
    ("surface\nsurface\ns 0 1 2\n", "line 2: unknown record 'surface'"),
]


@pytest.mark.parametrize("text, message", RECORD_ERRORS)
def test_each_record_error_names_its_line(text, message, tmp_path, capsys):
    with pytest.raises(ParseError) as info:
        parse_surface(text)
    assert str(info.value) == message
    assert euler(tmp_path, text) == (65, "")
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_cx_file_is_still_read_as_a_complex(tmp_path):
    """Without the `surface` header, `euler` reads a `.cx` complex."""
    square = "v 0 0 0\nv 1 1 0\nv 2 1 1\nv 3 0 1\ns 0 1 2\ns 0 2 3\n"
    assert euler(tmp_path, square) == (0, "1\n")
