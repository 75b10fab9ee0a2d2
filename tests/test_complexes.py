from fractions import Fraction as F

import pytest

from plstab.complexes import (Complex, boundary, euler_characteristic,
                              format_complex, is_arc, is_cycle, link,
                              parse_complex, star)
from plstab.errors import InvalidComplex, ParseError, UnknownVertex


def square():
    pts = [(0, 0), (1, 0), (1, 1), (0, 1), (F(1, 2), F(1, 2))]
    return Complex(pts, [(0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4)])


def tetra_boundary():
    pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    return Complex(pts, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


def three_cycle():
    return Complex([(0, 0), (1, 0), (0, 1)], [(0, 1), (1, 2), (0, 2)])


def test_euler_characteristic():
    assert euler_characteristic(square()) == 1
    assert euler_characteristic(tetra_boundary()) == 2
    assert euler_characteristic(three_cycle()) == 0


def test_star_and_link_interior_vertex():
    sq = square()
    st = star(sq, 4)
    assert len(st.of_dim(2)) == 4
    lk = link(sq, 4)
    assert is_cycle(lk)


def test_link_of_corner_is_arc():
    lk = link(square(), 0)
    assert is_arc(lk)
    assert not is_cycle(lk)


def test_boundary_of_disk():
    b = boundary(square())
    assert len(b.of_dim(1)) == 4
    assert is_cycle(b)


def test_boundary_of_sphere_empty():
    assert not boundary(tetra_boundary()).simplices


def test_degenerate_triangle_rejected():
    with pytest.raises(InvalidComplex):
        Complex([(0, 0), (1, 1), (2, 2)], [(0, 1, 2)])


def test_overlapping_interiors_rejected():
    pts = [(0, 0), (2, 0), (0, 2), (1, 1), (2, 2), (0, 1)]
    with pytest.raises(InvalidComplex):
        Complex(pts, [(0, 1, 2), (0, 3, 5)])


def test_nonmanifold_edge_rejected():
    # three triangles sharing one edge
    pts = [(0, 0), (1, 0), (0, 1), (0, -1), (-1, 1)]
    with pytest.raises(InvalidComplex):
        Complex(pts, [(0, 1, 2), (0, 1, 3), (0, 1, 4)])


def test_disconnected_rejected_by_default():
    pts = [(0, 0), (1, 0), (5, 0), (6, 0)]
    with pytest.raises(InvalidComplex):
        Complex(pts, [(0, 1), (2, 3)])
    Complex(pts, [(0, 1), (2, 3)], require_connected=False)


def test_unknown_vertex():
    with pytest.raises(UnknownVertex):
        star(square(), 17)


def test_parse_format_roundtrip():
    for c in (square(), tetra_boundary(), three_cycle()):
        text = format_complex(c)
        c2 = parse_complex(text)
        assert c2.points == c.points
        assert c2.simplices == c.simplices
        assert format_complex(c2) == text


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        parse_complex("v 0 0 0\nq 1 2\n")
    with pytest.raises(ParseError):
        parse_complex("v 0 0 0\nv 2 1 1\ns 0 2\n")  # index gap
    with pytest.raises(ParseError):
        parse_complex("v x 0 0\nv 1 1 0\ns 0 1\n")  # vertex index
    with pytest.raises(ParseError):
        parse_complex("v 0 0 0\nv 1 1 0\ns 0 z\n")  # simplex index


def test_parse_comments_and_blanks():
    c = parse_complex("# a segment\nv 0 0\nv 1 1\n\ns 0 1  # the edge\n")
    assert c.dim == 1
    assert c.simplices == ((0, 1),)
