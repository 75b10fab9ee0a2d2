import random
from fractions import Fraction as F

import pytest

from plstab.complexes import Complex, parse_complex
from plstab.errors import (PointOutsideComplex, RealizationMismatch)
from plstab.plmap import (PLMap, compose2d, eval2d, format_plmap,
                          identity_map, inverse2d, parse_plmap,
                          plmap_from_vertex_images, power)

from support import (cycle_rotation, interior_move_map, quarter_rotation,
                     square_complex, three_cycle)


def test_identity_map():
    f = identity_map(square_complex())
    assert f.is_identity()
    assert f.eval((F(1, 3), F(1, 3))) == (F(1, 3), F(1, 3))


def test_quarter_rotation_eval():
    r = quarter_rotation()
    assert r.eval((0, 0)) == (1, 0)
    assert r.eval((F(1, 2), F(1, 2))) == (F(1, 2), F(1, 2))
    assert r.eval((F(1, 4), F(1, 4))) == (F(3, 4), F(1, 4))


def test_rotation_group_law():
    r = quarter_rotation()
    r2 = compose2d(r, r)
    assert r2.eval((0, 0)) == (1, 1)
    r4 = power(r, 4)
    assert r4.is_identity()
    assert not power(r, 2).is_identity()


def test_power_matches_repeated_compose():
    r = quarter_rotation()
    assert power(r, 3) == compose2d(r, compose2d(r, r))


def test_inverse_roundtrip():
    r = quarter_rotation()
    rinv = inverse2d(r)
    assert compose2d(r, rinv).is_identity()
    assert compose2d(rinv, r).is_identity()
    h = interior_move_map()
    assert compose2d(inverse2d(h), h).is_identity()


def test_compose_matches_double_eval():
    f = interior_move_map()
    g = interior_move_map(target=(F(13, 16), F(7, 16)))
    h = compose2d(f, g)
    rng = random.Random(2)
    for _ in range(25):
        x = (F(rng.randint(0, 16), 16), F(rng.randint(0, 16), 16))
        assert h.eval(x) == f.eval(g.eval(x))


def test_eval_outside_raises():
    with pytest.raises(PointOutsideComplex):
        quarter_rotation().eval((2, 2))


def test_non_homeomorphism_rejected():
    sq = square_complex()
    # collapsing the center onto a corner degenerates two cells
    with pytest.raises(Exception):
        plmap_from_vertex_images(sq, [(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)])


def test_boundary_violation_rejected():
    sq = square_complex()
    # pushing a boundary corner inside breaks boundary preservation
    with pytest.raises(RealizationMismatch):
        plmap_from_vertex_images(
            sq, [(F(1, 4), F(1, 4)), (1, 0), (1, 1), (0, 1),
                 (F(1, 2), F(1, 2))])


def test_1d_cycle_rotation():
    rot = cycle_rotation()
    assert not rot.is_identity()
    assert power(rot, 3).is_identity()


def test_map_equality_across_refinements():
    sq = square_complex()
    ident = identity_map(sq)
    r = quarter_rotation()
    assert compose2d(r, inverse2d(r)) == ident
    assert not (r == ident)


def test_image_complex_realizes_base():
    h = interior_move_map()
    img = h.image_complex()
    from plstab.complexes import triangle_area2
    total = sum(triangle_area2(tuple(img.points[v] for v in s)) / 2
                for s in img.simplices)
    assert total == 1


def test_parse_format_roundtrip():
    r = quarter_rotation()
    text = format_plmap(r, "square.cx")
    assert parse_plmap(text, r.base) == r
    h = interior_move_map()
    assert parse_plmap(format_plmap(h), h.base) == h


def test_1d_map_in_the_plane():
    # a quarter turn of the square's boundary cycle, on a refinement
    square = [(0, 0), (1, 0), (1, 1), (0, 1)]
    base = Complex(square, [(0, 1), (1, 2), (2, 3), (0, 3)])
    ref = Complex(square + [(F(1, 2), 0)],
                  [(0, 4), (4, 1), (1, 2), (2, 3), (0, 3)])
    f = PLMap(base, ref, [(1, 0), (1, 1), (0, 1), (0, 0), (1, F(1, 2))])
    assert f.eval((F(1, 4), 0)) == (1, F(1, 4))
    assert f.eval((1, F(1, 3))) == (F(2, 3), 1)
    assert f.eval((0, F(1, 2))) == (F(1, 2), 0)
    with pytest.raises(PointOutsideComplex):
        f.eval((F(1, 2), F(1, 2)))
    assert inverse2d(f).eval((1, F(1, 4))) == (F(1, 4), 0)
    assert compose2d(f, inverse2d(f)).is_identity()
