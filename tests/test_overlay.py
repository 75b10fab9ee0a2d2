import random
from fractions import Fraction as F

import pytest

from plstab.clip import point_in_triangle, polygon_area2
from plstab.complexes import Complex, triangle_area2
from plstab.errors import NonCoplanarOverlap, RealizationMismatch
from plstab.overlay import overlay

from support import random_square_triangulation


def two_diagonals():
    pts = [(0, 0), (1, 0), (1, 1), (0, 1)]
    c1 = Complex(pts, [(0, 1, 2), (0, 2, 3)])
    c2 = Complex(pts, [(0, 1, 3), (1, 2, 3)])
    return c1, c2


def total_area(c):
    return sum(triangle_area2(tuple(c.points[v] for v in s)) / 2
               for s in c.simplices)


def test_overlay_square_diagonals():
    c1, c2 = two_diagonals()
    ov = overlay(c1, c2)
    assert len(ov.cells.simplices) == 4
    assert len(ov.cells.points) == 5  # the center appears
    assert total_area(ov.cells) == 1
    for s, (i1, i2) in ov.provenance.items():
        tri1 = [c1.points[v] for v in c1.simplices[i1]]
        tri2 = [c2.points[v] for v in c2.simplices[i2]]
        for v in s:
            assert point_in_triangle(ov.cells.points[v], tri1)
            assert point_in_triangle(ov.cells.points[v], tri2)


def test_overlay_identical_is_same_partition():
    c1, _ = two_diagonals()
    ov = overlay(c1, c1)
    assert total_area(ov.cells) == 1
    assert len(ov.cells.simplices) == 2


def test_overlay_1d():
    c1 = Complex([(0,), (F(1, 2),), (1,)], [(0, 1), (1, 2)])
    c2 = Complex([(0,), (F(1, 3),), (1,)], [(0, 1), (1, 2)])
    ov = overlay(c1, c2)
    xs = sorted(p[0] for p in ov.cells.points)
    assert xs == [0, F(1, 3), F(1, 2), 1]
    assert len(ov.cells.simplices) == 3


def test_overlay_mismatched_realization():
    c1 = Complex([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    c2 = Complex([(0, 0), (2, 0), (0, 2)], [(0, 1, 2)])
    with pytest.raises(RealizationMismatch):
        overlay(c1, c2)


def test_overlay_noncoplanar_in_3d():
    c1 = Complex([(0, 0, 0), (2, 0, 0), (0, 2, 0)], [(0, 1, 2)])
    c2 = Complex([(0, 0, -1), (2, 0, 1), (0, 2, 1)], [(0, 1, 2)])
    with pytest.raises(NonCoplanarOverlap):
        overlay(c1, c2)


def test_overlay_coplanar_in_3d():
    pts = [(0, 0, 0), (1, 0, 0), (1, 1, 1), (0, 1, 1)]
    c1 = Complex(pts, [(0, 1, 2), (0, 2, 3)])
    c2 = Complex(pts, [(0, 1, 3), (1, 2, 3)])
    ov = overlay(c1, c2)
    assert len(ov.cells.simplices) == 4


def test_random_overlays_conserve_area():
    rng = random.Random(12)
    for _ in range(12):
        c1 = random_square_triangulation(rng)
        c2 = random_square_triangulation(rng)
        ov = overlay(c1, c2)
        assert total_area(ov.cells) == 1
        for s, (i1, i2) in ov.provenance.items():
            tri1 = [c1.points[v] for v in c1.simplices[i1]]
            tri2 = [c2.points[v] for v in c2.simplices[i2]]
            cen = tuple(sum(ov.cells.points[v][j] for v in s) / 3
                        for j in range(2))
            assert point_in_triangle(cen, tri1)
            assert point_in_triangle(cen, tri2)


def folded_complex():
    """Two facets on the planes z = 0 and y = 0 sharing the edge 0-1."""
    pts = [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)]
    return Complex(pts, [(0, 1, 2), (0, 1, 3)])


def test_overlay_folded_complex_in_3d():
    c1 = folded_complex()
    # refine both facets at the midpoint of the shared edge
    pts = list(c1.points) + [(1, 0, 0)]
    c2 = Complex(pts, [(0, 4, 2), (4, 1, 2), (0, 4, 3), (4, 1, 3)])
    ov = overlay(c1, c2)
    assert len(ov.cells.simplices) == 4
    assert len(ov.cells.points) == 5
    for s, (i1, i2) in ov.provenance.items():
        cell = {ov.cells.points[v] for v in s}
        assert cell == {c2.points[v] for v in c2.simplices[i2]}
        assert cell <= {c1.points[v] for v in c1.simplices[i1]} | {(1, 0, 0)}
    # each cell stays on the plane of the facet it came from
    for s, (i1, _) in ov.provenance.items():
        axis = 2 if c1.simplices[i1] == (0, 1, 2) else 1
        assert all(ov.cells.points[v][axis] == 0 for v in s)


def test_overlay_folded_complex_mismatch_in_3d():
    c1 = folded_complex()
    c2 = Complex([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 3)],
                 [(0, 1, 2), (0, 1, 3)])
    with pytest.raises(RealizationMismatch):
        overlay(c1, c2)


def test_overlay_1d_in_the_plane():
    square = [(0, 0), (1, 0), (1, 1), (0, 1)]
    c1 = Complex(square, [(0, 1), (1, 2), (2, 3), (0, 3)])
    c2 = Complex(square + [(F(1, 2), 0), (1, F(1, 3))],
                 [(0, 4), (4, 1), (1, 5), (5, 2), (2, 3), (0, 3)])
    ov = overlay(c1, c2)
    assert len(ov.cells.simplices) == 6
    assert sorted(ov.cells.points) == sorted(c2.points)
    for s, (i1, i2) in ov.provenance.items():
        assert {ov.cells.points[v] for v in s} == {c2.points[v] for v in c2.simplices[i2]}
        a, b = (c1.points[v] for v in c1.simplices[i1])
        for v in s:
            p = ov.cells.points[v]
            assert min(a, b) <= p <= max(a, b)
    with pytest.raises(RealizationMismatch):
        overlay(c1, Complex([(0, 0), (1, 0), (1, 1), (0, 2)],
                            [(0, 1), (1, 2), (2, 3), (0, 3)]))
