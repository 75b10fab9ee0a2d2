import random
from fractions import Fraction as F

import pytest

from plstab.complexes import Complex
from plstab.errors import InvalidComplex, NotFixedPoint, VertexNotInComplex
from plstab.geometry import Mat, primitive_direction
from plstab.plmap import PLMap, compose2d, inverse2d, plmap_from_vertex_images
from plstab.tangent import (Germ, build_germ, canonical_germ,
                            compose_germs, fan_of_star, germs_equal,
                            identity_germ, in_cone,
                            is_trivial_on_tangent_sphere, ray_map,
                            refine_fans, tangent_sphere_type)

from support import (bench_grid_maps, build_germ_by_evaluation, build_germ_by_solving, grid_map,
                     quarter_rotation, refine_fans_per_germ, square_complex)


def rot_germ():
    return build_germ(quarter_rotation(), 4)


def shear_map():
    """Center fixed; extra vertex m below the center slides upward."""
    pts = [(0, 0), (1, 0), (1, 1), (0, 1), (F(1, 2), F(1, 2)),
           (F(1, 2), F(1, 4))]
    sq = Complex(pts, [(0, 1, 5), (0, 4, 5), (1, 4, 5), (1, 2, 4),
                       (2, 3, 4), (3, 0, 4)])
    imgs = [(0, 0), (1, 0), (1, 1), (0, 1), (F(1, 2), F(1, 2)),
            (F(1, 2), F(3, 8))]
    return plmap_from_vertex_images(sq, imgs)


def test_fan_of_star_interior():
    sq = square_complex()
    fan = fan_of_star(sq, 4)
    assert fan.closed
    assert len(fan.cones) == 4
    assert tangent_sphere_type(fan) == "Circle"


def test_fan_of_star_corner_is_arc():
    fan = fan_of_star(square_complex(), 0)
    assert not fan.closed
    assert tangent_sphere_type(fan) == "Arc"


def test_rotation_germ_is_rotation_matrix():
    g = rot_germ()
    wanted = Mat([[0, -1], [1, 0]])
    assert all(m == wanted for m in g.matrices)
    assert not is_trivial_on_tangent_sphere(g)


def test_identity_germ_trivial():
    fan = fan_of_star(square_complex(), 4)
    assert is_trivial_on_tangent_sphere(identity_germ(fan))


def test_compose_germs_rotation_squared():
    g = rot_germ()
    g2 = compose_germs(g, g)
    minus = Mat([[-1, 0], [0, -1]])
    assert all(m == minus for m in g2.matrices)
    g4 = compose_germs(g2, g2)
    assert is_trivial_on_tangent_sphere(g4)


def test_shear_germ_piecewise():
    g = build_germ(shear_map(), 4)
    mats = set(g.matrices)
    assert Mat([[1, 0], [0, 1]]) in mats
    assert len(mats) > 1
    assert not is_trivial_on_tangent_sphere(g)


def test_germs_equal_across_refinements():
    g = rot_germ()
    gs = refine_fans([g, build_germ(quarter_rotation(), 4)])
    assert germs_equal(gs[0], gs[1])
    assert germs_equal(g, gs[0])
    assert not germs_equal(g, identity_germ(g.fan))


def test_closed_fans_whose_least_rays_differ_refine_to_one_fan():
    """Each closed fan starts at its least ray; the refinement of two fans
    starts at the least ray of both, whichever germ comes first."""
    sq = square_complex()
    fine = Complex(list(sq.points) + [(F(1, 4), F(5, 8))],
                   [(0, 1, 4), (0, 3, 5), (3, 4, 5), (0, 4, 5), (1, 2, 4), (2, 3, 4)])
    coarse_id, fine_id = (identity_germ(fan_of_star(c, 4)) for c in (sq, fine))
    assert coarse_id.fan.cones[0][0] != fine_id.fan.cones[0][0]
    for gs in ([coarse_id, fine_id], [fine_id, coarse_id]):
        a, b = refine_fans(gs)
        assert a.fan == b.fan and a.fan.cones[0][0] == (-2, 1)
    assert germs_equal(coarse_id, fine_id)


def test_canonical_germ_merges_cones():
    fan = fan_of_star(square_complex(), 4)
    g = identity_germ(fan)
    cg = canonical_germ(g)
    assert is_trivial_on_tangent_sphere(cg)
    assert len(cg.fan.cones) <= len(fan.cones)


def test_ray_map_rotation():
    rm = ray_map(rot_germ())
    n = len(rm.germ.fan.cones)
    # the quarter turn sends each cone to the next one around
    assert sorted(rm.cone_assignment) == sorted(range(n))
    for i, tgt in enumerate(rm.cone_assignment):
        u, _ = rm.germ.fan.cones[i]
        img = primitive_direction(rm.germ.matrices[i].apply(u))
        tu, tv = rot_germ().fan.cones[tgt]
        assert in_cone(img, tu, tv)


def _sample_directions(u, v, count):
    """Rational directions strictly inside the cone spanned by u and v."""
    out = []
    for k in range(1, count + 1):
        a, b = F(k, count + 1), F(count + 1 - k, count + 1)
        d = (a * u[0] + b * v[0], a * u[1] + b * v[1])
        if d != (0, 0):
            out.append(d)
    return out


def direction_sampling_trivial(g, samples=8):
    for (u, v), m in zip(g.fan.cones, g.matrices):
        for d in [u, v] + _sample_directions(u, v, samples):
            img = m.apply(d)
            if primitive_direction(img) != primitive_direction(d):
                return False
    return True


def random_germ(rng):
    """Random fan with scalar, rotation, or piecewise-shear matrices."""
    sq = square_complex()
    fan = fan_of_star(sq, 4)
    kind = rng.choice(["scalar", "rotation", "shear", "global-linear"])
    if kind == "scalar":
        lam = F(rng.randint(1, 9), rng.randint(1, 9))
        mats = [Mat([[lam, 0], [0, lam]])] * len(fan.cones)
    elif kind == "rotation":
        mats = [Mat([[0, -1], [1, 0]])] * len(fan.cones)
    elif kind == "global-linear":
        while True:
            m = Mat([[rng.randint(-3, 3), rng.randint(-3, 3)],
                     [rng.randint(-3, 3), rng.randint(-3, 3)]])
            if m.det() != 0:
                break
        mats = [m] * len(fan.cones)
    else:
        # shear fixing the diagonal rays, mixed with the identity
        c = F(rng.randint(1, 4))
        up = Mat([[1 + c, -c], [c, 1 - c]])  # fixes direction (1,1)
        mats = []
        for u, v in fan.cones:
            mats.append(up if u == (1, 1) or v == (1, 1) else Mat.identity())
        if up.det() == 0:
            return random_germ(rng)
        try:
            return Germ(fan=fan, matrices=tuple(mats))
        except Exception:
            return random_germ(rng)
    return Germ(fan=fan, matrices=tuple(mats))


def test_sampling_oracle_agrees():
    rng = random.Random(17)
    for _ in range(60):
        g = random_germ(rng)
        assert is_trivial_on_tangent_sphere(g) == direction_sampling_trivial(g)


def test_in_cone():
    assert in_cone((1, 1), (1, 0), (0, 1))
    assert in_cone((1, 0), (1, 0), (0, 1))
    assert not in_cone((-1, 0), (1, 0), (0, 1))


@pytest.mark.parametrize("vertex", [5, 99, -1])
def test_germ_at_a_vertex_outside_the_base_is_refused(vertex):
    with pytest.raises(VertexNotInComplex):
        build_germ(quarter_rotation(), vertex)


def test_fans_need_a_2_complex_and_germs_a_fixed_vertex():
    with pytest.raises(InvalidComplex, match="planar 2D"):
        fan_of_star(Complex([(0,), (1,)], [(0, 1)]), 0)
    with pytest.raises(NotFixedPoint, match="vertex 0 is not fixed"):
        build_germ(quarter_rotation(), 0)


def test_a_germ_at_a_pinch_names_the_apex():
    """Two triangles that share only the vertex (0, 0), a base `Complex`
    accepts: the star there is two arcs, which chain into no fan."""
    bowtie = Complex([(0, 0), (1, 0), (1, 1), (-1, 0), (-1, -1)], [(0, 1, 2), (0, 3, 4)])
    with pytest.raises(InvalidComplex, match=r"pinched at \(0, 0\): star cones do not chain"):
        fan_of_star(bowtie, 0)


def fixing_grid_maps(seed):
    """Seeded maps of the n x n grid (n = 2, 3) that fix the boundary and
    interior vertex n + 2, at (1/n, 1/n), then the identity or the
    reflection in the diagonal, which fixes that vertex and corner 0; on
    the base and on its centroid split.  Yields (map, the vertices it
    fixes: an interior one, then boundary ones)."""
    rng = random.Random(seed)
    for n in (2, 3):
        for sym in (0, 4):
            for refine in ("same", "centroids"):
                while True:
                    offsets = [(rng.randint(-1, 1), rng.randint(-1, 1))
                               for _ in range((n + 1) ** 2)]
                    offsets[n + 2] = (0, 0)
                    centres = [(rng.randint(-3, 3), rng.randint(-3, 3))
                               for _ in range(2 * n * n)]
                    try:
                        f = PLMap(*grid_map(n, offsets, centres, "fixed", sym, refine))
                    except InvalidComplex:
                        continue  # a fold: draw again
                    break
                yield f, (n + 2, 0) if sym else (n + 2, 0, 1)


@pytest.mark.parametrize("seed", range(3))
def test_germs_read_off_the_pieces_match_the_solved_germs(seed):
    for f, vertices in fixing_grid_maps(seed):
        for p in vertices:
            assert build_germ(f, p) == build_germ_by_solving(f, p)


@pytest.mark.parametrize("seed", range(3))
def test_one_common_fan_matches_the_per_germ_refinement(seed):
    """Pairs of germs at one vertex of one base, from maps on the base and
    on its centroid split, which cut the vertex's star differently."""
    maps = list(fixing_grid_maps(seed))
    for f, f_fixes in maps:
        for g, g_fixes in maps:
            if f.base is g.base:
                for p in sorted(set(f_fixes) & set(g_fixes)):
                    germs = [build_germ(f, p), build_germ(g, p)]
                    assert refine_fans(germs) == refine_fans_per_germ(germs)


@pytest.mark.parametrize("seed", range(3))
def test_germ_matrices_match_the_columns_read_by_evaluation(seed):
    """On seeded bench grid maps, their squares and their composite, at
    every vertex each fixes, the matrices read off the solved pieces equal
    the columns f(apex + e_k) - apex found by evaluating each cell's piece."""
    f, g = bench_grid_maps(3, seed)
    for h in (f, g, compose2d(f, f), compose2d(f, g), compose2d(g, f)):
        fixed = [p for p in range(len(h.base.points))
                 if h.images[h.refinement_index_of_base_vertex(p)] == h.base.points[p]]
        assert len(fixed) > 10
        for p in fixed:
            assert build_germ(h, p) == build_germ_by_evaluation(h, p)


@pytest.mark.parametrize("seed", range(8))
def test_germs_of_a_map_and_its_inverse_merge_to_the_identity(seed):
    """At an interior vertex v that a seeded grid map f fixes, the germ of f
    composed with the germ of its inverse merges its cones
    (`canonical_germ`) to fewer than either input has: identity matrices
    on a fan that agrees with the identity germ on f's fan."""
    f = bench_grid_maps(3, seed)[0]
    g = inverse2d(f)
    fixed = [v for v in range(len(f.base.points)) if fan_of_star(f.base, v).closed
             and f.images[f.refinement_index_of_base_vertex(v)] == f.base.points[v]]
    assert fixed
    for v in fixed:
        germ_f, germ_g = build_germ(f, v), build_germ(g, v)
        merged = compose_germs(germ_f, germ_g)
        assert all(m.is_identity() for m in merged.matrices)
        assert len(merged.fan.cones) < min(len(germ_f.fan.cones), len(germ_g.fan.cones))
        assert germs_equal(merged, identity_germ(germ_f.fan))
