import random
import re
import sys
from fractions import Fraction as F
from importlib import import_module

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from plstab import complexes, plmap
from plstab.cli import load_action
from plstab.clip import polygon_area2, triangle_intersection
from plstab.complexes import Complex, boundary, format_complex
from plstab.errors import (InvalidComplex, PLError, PointOutsideComplex,
                           RealizationMismatch)
from plstab.geometry import bbox, candidate_pairs, homogeneous, orient2
from plstab.overlay import overlay, triangle_pieces
from plstab.plmap import (PLMap, compose2d, format_plmap,
                          identity_map, inverse2d, parse_plmap,
                          plmap_from_vertex_images)

from support import (SYMMETRIES, _along_boundary, affine, bench_grid_maps, cell_map_on_fractions,
                     collinear_overlap_on_fractions, compose_cells_by_points, cycle_rotation,
                     grid_complex, grid_map, interior_move_map,
                     orient2_on_fractions, overlay_cells_by_points, power, quarter_rotation,
                     refinement_by_points, segment_param,
                     square_complex, tiles_unit, two_squares)

# by module path: the package's `overlay` is the function
overlay_module = import_module("plstab.overlay")


def test_identity_map():
    f = identity_map(square_complex())
    assert f.is_identity()
    assert f.eval((F(1, 3), F(1, 3))) == (F(1, 3), F(1, 3))


def test_a_refinement_of_another_dimension_or_wrong_images_are_refused():
    sq, edge = square_complex(), Complex([(0, 0), (1, 0)], [(0, 1)])
    with pytest.raises(RealizationMismatch, match="where the base lives"):
        PLMap(sq, edge, edge.points)
    with pytest.raises(InvalidComplex, match="one image point per refinement vertex"):
        PLMap(sq, sq, sq.points[:-1])
    with pytest.raises(InvalidComplex, match="image points have the wrong ambient dimension"):
        PLMap(sq, sq, [p[:1] for p in sq.points])


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


def test_compose_with_a_reflection_triangulates_counter_clockwise(monkeypatch):
    """A reflection g reverses each polygon pulled back through it, and
    compose2d turns it back before triangulating: every polygon that
    `overlay.refine` hands to convex_fan has positive area, on either side
    of f∘g."""
    f = interior_move_map()
    g = plmap_from_vertex_images(f.base, [(1 - x, y) for x, y in f.base.points])
    polygons = []
    fan = overlay_module.convex_fan

    def recorded(homs):
        polygons.append(homs)
        return fan(homs)

    monkeypatch.setattr(overlay_module, "convex_fan", recorded)
    for a, b in ((f, g), (g, f), (g, g)):
        h = compose2d(a, b)
        assert all(h.eval(q) == a.eval(b.eval(q)) for q in h.refinement.points)
    assert polygons and all(polygon_area2(poly) > 0 for poly in polygons)
    assert compose2d(g, g).is_identity()


def test_eval_outside_raises():
    with pytest.raises(PointOutsideComplex):
        quarter_rotation().eval((2, 2))


def test_eval_refuses_a_point_of_another_coordinate_count():
    """A point is in no cell unless it has as many coordinates as the
    base's ambient dimension: a planar map, a cycle in R^2 and an arc in
    R^1 refuse more and fewer, naming the count, where a point of the
    right count is mapped."""
    arc = Complex([(0,), (1,)], [(0, 1)])
    for f, inside, others in ((quarter_rotation(), (0, 0), [(0, 0, 0), (0,), ()]),
                              (cycle_rotation(), (0, 0), [(0, 0, 0), (0,), ()]),
                              (plmap_from_vertex_images(arc, [(1,), (0,)]), (0,),
                               [(0, 0), (1, 0, 0), ()])):
        assert f.eval(inside) is not None
        for x in others:
            with pytest.raises(PointOutsideComplex,
                               match=rf"has {len(x)} coordinate\(s\), not {len(inside)}"):
                f.eval(x)


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


def test_maps_on_different_bases_neither_compose_nor_compare_equal():
    r, other = quarter_rotation(), identity_map(grid_complex(2))
    with pytest.raises(RealizationMismatch, match="maps must share the base complex"):
        compose2d(r, other)
    assert (r == other) is False and (other == r) is False
    assert (r == 3) is False


def equal_by_point_location(f, g):
    """Map equality as decided before provenance: `eval` at every vertex of
    the overlay of the two refinements."""
    if f.base != g.base:
        return False
    ov = overlay(f.refinement, g.refinement)
    return all(f.eval(x) == g.eval(x) for x in ov.cells.points)


def seeded_grid_map(seed, n=3):
    """A seeded homeomorphism of the n x n grid: every interior vertex moves
    by -1/(5n), 0 or 1/(5n) in each coordinate, which keeps every cell
    positively oriented, then a seeded symmetry of the square."""
    rng = random.Random(seed)
    base, d = {2: GRID, 3: GRID3}[n], F(1, 5 * n)
    sym = SYMMETRIES[rng.randrange(len(SYMMETRIES))]
    images = [sym(x, y) if {x, y} & {0, 1}
              else sym(x + rng.choice((-d, 0, d)), y + rng.choice((-d, 0, d)))
              for x, y in base.points]
    return plmap_from_vertex_images(base, images)


def _equality_cases():
    grid_maps = [seeded_grid_map(seed, n) for n in (2, 3) for seed in range(4)]
    grid_maps.append(seeded_grid_map(1, 3))  # equal to another map, not the same object
    for f in grid_maps:
        for g in grid_maps:
            if f.base == g.base:
                yield f, g, None
    for f in grid_maps[::3]:
        # equal maps on different refinements
        yield compose2d(f, inverse2d(f)), identity_map(f.base), True
        yield compose2d(f, compose2d(inverse2d(f), f)), f, True
    moved = interior_move_map()
    other = interior_move_map(target=(F(13, 16), F(7, 16)))
    yield moved, identity_map(moved.base), False
    # the maps differ only at the middle of the right side, which is the
    # smallest vertex of no cell
    slid = plmap_from_vertex_images(
        GRID, [(x, y + F(1, 8)) if (x, y) == (1, F(1, 2)) else (x, y) for x, y in GRID.points])
    yield slid, identity_map(GRID), False
    yield moved, compose2d(other, inverse2d(other)), False
    yield compose2d(moved, other), compose2d(other, moved), False
    turn, slide = square_cycle_turn(), square_cycle_slide()
    for f in (turn, slide):
        yield f, f, True
        yield compose2d(f, inverse2d(f)), identity_map(SQUARE_CYCLE), True
    yield power(turn, 4), identity_map(SQUARE_CYCLE), True
    yield turn, slide, False
    yield compose2d(turn, slide), compose2d(slide, turn), False


def test_equality_by_provenance_matches_point_location():
    """`==` reads each overlay cell's two provenance pieces: seeded grid
    maps against each other, a map composed with its inverse against the
    identity on another refinement, a map moving one interior vertex
    against the identity, and maps of the refined square cycle."""
    seen = set()
    for f, g, expected in _equality_cases():
        equal = f == g
        assert equal == equal_by_point_location(f, g)
        if expected is not None:
            assert equal == expected
        seen.add(equal)
    assert seen == {True, False}


def test_image_complex_realizes_base():
    h = interior_move_map()
    img = h.image
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


SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]
SQUARE_CYCLE = Complex(SQUARE, [(0, 1), (1, 2), (2, 3), (0, 3)])


def square_cycle_turn():
    """A quarter turn of the square's boundary cycle, on a refinement."""
    ref = Complex(SQUARE + [(F(1, 2), 0)],
                  [(0, 4), (4, 1), (1, 2), (2, 3), (0, 3)])
    return PLMap(SQUARE_CYCLE, ref, [(1, 0), (1, 1), (0, 1), (0, 0), (1, F(1, 2))])


def square_cycle_slide():
    """The square's boundary cycle with its corners fixed and a point of
    the right side and one of the top slid along them."""
    ref = Complex(SQUARE + [(1, F(1, 3)), (F(1, 2), 1)],
                  [(0, 1), (1, 4), (2, 4), (2, 5), (3, 5), (0, 3)])
    return PLMap(SQUARE_CYCLE, ref, SQUARE + [(1, F(2, 3)), (F(1, 4), 1)])


def test_1d_map_in_the_plane():
    f = square_cycle_turn()
    assert f.eval((F(1, 4), 0)) == (1, F(1, 4))
    assert f.eval((1, F(1, 3))) == (F(2, 3), 1)
    assert f.eval((0, F(1, 2))) == (F(1, 2), 0)
    with pytest.raises(PointOutsideComplex):
        f.eval((F(1, 2), F(1, 2)))
    assert inverse2d(f).eval((1, F(1, 4))) == (F(1, 4), 0)
    assert compose2d(f, inverse2d(f)).is_identity()


def test_1d_compose_in_the_plane_cuts_at_the_vertices_of_f():
    """h = f∘g has the image f(g(q)), by point location, at every vertex q
    of its refinement, and every vertex of f inside an image segment of g
    cuts that segment: it is g(q) for a vertex q of h.  The inputs are the
    refined square cycle maps (the turn is the polyline map of
    `test_1d_map_in_the_plane`), their composites, and composites with
    their inverses."""
    turn, slide = square_cycle_turn(), square_cycle_slide()
    for f, g in ((turn, slide), (slide, turn), (turn, compose2d(slide, turn)),
                 (turn, inverse2d(slide)), (inverse2d(turn), slide),
                 (compose2d(inverse2d(turn), slide), turn),
                 (compose2d(slide, turn), inverse2d(turn))):
        h = compose2d(f, g)
        assert all(image == h.eval(q) == f.eval(g.eval(q))
                   for q, image in zip(h.refinement.points, h.images))
        cuts = {g.eval(q) for q in h.refinement.points}
        inner = [w for a, b in g.image.cells() for w in f.refinement.points
                 if 0 < (segment_param(a, b, w) or 0) < 1]
        assert inner and all(w in cuts for w in inner)


def test_image_is_a_complex_on_the_refinement_simplices():
    h = interior_move_map()
    assert h.image.simplices == h.refinement.simplices
    assert h.images == h.image.points
    f = cycle_rotation()
    assert f.image.simplices == f.refinement.simplices


def test_refinement_omitting_a_base_cell_rejected():
    sq = square_complex()
    three = Complex(sq.points, sq.simplices[:3])
    with pytest.raises(RealizationMismatch):
        PLMap(sq, three, three.points)


def test_refinement_cell_straddling_base_cells_rejected():
    pts = [(0, 0), (1, 0), (1, 1), (0, 1)]
    base = Complex(pts, [(0, 1, 2), (0, 2, 3)])
    other_diagonal = Complex(pts, [(0, 1, 3), (1, 2, 3)])
    with pytest.raises(RealizationMismatch, match="not inside"):
        PLMap(base, other_diagonal, pts)


def test_overlapping_image_cells_rejected():
    sq = square_complex()
    # the centre pushed past the right edge folds the left cell over the
    # bottom and top ones
    with pytest.raises(InvalidComplex, match="overlap"):
        plmap_from_vertex_images(
            sq, [(0, 0), (1, 0), (1, 1), (0, 1), (2, F(1, 2))])


def test_degenerate_image_cell_rejected():
    sq = square_complex()
    with pytest.raises(InvalidComplex, match="degenerate"):
        plmap_from_vertex_images(sq, [(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)])


# -- the 2D image-coverage check --------------------------------------------


def test_image_lifting_a_square_off_the_base_rejected():
    base = two_squares()
    images = list(base.points[:4]) + [(x, y + 5) for x, y in base.points[4:]]
    # same total area, but half of it lies off the base
    with pytest.raises(RealizationMismatch,
                       match="an image cell leaves the base realization"):
        PLMap(base, base, images)


def test_swapping_the_squares_accepted():
    base = two_squares()
    images = ([(x + 2, y) for x, y in base.points[:4]]
              + [(x - 2, y) for x, y in base.points[4:]])
    f = PLMap(base, base, images)
    # every image cell lies in a base cell other than its home
    assert f.cell_base == (0, 1, 2, 3)
    assert f.eval((F(1, 4), F(1, 2))) == (F(9, 4), F(1, 2))
    assert f.eval((F(11, 4), 1)) == (F(3, 4), 1)
    assert compose2d(f, f).is_identity()


GRID = grid_complex(2)
OFFSETS = st.lists(st.tuples(st.integers(-1, 1), st.integers(-1, 1)),
                   min_size=len(GRID.points), max_size=len(GRID.points))
# the bottom midpoint pushed out and the top midpoint pulled in keep the area
LIFTED = [(0, 0), (0, -1), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, -1), (0, 0)]


@settings(max_examples=80, deadline=None)
@given(OFFSETS, st.integers(0, len(SYMMETRIES) - 1), st.booleans())
@example(LIFTED, 0, True)
@example(LIFTED, 5, True)
def test_image_check_matches_all_pairs_clip(offsets, sym, free):
    """Near-identity grid maps, alone and followed by a symmetry of the
    square: the map is accepted iff the sum of the clipped areas of all
    image/base cell pairs (and the image area) equals the base area and
    the boundary goes to the boundary.
    Unless `free`, boundary points stay on the boundary, so most maps are
    homeomorphisms.  No map fails on the boundary alone: one whose image
    complex realizes the base is a homeomorphism."""
    base = GRID
    if not free:
        offsets = [_along_boundary(p, d) for p, d in zip(base.points, offsets)]
    images = [SYMMETRIES[sym](x + F(dx, 8), y + F(dy, 8))
              for (x, y), (dx, dy) in zip(base.points, offsets)]
    try:
        image = Complex(images, base.simplices)
    except InvalidComplex as e:
        with pytest.raises(InvalidComplex, match=re.escape(str(e))):
            PLMap(base, base, images)
        return
    cells, base_cells = image.hom_cells(), base.hom_cells()
    reference = sum((abs(polygon_area2(triangle_intersection(a, b)))
                     for a in cells for b in base_cells), F(0))
    if image.area2() != base.area2():
        expected = "image area differs from base area"
    elif reference != base.area2():
        expected = "an image cell leaves the base realization"
    else:
        expected = None
    try:
        PLMap(base, base, images)
        outcome = None
    except RealizationMismatch as e:
        outcome = str(e)
    assert outcome == expected


# -- validate once --------------------------------------------------------


def test_action_generators_share_one_base(tmp_path):
    r = quarter_rotation()
    (tmp_path / "base.cx").write_text(format_complex(r.base))
    (tmp_path / "a.pm").write_text(format_plmap(r, "base.cx"))
    (tmp_path / "b.pm").write_text(format_plmap(inverse2d(r), "base.cx"))
    action = load_action(str(tmp_path))
    (_, a), (_, b) = action.generators
    assert a.base is b.base
    assert a.refinement is a.base
    assert b.refinement is not b.base


def test_an_action_pairs_its_base_edges_once(tmp_path, monkeypatch):
    """Validating the base builds its facet table, and the image
    certificate of each generator on it reads that table: one build for
    three generators."""
    maps = bench_grid_maps(3, 7) + bench_grid_maps(3, 8)[:1]
    (tmp_path / "base.cx").write_text(format_complex(maps[0].base))
    for name, f in zip("abc", maps):
        (tmp_path / f"{name}.pm").write_text(format_plmap(f, "base.cx"))
    built = []
    real = complexes.cell_facets
    monkeypatch.setattr(complexes, "cell_facets",
                        lambda simplices: built.append(simplices) or real(simplices))
    action = load_action(str(tmp_path))
    base = action.generators[0][1].base
    assert [f.refinement for _, f in action.generators] == [base] * 3
    # each image shares the base's simplices and table; the other builds
    # are of the reference complexes that the check mode (conftest)
    # validates each image against, which sort their simplices anew
    assert [s for s in built if s is base.simplices] == [base.simplices]


def shares_its_refinement_record(f):
    """Is f's image its refinement's simplices and incidence tables at
    other points?"""
    r, im = f.refinement, f.image
    return (im.simplices is r.simplices and im.facets() is r.facets()
            and im.stars() is r.stars() and im.neighbours() is r.neighbours())


def test_images_share_their_refinement_record():
    """A parsed map, the composite and the inverse of n=3 grid maps and the
    identity each keep their image on the refinement's simplices, with the
    refinement's facet table, star table and neighbour list."""
    f, g = bench_grid_maps(3, 7)
    parsed = parse_plmap(format_plmap(f), f.base)
    h = compose2d(f, g)
    for m in (parsed, h, inverse2d(g), inverse2d(h), identity_map(f.base)):
        assert shares_its_refinement_record(m)
        # each complex keeps its own orientations
        assert m.image.orientations() is not m.refinement.orientations()


def test_an_accepted_image_orients_on_the_certificate_rows(monkeypatch):
    """The certificate builds the image it accepts first, on the images'
    rows, and orients its cells through the image's `orientations`, which
    the image keeps: the certificate followed by a walk of the image, as
    compose and inverse walk it, runs exactly one `orient2` per image
    cell, on the kept rows, and the image converts no point.  The check
    mode of `conftest`, which validates the accepted image and so orients
    it again, is lifted."""
    maps = [interior_move_map(), *bench_grid_maps(3, 7)]
    monkeypatch.undo()
    for f in maps:
        images, converted, oriented = f.images, [], []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(complexes, "homogeneous", lambda p: converted.append(p) or homogeneous(p))
            for module in (complexes, plmap):
                mp.setattr(module, "orient2", lambda *h: oriented.append(h) or orient2(*h))
            image = plmap._certified_image(f.base, f.refinement, images)
            assert image is not None
            walked = list(triangle_pieces(image, f.base))
        rows = image.hom_points()
        assert walked and converted == []
        assert oriented == [tuple(rows[v] for v in s) for s in image.simplices]
        assert image.orientations() == [orient2_on_fractions(*cell) for cell in image.cells()]


def test_a_walk_derives_each_table_once(monkeypatch):
    """Compose and inverse walk images that share their refinement's
    record: no facet table is built for an image, whose simplices are its
    refinement's, and each neighbour list is derived once and then read,
    however many walks read it."""
    f, g = bench_grid_maps(3, 7)
    h = compose2d(f, g)
    built, lists = [], []
    real_facets, real_neighbours = complexes.cell_facets, Complex.neighbours
    monkeypatch.setattr(complexes, "cell_facets",
                        lambda simplices: built.append(simplices) or real_facets(simplices))

    def spy(self):
        lists.append((self.simplices, real_neighbours(self)))
        return lists[-1][1]

    monkeypatch.setattr(Complex, "neighbours", spy)
    for a, b in ((f, g), (g, f), (h, f), (f, h)):
        compose2d(a, b)
    inverse2d(g)
    inverse2d(h)
    # the images of f and g lie on the base's simplices, whose table the
    # base's validation built; h's image on its refinement's, whose table
    # the first walk of either builds
    assert [s for s in built if s is f.image.simplices or s is g.image.simplices] == []
    assert len([s for s in built if s is h.image.simplices]) <= 1
    for sims in (f.image.simplices, h.image.simplices):
        assert len({id(n) for s, n in lists if s is sims}) == 1


def test_refinement_block_equal_to_base_is_the_base():
    base = square_complex()
    r = quarter_rotation()
    # the same simplices, listed backwards with their vertices reversed
    lines = format_plmap(r, "square.cx").splitlines()
    s_lines = [line for line in lines if line.startswith("s ")]
    shuffled = ["s " + " ".join(reversed(line.split()[1:])) for line in reversed(s_lines)]
    text = "\n".join([line for line in lines if not line.startswith("s ")] + shuffled)
    f = parse_plmap(text, base)
    assert f.refinement is f.base
    assert f.cell_base == tuple(range(len(base.simplices)))
    assert f == r


def test_refinement_block_differing_from_base_is_validated():
    pts = [(0, 0), (1, 0), (1, 1), (0, 1)]
    base = Complex(pts, [(0, 1, 2), (0, 2, 3)])
    other_diagonal = Complex(pts, [(0, 1, 3), (1, 2, 3)])
    text = format_plmap(identity_map(other_diagonal))
    with pytest.raises(RealizationMismatch, match="not inside"):
        parse_plmap(text, base)
    # the base's simplices on a moved centre point
    sq = square_complex()
    text = format_plmap(quarter_rotation()).replace("v 4 1/2 1/2", "v 4 1/3 1/2")
    with pytest.raises(RealizationMismatch, match="not inside"):
        parse_plmap(text, sq)
    # an equal refinement that is another object is checked in full
    f = PLMap(base, Complex(pts, base.simplices), pts)
    assert f.refinement is not f.base
    assert f.cell_base == (0, 1)


def test_equality_stops_at_the_first_differing_vertex(monkeypatch):
    """``f == g`` compares the two maps at the overlay's vertices in vertex
    order and stops at the first where they differ: at vertex k, after
    2(k + 1) piece applications, one of each map per vertex."""
    f = interior_move_map()
    pairs = [(f, identity_map(f.base)), (f, interior_move_map((F(5, 8), F(1, 2))))]
    for seed in range(3):
        g, h = bench_grid_maps(3, seed)
        pairs += [(g, h), (g, compose2d(h, g)), (compose2d(g, h), compose2d(h, g))]
    applied = []

    def counted(piece, x):
        applied.append(1)
        return apply_piece(piece, x)

    apply_piece = plmap._apply_piece
    for a, b in pairs:
        points = overlay(a.refinement, b.refinement).cells.points
        k = next(v for v, x in enumerate(points) if a.eval(x) != b.eval(x))
        assert k < len(points) - 1
        monkeypatch.setattr(plmap, "_apply_piece", counted)
        applied.clear()
        assert a != b
        assert len(applied) == 2 * (k + 1)
        monkeypatch.setattr(plmap, "_apply_piece", apply_piece)


def test_map_on_a_disconnected_base_round_trips():
    """A refinement block that is not the base is not required to be
    connected, as it tiles the base: the inverse of the two-squares swap
    has the overlay of its image with the base as its refinement."""
    base = two_squares()
    f = PLMap(base, base, [(x + 2, y) for x, y in base.points[:4]]
              + [(x - 2, y) for x, y in base.points[4:]])
    g = inverse2d(f)
    assert g.refinement is not base
    h = parse_plmap(format_plmap(g), base)
    assert h.refinement is not base and h == g and h.cell_base == g.cell_base


# -- boundary to boundary --------------------------------------------------


def _boundary_by_collinear_cover(f):
    """The oracle of boundary to boundary, the check that `PLMap(...)` ran
    while complexes could have T-junctions: the image of every boundary
    edge is tiled by the collinear overlaps of base boundary edges."""
    segments = [[f.base.points[v] for v in e] for e in boundary(f.base).of_dim(1)]
    edges = [[f.images[v] for v in e] for e in boundary(f.refinement).of_dim(1)]
    covered = [[] for _ in edges]
    for i, j in candidate_pairs([bbox(e) for e in edges], [bbox(s) for s in segments]):
        piece = collinear_overlap_on_fractions(*edges[i], *segments[j])
        if piece is not None:
            covered[i].append(tuple(segment_param(*edges[i], p) for p in piece))
    if not all(tiles_unit(intervals) for intervals in covered):
        raise InvalidComplex("boundary is not mapped into the boundary")


def _raised(check, *args):
    try:
        check(*args)
    except (InvalidComplex, RealizationMismatch) as e:
        return type(e), str(e)
    return None


def _bare_map(base, refinement, images):
    """A map object holding an image, with no check run on it."""
    f = PLMap.__new__(PLMap)
    f.base, f.refinement = base, refinement
    f.image = Complex(images, refinement.simplices)
    return f


GRID3 = grid_complex(3)
BOUNDARY3 = [k for k, (x, y) in enumerate(GRID3.points) if {x, y} & {0, 1}]
SLIDES = st.lists(st.integers(-2, 2), min_size=len(BOUNDARY3), max_size=len(BOUNDARY3))
# every side point slid by 1/24: a homeomorphism the lookup cannot settle
ALL_SLID = [0, 1, 1, 0, 1, 1, 1, 1, 0, 1, 1, 0]


def _slid_map(slides, lifted, side, sym):
    """Boundary vertices slid along their side by slides[k]/24 (corners
    too, which breaks the realization), vertex `lifted` moved off its side
    by side/24, then a symmetry of the square."""
    images = list(GRID3.points)
    for k, d in zip(BOUNDARY3, slides):
        x, y = images[k]
        images[k] = (x + F(d, 24), y) if y in (0, 1) else (x, y + F(d, 24))
    if lifted is not None:
        x, y = images[lifted]
        images[lifted] = (x, y + F(side, 24)) if y in (0, 1) else (x + F(side, 24), y)
    return [SYMMETRIES[sym](x, y) for x, y in images]


@settings(max_examples=60, deadline=None)
@given(SLIDES, st.one_of(st.none(), st.sampled_from(BOUNDARY3)),
       st.sampled_from([-1, 1]), st.integers(0, len(SYMMETRIES) - 1),
       st.booleans())
@example(ALL_SLID, None, 1, 0, False)
@example([0] * len(BOUNDARY3), 1, 1, 0, False)
@example([0] * len(BOUNDARY3), 1, -1, 3, True)
def test_boundary_lookup_matches_collinear_cover(slides, lifted, side, sym, refine):
    """On maps that slide boundary vertices along a side or lift one off
    it, every map that `PLMap(...)` accepts takes the boundary onto the
    boundary by the collinear-cover oracle, with no check of its own: its
    image is a complex that realizes the base, so it is a homeomorphism.
    A map that takes a boundary edge inside fails the realization."""
    images = _slid_map(slides, lifted, side, sym)
    refinement = Complex(GRID3.points, GRID3.simplices) if refine else GRID3
    try:
        f = _bare_map(GRID3, refinement, images)
    except InvalidComplex:
        return  # no image complex
    if _raised(_boundary_by_collinear_cover, f) is not None:
        with pytest.raises(RealizationMismatch):
            PLMap(GRID3, refinement, images)


T_BASE = Complex([(0, 0), (2, 0), (2, 2), (0, 2)], [(0, 1, 2), (0, 2, 3)])
# vertex 4 splits one of the square's two cells at the midpoint of the
# diagonal, an edge of the other cell only: a T-junction
T_POINTS, T_CELLS = T_BASE.points + ((1, 1),), [(0, 1, 4), (1, 2, 4), (0, 2, 3)]
T_REFUSED = r"vertex 4 lies in simplex \(0, 2, 3\) but is not one of its vertices"


def test_a_refinement_with_a_t_junction_is_refused():
    """The cells do not meet in a common face, so they form no simplicial
    complex: as a base, the map sliding vertex 4 to (1/2, 1/2) would tear
    the square along the diagonal, which cell (0, 2, 3) fixes."""
    with pytest.raises(InvalidComplex, match=T_REFUSED):
        Complex(T_POINTS, T_CELLS)
    with pytest.raises(InvalidComplex, match=T_REFUSED):
        t = Complex(T_POINTS, T_CELLS)
        PLMap(t, t, T_BASE.points + ((F(1, 2), F(1, 2)),))


@pytest.mark.parametrize("hanging", [(F(1, 2), F(1, 2)), (F(3, 2), F(3, 2))])
def test_a_map_that_slides_the_t_junction_vertex_is_refused(hanging):
    """Cell (0, 2, 3) would fix the diagonal while the split cells slide
    it, so (1/2, 1/2) would have two images; the refinement, and the image
    with the slid vertex still on the diagonal, are no complexes."""
    with pytest.raises(InvalidComplex, match=T_REFUSED):
        Complex(T_BASE.points + (hanging,), T_CELLS)
    with pytest.raises(InvalidComplex, match=T_REFUSED):
        PLMap(T_BASE, Complex(T_POINTS, T_CELLS), T_BASE.points + (hanging,))


def test_boundary_lookup_examples():
    PLMap(GRID3, GRID3, _slid_map(ALL_SLID, None, 1, 0))
    lifted = _slid_map([0] * len(BOUNDARY3), 1, 1, 0)
    with pytest.raises(InvalidComplex, match="boundary is not mapped"):
        _boundary_by_collinear_cover(_bare_map(GRID3, GRID3, lifted))
    with pytest.raises(RealizationMismatch, match="image area differs from base area"):
        PLMap(GRID3, GRID3, lifted)
    rotated = _slid_map([0] * len(BOUNDARY3), None, 1, 5)
    _boundary_by_collinear_cover(PLMap(GRID3, GRID3, rotated))


# -- one refinement builder ------------------------------------------------


def assert_composite_as_by_points(f, g):
    """compose2d(f, g) has the points, simplices, provenance, base cells and
    images of the point-keyed build: cells cut by `compose_cells_by_points`,
    numbered by `index_cells`, each vertex sent through g's piece, then
    f's, on the first cell that holds it."""
    h = compose2d(f, g)
    pts, sims, provenance, images = refinement_by_points(
        *compose_cells_by_points(f, g),
        lambda i, j, x: cell_map_on_fractions(f, j)(cell_map_on_fractions(g, i)(x)))
    assert (h.refinement.points, h.refinement.simplices, h.images) == (pts, sims, tuple(images))
    assert overlay_module.refine(plmap._pulled_back(f, g)).provenance == provenance
    assert h.cell_base == tuple(g.cell_base[provenance[s][0]] for s in sims)


def assert_inverse_as_by_points(f):
    """inverse2d(f) has the points, simplices, provenance, base cells and
    images of the point-keyed overlay of f's image with the base, each
    vertex pulled back on the first cell that holds it."""
    inv = inverse2d(f)
    pts, sims, provenance, images = refinement_by_points(
        *overlay_cells_by_points(f.image, f.base),
        lambda i, _, y: cell_map_on_fractions(f, i, backward=True)(y))
    assert (inv.refinement.points, inv.refinement.simplices, inv.images) == (
        pts, sims, tuple(images))
    assert plmap._common_refinement(f.image, f.base).provenance == provenance
    assert inv.cell_base == tuple(provenance[s][1] for s in sims)


def equal_by_points(f, g):
    """``f == g`` decided on the point-keyed overlay of the refinements."""
    if f.base != g.base:
        return False
    *_, same = refinement_by_points(
        *overlay_cells_by_points(f.refinement, g.refinement),
        lambda i, j, x: cell_map_on_fractions(f, i)(x) == cell_map_on_fractions(g, j)(x))
    return all(same)


def assert_builds_as_by_points(f, g):
    assert_composite_as_by_points(f, g)
    assert_inverse_as_by_points(f)
    for a, b in ((f, g), (f, f), (compose2d(f, g), compose2d(g, f)),
                 (compose2d(inverse2d(g), g), identity_map(g.base))):
        assert (a == b) == equal_by_points(a, b)


GRID_OFFSETS = st.lists(st.tuples(st.integers(-1, 1), st.integers(-1, 1)),
                        min_size=16, max_size=16)
CENTRE_OFFSETS = st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                          min_size=18, max_size=18)


@st.composite
def grid_map_pairs(draw):
    """Two maps of one grid (`support.grid_map`), each followed by a drawn
    symmetry of the square, so either may reverse orientation, and each on
    the base or on its centroid split."""
    n = draw(st.sampled_from([2, 3]))
    maps = []
    for _ in range(2):
        case = grid_map(n, draw(GRID_OFFSETS), draw(CENTRE_OFFSETS),
                        draw(st.sampled_from(["fixed", "slide"])),
                        draw(st.integers(0, len(SYMMETRIES) - 1)),
                        draw(st.sampled_from(["same", "centroids"])))
        try:
            maps.append(PLMap(*case))
        except PLError:
            assume(False)  # the moved vertices fold a cell
    return maps


@settings(max_examples=10, deadline=None)
@given(grid_map_pairs())
def test_grid_maps_build_as_by_points(maps):
    """`overlay.refine` under compose, inverse and equality gives what the
    point-keyed builders gave, on grid maps and their symmetries."""
    assert_builds_as_by_points(*maps)


def test_a_reflection_builds_as_by_points():
    """The reversal path: a g that reverses orientation, on either side."""
    f = interior_move_map()
    g = plmap_from_vertex_images(f.base, [(1 - x, y) for x, y in f.base.points])
    for a, b in ((f, g), (g, f), (g, g)):
        assert_builds_as_by_points(a, b)


@st.composite
def polyline_maps(draw):
    """Two homeomorphisms of one polyline through x-increasing corners at
    parameters 0, 1, ..., m, in the plane or projected onto a line.  Each
    takes its refinement's vertices, at parameters S, to the points at
    parameters T, paired in increasing or decreasing order; S and T have
    one size and hold every corner, so each refinement segment goes onto a
    segment inside one base segment."""
    m = draw(st.integers(1, 3))
    on_line = draw(st.booleans())
    corners = [(F(0), F(0))]
    for _ in range(m):
        x, y = corners[-1]
        corners.append((x + draw(st.integers(1, 3)), y + draw(st.integers(-2, 2))))

    def at(s):
        k = min(int(s), m - 1)
        (x0, y0), (x1, y1) = corners[k], corners[k + 1]
        x, y = x0 + (s - k) * (x1 - x0), y0 + (s - k) * (y1 - y0)
        return (x,) if on_line else (x, y)

    inner = st.sets(st.fractions(0, m, max_denominator=6).filter(lambda s: s.denominator > 1),
                    max_size=4)
    base = Complex([at(F(k)) for k in range(m + 1)], [(k, k + 1) for k in range(m)])
    maps = []
    for _ in range(2):
        params = [sorted({F(k) for k in range(m + 1)} | draw(inner)) for _ in range(2)]
        while len(params[0]) != len(params[1]):
            short = min(params, key=len)
            k = draw(st.integers(0, len(short) - 2))
            short.insert(k + 1, (short[k] + short[k + 1]) / 2)
        S, T = params
        if draw(st.booleans()):
            T = T[::-1]
        refinement = Complex([at(s) for s in S], [(k, k + 1) for k in range(len(S) - 1)])
        maps.append(PLMap(base, refinement, [at(t) for t in T]))
    return maps


@settings(max_examples=60, deadline=None)
@given(polyline_maps())
def test_polyline_maps_build_as_by_points(maps):
    """As `test_grid_maps_build_as_by_points`, for 1D maps: segments are
    kept whole and cut at the vertices of both inputs."""
    assert_builds_as_by_points(*maps)


# a small lattice, so that drawn maps often coincide
PIECE_COORD = st.fractions(min_value=-2, max_value=2, max_denominator=3)
PIECE_POINT = st.tuples(PIECE_COORD, PIECE_COORD)
PIECE_CELL = st.lists(PIECE_POINT, min_size=3, max_size=3).filter(
    lambda t: orient2_on_fractions(*t) != 0)
AFFINE_MAP = st.tuples(*[PIECE_COORD] * 6)


def _affine_image(m, p):
    return m[0] * p[0] + m[1] * p[1] + m[2], m[3] * p[0] + m[4] * p[1] + m[5]


@st.composite
def cells_with_maps(draw):
    """Two cells, each with its vertices' images under an affine map: the
    second cell is the first or another, in a drawn vertex order (so of
    either orientation), and its map the first's or another."""
    first, m = draw(PIECE_CELL), draw(AFFINE_MAP)
    second = draw(st.permutations(draw(st.one_of(st.just(first), PIECE_CELL))))
    n = draw(st.one_of(st.just(m), AFFINE_MAP))
    return ((first, [_affine_image(m, p) for p in first]),
            (second, [_affine_image(n, p) for p in second]))


@settings(max_examples=300, deadline=None)
@given(cells_with_maps())
@example((([(0, 0), (1, 0), (0, 1)], [(0, 0), (1, 0), (0, 1)]),
          ([(0, 0), (0, 1), (1, 0)], [(0, 0), (0, 1), (1, 0)])))
def test_equal_pieces_are_equal_affine_maps(pair):
    """`_solve_piece` is canonical: two cells carry equal pieces iff their
    affine maps agree at three affinely independent points (by the
    barycentric oracle), whatever the cells' vertex orders."""
    (src1, dst1), (src2, dst2) = pair
    p1, p2 = (plmap._solve_piece([homogeneous(p) for p in src], [homogeneous(p) for p in dst])
              for src, dst in pair)
    agree = all(affine(src1, dst1, x) == affine(src2, dst2, x) for x in ((0, 0), (1, 0), (0, 1)))
    assert (p1 == p2) == agree
    assert p1[-1][-1] > 0 and p2[-1][-1] > 0


def test_a_composite_applies_one_piece_per_vertex(monkeypatch):
    """compose2d reads each vertex's image off its cut point, the vertex's
    image under g: f's piece once per output vertex, g's never."""
    applied = []
    eval_in_cell = PLMap.eval_in_cell

    def counted(self, i, x):
        applied.append(self)
        return eval_in_cell(self, i, x)

    monkeypatch.setattr(PLMap, "eval_in_cell", counted)
    f, g = bench_grid_maps(3, 1)
    for a, b in ((f, g), (g, f), (f, inverse2d(f))):
        applied.clear()
        h = compose2d(a, b)
        assert sum(m is a for m in applied) == len(h.refinement.points)
        assert not any(m is b for m in applied)


def test_only_overlay_and_validation_take_the_cover_accounting(monkeypatch):
    """`inverse2d`, `compose2d` and ``==`` call `realized_pieces` neither
    directly nor through `overlay`: their inputs realize one set by
    construction.  `overlay` and `PLMap(...)` do, and raise its errors.
    (The trusted builds' check mode validates through `PLMap(...)`.)"""
    callers = []
    for module in (overlay_module, plmap):
        def spied(*args, real=module.realized_pieces):
            callers.append(sys._getframe(1).f_code.co_name)
            return real(*args)
        monkeypatch.setattr(module, "realized_pieces", spied)
    f, g = bench_grid_maps(3, 2)
    inverse2d(f)
    compose2d(f, g)
    assert f != g and compose2d(f, inverse2d(f)) == identity_map(f.base)
    assert set(callers) <= {"_assign_cells", "_check_image_exactly"}
    callers.clear()
    sq = square_complex()
    three = Complex(sq.points, sq.simplices[:3])
    with pytest.raises(RealizationMismatch, match="second input is not fully covered"):
        overlay(three, sq)
    with pytest.raises(RealizationMismatch, match="refinement does not tile the base"):
        PLMap(sq, three, three.points)
    base = two_squares()
    with pytest.raises(RealizationMismatch, match="an image cell leaves the base realization"):
        PLMap(base, base, list(base.points[:4]) + [(x, y + 5) for x, y in base.points[4:]])
    assert callers == ["overlay", "_assign_cells", "_check_image_exactly"]
