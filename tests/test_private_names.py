"""No plstab module reaches into another module's private names, and none
relies on an assert statement, which `python -O` strips."""

import ast
import pathlib

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "plstab"


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def private_uses(path):
    """(line, name) of each `_name` imported from a plstab module, and of each
    `obj._name` attribute read on anything but self or cls."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level > 0 or (node.module or "").split(".")[0] == "plstab":
                out += [(node.lineno, a.name) for a in node.names if _private(a.name)]
        elif isinstance(node, ast.Attribute) and _private(node.attr):
            if not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")):
                out.append((node.lineno, node.attr))
    return out


def test_no_cross_module_private_names():
    found = {p.name: private_uses(p) for p in sorted(SRC.glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {}


def unread_imports(path):
    """(line, name) of each name that a module imports and never reads
    (`from __future__` imports aside)."""
    tree = ast.parse(path.read_text())
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [(node.lineno, name) for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for name in ((a.asname or a.name).split(".")[0] for a in node.names)
            if name not in read]


def test_every_imported_name_is_read():
    """A module of the library or of the tests reads every name it imports,
    so a helper whose last caller moved away is not left imported;
    `__init__` imports to re-export."""
    modules = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    found = {f"{p.parent.name}/{p.name}": unread_imports(p) for p in modules
             if p.name != "__init__.py"}
    assert {k: v for k, v in found.items() if v} == {}


def test_the_check_sees_unread_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from __future__ import annotations\n"
                     "import os.path\n"
                     "import json as js\n"
                     "from .geometry import cross2, cross3, drop_axis as drop\n"
                     "def area(u, v) -> Point:\n"
                     "    cross3 = 0\n"
                     "    return cross2(u, v) + os.sep\n")
    assert unread_imports(probe) == [(3, "js"), (4, "cross3"), (4, "drop")]


# each clipping leaf -> (its defining module, the overlay kernel that calls it)
LEAVES = {"triangle_intersection": ("clip.py", "triangle_pieces"),
          "collinear_overlap": ("geometry.py", "segment_pieces")}


def named_calls(path, names):
    """("Class.method" or top-level name, callee) of each call of a name in
    ``names``, bare or as an attribute, nested functions included."""
    out = []
    for top in ast.parse(path.read_text()).body:
        parts = ([(f"{top.name}.{item.name}" if isinstance(item, ast.FunctionDef)
                   else top.name, item) for item in top.body]
                 if isinstance(top, ast.ClassDef) else [(getattr(top, "name", None), top)])
        for where, part in parts:
            for node in ast.walk(part):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if name in names:
                        out.append((where, name))
    return out


def test_cell_pairs_are_clipped_only_in_the_overlay_kernels():
    """Outside their defining modules, `triangle_intersection` and
    `collinear_overlap` are called only by `overlay.triangle_pieces` and
    `overlay.segment_pieces`, so every cell-pair loop goes through those."""
    def stray(path):
        return [(fn, name) for fn, name in named_calls(path, LEAVES)
                if path.name != LEAVES[name][0]
                and (path.name, fn) != ("overlay.py", LEAVES[name][1])]
    found = {p.name: stray(p) for p in sorted(SRC.glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {}


def test_the_check_sees_leaf_calls(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .clip import triangle_intersection\n"
                     "def clip(a, b):\n"
                     "    return [geometry.collinear_overlap(*a, *b), triangle_intersection(a, b)]\n"
                     "x = triangle_intersection\n")
    assert named_calls(probe, LEAVES) == [("clip", "collinear_overlap"),
                                          ("clip", "triangle_intersection")]


# the one validating 1D constructor, `BreakpointMap.__init__`, called by the
# name of any class that has it
VALIDATING = {"BreakpointMap", "CircleLift", "PLMap1D"}
# the builders of parsed or user-given maps
INPUT_BUILDERS = {"CircleLift.rotation", "PLMap1D.identity", "parse_circle_lift",
                  "parse_plmap1d"}


def canonicalizing_callers(path, names=VALIDATING):
    """Top-level function or "Class.method" of each call of a name in
    `names` (or as ``cls(...)`` in the classes of that name)."""
    out = []
    for top in ast.parse(path.read_text()).body:
        is_class = isinstance(top, ast.ClassDef)
        called = names | ({"cls"} if is_class and top.name in names else set())
        for fn in top.body if is_class else [top]:
            if not isinstance(fn, ast.FunctionDef):
                continue
            name = f"{top.name}.{fn.name}" if fn is not top else fn.name
            out += [name for node in ast.walk(fn)
                    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in called]
    return out


def test_only_input_is_canonicalized():
    """The validating constructor `BreakpointMap.__init__`, which
    `PLMap1D` and `CircleLift` extend through `super()`, serves only parsed
    or user-built maps, so no derived 1D map (compose, invert, powers) is
    canonicalized again: the merge emits canonical breakpoints and the
    results are built trusted. No module calls `canonical_breakpoints`, the
    collinearity test that the tests keep as the oracle."""
    found, oracle = set(), []
    for p in sorted(SRC.glob("*.py")):
        found.update(canonicalizing_callers(p))
        oracle += canonicalizing_callers(p, {"canonical_breakpoints"})
    assert found == INPUT_BUILDERS
    assert oracle == []


def test_the_check_sees_canonicalizing_calls(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("class PLMap1D:\n"
                     "    def __init__(self, bps):\n"
                     "        self.bps = canonical_breakpoints(bps)\n"
                     "    @classmethod\n"
                     "    def unit(cls):\n"
                     "        return cls([(0, 0), (1, 1)])\n"
                     "def inverse(f):\n"
                     "    return BreakpointMap([(y, x) for x, y in f.bps])\n"
                     "class Mat:\n"
                     "    @classmethod\n"
                     "    def unit(cls):\n"
                     "        return cls(1)\n"
                     "def trusted_inverse(f):\n"
                     "    return PLMap1D.trusted(f.bps)\n")
    assert canonicalizing_callers(probe) == ["PLMap1D.unit", "inverse"]
    assert canonicalizing_callers(probe, {"canonical_breakpoints"}) == ["PLMap1D.__init__"]


def asserts(path):
    """Line of each assert statement."""
    return [node.lineno for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Assert)]


def test_no_assert_statements():
    found = {p.name: asserts(p) for p in sorted(SRC.glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {}


def test_the_check_sees_asserts(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("x = 1\nassert x, 'never with -O'\n")
    assert asserts(probe) == [2]


def test_the_check_sees_private_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .overlay import _build, overlay\n"
                     "from plstab.complexes import _connected\n"
                     "ok = base._is_connected() and self._ok and x.__class__\n")
    assert private_uses(probe) == [(1, "_build"), (2, "_connected"), (3, "_is_connected")]


# a map's kind is its type: only the readers of a file header name it by string
KIND_STRINGS = {"interval", "circle", "complex"}
HEADER_READERS = {("cli.py", "load_map"), ("interval.py", "parse_plmap1d"),
                  ("circle.py", "parse_circle_lift")}
MATCHES = (ast.Eq, ast.NotEq, ast.In, ast.NotIn)


def _names_kind(node):
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_names_kind(e) for e in node.elts)
    return isinstance(node, ast.Constant) and node.value in KIND_STRINGS


def kind_comparisons(path):
    """(enclosing top-level name, line) of each comparison by ==, !=, in or
    not in against "interval", "circle" or "complex", alone or in a tuple."""
    out = []
    for top in ast.parse(path.read_text()).body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Compare) and any(isinstance(op, MATCHES) for op in node.ops)
                    and any(_names_kind(x) for x in [node.left] + node.comparators)):
                out.append((getattr(top, "name", None), node.lineno))
    return sorted(out, key=lambda hit: hit[1])


def test_map_kinds_are_told_apart_by_type():
    """Past the header readers, code tells interval maps, circle lifts and
    complex maps apart by their type, never by a kind string."""
    found = {p.name: [(fn, line) for fn, line in kind_comparisons(p)
                      if (p.name, fn) not in HEADER_READERS]
             for p in sorted(SRC.glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {}


def test_the_check_sees_kind_comparisons(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("class ActionSpec:\n"
                     "    def __init__(self, kind):\n"
                     "        if kind not in ('interval', 'circle', 'complex'):\n"
                     "            raise ValueError(kind)\n"
                     "def analyze(a):\n"
                     "    return a.kind == 'circle' or 'complex' != a.kind\n"
                     "def load_map(h):\n"
                     "    return h[0] == 'interval'\n"
                     "def fine(x, kind):\n"
                     "    return {'complex': 1}[x] if kind is 'circle' else x < 'interval'\n")
    assert kind_comparisons(probe) == [("ActionSpec", 3), ("analyze", 6), ("analyze", 6),
                                       ("load_map", 8)]


# the readers of coordinate tokens, which convert them through the request's
# `TokenTable` only
TOKEN_READERS = {("complexes.py", "read_complex_records"), ("plmap.py", "parse_plmap")}
CONVERTERS = {"rat", "Fraction"}


def direct_conversions(path):
    """(enclosing top-level function, line) of each call of `rat` or
    `Fraction`, by name or as an attribute, nested functions included."""
    out = []
    for top in ast.parse(path.read_text()).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in CONVERTERS:
                    out.append((getattr(top, "name", None), node.lineno))
    return out


def test_coordinates_are_converted_through_the_token_table():
    """The `.cx` and `.pm` readers call neither `rat` nor `Fraction`: each
    coordinate token is looked up in the request's `TokenTable`, which
    converts each distinct token once."""
    readers = {(p.name, top.name) for p in SRC.glob("*.py")
               for top in ast.parse(p.read_text()).body if isinstance(top, ast.FunctionDef)}
    assert TOKEN_READERS <= readers
    found = [(p.name, fn) for p in sorted(SRC.glob("*.py"))
             for fn, _ in direct_conversions(p) if (p.name, fn) in TOKEN_READERS]
    assert found == []


def test_the_check_sees_direct_conversions(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def read_complex_records(text, tokens=None):\n"
                     "    for tok in lines(text):\n"
                     "        points[i] = tuple(rat(t) for t in tok[2:])\n"
                     "def parse_plmap(text, base, tokens):\n"
                     "    def read_img(tok, line):\n"
                     "        images[i] = tuple(geometry.Fraction(t) for t in tok[2:])\n"
                     "    return [tokens[t] for t in text.split()]\n")
    assert direct_conversions(probe) == [("read_complex_records", 3), ("parse_plmap", 6)]


# the one conversion of input points, the one conversion of rows back to
# points, the one numbering of derived cells, the builder of images, the
# two incidence tables and the connectivity test, each name -> the only
# (module, "Class.method" or function) that may call it
SOLE_CALLERS = {"rational_points": {("complexes.py", "Complex.__init__"),
                                    ("plmap.py", "PLMap.__init__")},
                # the `points` view, and the readers of single points: the
                # loose clip's result, eval's value, a moved point, a
                # certificate's witness and a periodic point's witness cell
                "affine_point": {("complexes.py", "Complex.points"),
                                 ("clip.py", "clip_polygon_to_triangle"),
                                 ("plmap.py", "PLMap.eval"), ("plmap.py", "PLMap.moved_point"),
                                 ("stability.py", "certify_trivial"),
                                 ("fixedlocus.py", "fuller_search")},
                "numbered": {("overlay.py", "refine"), ("fixedlocus.py", "fixed_subcomplex")},
                "with_points": {("plmap.py", "PLMap.trusted"), ("plmap.py", "_certified_image")},
                "cell_facets": {("complexes.py", "_Incidences.facets")},
                "cell_stars": {("complexes.py", "_Incidences.stars")},
                "is_connected": {("stability.py", "certify_trivial")}}


def test_points_are_converted_and_numbered_in_one_place():
    """Only the validating constructors `Complex(...)` and `PLMap(...)`
    convert input points, so a trusted build keeps the rows it is handed;
    only the `Complex.points` view and the named readers of single points
    turn rows back into Fractions (`affine_point`); only
    `overlay.refine` and `fixedlocus.fixed_subcomplex` call
    `overlay.numbered`, so overlay, composition, inversion, equality and
    the fixed locus share one numbering.  Only `PLMap.trusted` and
    `_certified_image` build an image on its refinement's simplices
    (`with_points`), and only the shared incidence record `_Incidences`
    builds a facet or star table.  Only the certifier, which spreads triviality from one vertex
    over the stars of the base, asks whether a complex is connected."""
    found = {}
    for p in sorted(SRC.glob("*.py")):
        for where, name in named_calls(p, SOLE_CALLERS):
            found.setdefault(name, set()).add((p.name, where))
    assert found == SOLE_CALLERS


def test_the_check_sees_conversions_and_numberings(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("class Complex:\n"
                     "    def _assemble(self, points, maximal_simplices):\n"
                     "        self.points = rational_points(points)\n"
                     "def compose2d(f, g):\n"
                     "    cx, prov, order = overlay.numbered(pts, raw, pairs)\n"
                     "    return [numbered(c) for c in pts]\n"
                     "def refine(pieces):\n"
                     "    return numbered(points, cells, pairs), rational_points\n"
                     "def inverse2d(f):\n"
                     "    return f.refinement.with_points(f.images), with_points\n"
                     "def eval(f, x):\n"
                     "    return geometry.affine_point(f(x)), map(affine_point, x)\n"
                     "class Surface:\n"
                     "    def __init__(self, triangles):\n"
                     "        self.f, self.s = cell_facets(triangles), complexes.cell_stars(t, 3)\n"
                     "def parse_complex(text):\n"
                     "    return c if c.is_connected() else None\n")
    assert named_calls(probe, SOLE_CALLERS) == [
        ("Complex._assemble", "rational_points"), ("compose2d", "numbered"),
        ("compose2d", "numbered"), ("refine", "numbered"),
        ("inverse2d", "with_points"), ("eval", "affine_point"),
        ("Surface.__init__", "cell_facets"), ("Surface.__init__", "cell_stars"),
        ("parse_complex", "is_connected")]


# the functions on the path of a 1D map from its text through validation,
# composition, inversion and rotation detection to its printed lines, by
# module ("Class.method" for a method): they run on breakpoint rows and
# slope ratios, integer ratios read by `geometry.ratio`, so no `Fraction`
# is built on that path
ROW_PATH = {"interval.py": {"piece_at", "value_at", "covers", "_along", "_times",
                            "compose_breakpoints", "BreakpointMap.__init__",
                            "BreakpointMap.trusted", "PLMap1D.__init__", "compose1d",
                            "inverse1d", "read_breakpoint_lines", "format_breakpoint_lines",
                            "parse_plmap1d", "format_plmap1d"},
            "circle.py": {"CircleLift.__init__", "compose_lift", "compose_lift_rows",
                          "inverse_lift", "_displacement_side", "detect_rational_rotation",
                          "parse_circle_lift", "format_circle_lift"}}


def functions(tree):
    """("Class.method" or top-level name, node) of each function defined at
    the top level of a module or in one of its top-level classes."""
    for top in tree.body:
        if isinstance(top, ast.FunctionDef):
            yield top.name, top
        elif isinstance(top, ast.ClassDef):
            yield from ((f"{top.name}.{fn.name}", fn) for fn in top.body
                        if isinstance(fn, ast.FunctionDef))


def fraction_work(path, names):
    """(function, line) of each call of `rat` or `Fraction`, by name or as an
    attribute, and of each true division `/`, in the named functions and
    methods: `/` on ints gives a float, and on Fractions builds one."""
    out = []
    for name, fn in functions(ast.parse(path.read_text())):
        if name not in names:
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                if getattr(node.func, "id", getattr(node.func, "attr", None)) in CONVERTERS:
                    out.append((name, node.lineno))
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                out.append((name, node.lineno))
    return out


def test_the_row_merge_builds_no_fraction():
    """Parsing, the validating constructors, the merge and its helpers, its
    callers, inversion, `_displacement_side`, detection and the text
    formats run on ints: no `Fraction` or `rat` call and no `/`, so a map
    builds Fractions only when its `breakpoints` or `slopes` are read."""
    for name, names in ROW_PATH.items():
        assert names <= {fn for fn, _ in functions(ast.parse((SRC / name).read_text()))}
    found = {name: fraction_work(SRC / name, names) for name, names in ROW_PATH.items()}
    assert {k: v for k, v in found.items() if v} == {}


# the planar kernel and the derived planar path, by module: the
# homogeneous coordinates, their determinant and the edge lines of cells,
# orientation, point location, the meets-tests, the clip loop, the fan and
# its centroid, the area sums, the simple-polygon test, the box sweep, the
# refinement and numbering of derived cells, the pieces and their
# application, composition, inversion and the trusted build of their
# results run on ints; `geometry.affine_point` builds the Fractions of the
# `points` view and of single points read out
KERNEL_2D = {"geometry.py": {"homogeneous", "det3", "orient2", "hom_cmp", "line_through",
                             "hom_cell", "closed_segments_meet", "is_simple_polygon", "on_one_grid",
                             "candidate_pairs"},
             "complexes.py": {"ccw_triangles_meet", "segment_meets_ccw_triangle", "area2_sums",
                              "in_closed_cell", "Complex.orientations", "Complex.hom_points",
                              "Complex.hom_cells"},
             "clip.py": {"triangle_intersection", "convex_fan", "polygon_centroid"},
             "overlay.py": {"numbered", "refine"},
             "plmap.py": {"_pulled_back", "compose2d", "inverse2d", "_solve_piece",
                          "_apply_piece", "PLMap.eval_in_cell", "PLMap.pullback_in_cell",
                          "PLMap.trusted"}}


def test_the_planar_kernel_builds_no_fraction():
    """The side, determinant and line helpers, the one orientation
    predicate `orient2` and point order `hom_cmp`, the orientation of a
    cell and of a loose polygon, the closed-cell test, the meets-tests of
    the overlay walk and of `Complex` validation, the clip loop, the fan
    of its pieces and its centroid, the accumulation of `Complex.area2`,
    the boundary certificate's polygon test, its segment test and box
    sweep, `overlay.refine` and `overlay.numbered`, the solve and the
    application of a piece, the pullbacks of composition, `compose2d`,
    `inverse2d`, `PLMap.eval_in_cell`, `PLMap.pullback_in_cell` and
    `PLMap.trusted` make no `Fraction` or `rat` call and no `/`."""
    for name, names in KERNEL_2D.items():
        assert names <= {fn for fn, _ in functions(ast.parse((SRC / name).read_text()))}
    found = {name: fraction_work(SRC / name, names) for name, names in KERNEL_2D.items()}
    assert {k: v for k, v in found.items() if v} == {}


# the segment kernel and the fixed locus, by module: the closed-segment
# test, the collinear overlap and the one test under it, the open-segment
# test and the all-pairs fallback of `Complex` validation, the overlap
# pieces, the rays of germs and of the 1D tangent gate, and the fixed
# locus's displacements, edge cuts and isolated fixed points and the rows
# they make run on rows
ROW_KERNEL = {"geometry.py": {"on_segment", "collinear_overlap", "span_overlap",
                              "hom_barycentre", "hom_direction", "primitive_direction"},
              "complexes.py": {"seg_seg_open_meet", "Complex._check_cells_exactly"},
              "overlay.py": {"segment_pieces"},
              "tangent.py": {"build_germ"},
              "stability.py": {"_tangent_witness_1d"},
              "fixedlocus.py": {"_displacement", "_edge_cut", "_interior_fixed_point",
                                "_Refinement.cut", "_uncut_cell"}}


def test_the_segment_kernel_and_the_fixed_locus_build_no_fraction():
    """The segment predicates, `Complex` validation's all-pairs fallback,
    `segment_pieces`, the rays of `build_germ` and `_tangent_witness_1d`,
    and the fixed locus's cut helpers make no `Fraction` or `rat` call and
    no `/`; `fixedlocus`
    neither imports `Fraction` nor calls it anywhere, and the rays are
    found with no read of a `points` view but the germ's apex."""
    for name, names in ROW_KERNEL.items():
        assert names <= {fn for fn, _ in functions(ast.parse((SRC / name).read_text()))}
    found = {name: fraction_work(SRC / name, names) for name, names in ROW_KERNEL.items()}
    assert {k: v for k, v in found.items() if v} == {}
    fixedlocus = ast.parse((SRC / "fixedlocus.py").read_text())
    assert [a.name for node in ast.walk(fixedlocus) if isinstance(node, ast.ImportFrom)
            and node.module == "fractions" for a in node.names] == []
    assert fraction_work(SRC / "fixedlocus.py", {fn for fn, _ in functions(fixedlocus)}) == []
    views = [(name, fn, node.attr) for name, wanted in (("tangent.py", "build_germ"),
                                                        ("stability.py", "_tangent_witness_1d"))
             for fn, tree in functions(ast.parse((SRC / name).read_text())) if fn == wanted
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in ("points", "images")]
    assert views == [("tangent.py", "build_germ", "points")]


def test_the_check_sees_fraction_work(tmp_path):
    # the Fraction merge that the row merge replaced divides by g's slope,
    # and the Fraction clip divides by the difference of two areas
    oracle = pathlib.Path(__file__).resolve().parent / "support.py"
    assert [fn for fn, _ in fraction_work(oracle, {"fraction_merge"})] == ["fraction_merge"]
    assert [fn for fn, _ in fraction_work(oracle, {"clip_halfplane_on_fractions"})] == [
        "clip_halfplane_on_fractions"]
    probe = tmp_path / "probe.py"
    probe.write_text("def compose_breakpoints(rows):\n"
                     "    return [fractions.Fraction(xn, xd) for xn, xd in rows]\n"
                     "def _displacement_side(rows, p):\n"
                     "    def side(y):\n"
                     "        y /= 2\n"
                     "        return rat(y) > p\n"
                     "    return side(rows[0][2] // rows[0][3])\n"
                     "class BreakpointMap:\n"
                     "    def __init__(self, bps):\n"
                     "        self.rows = [(rat(x), rat(y)) for x, y in bps]\n"
                     "    @property\n"
                     "    def breakpoints(self):\n"
                     "        return [Fraction(*row[:2]) / 2 for row in self.rows]\n")
    assert fraction_work(probe, ROW_PATH["interval.py"] | ROW_PATH["circle.py"]) == [
        ("compose_breakpoints", 2), ("_displacement_side", 5), ("_displacement_side", 6),
        ("BreakpointMap.__init__", 10), ("BreakpointMap.__init__", 10)]
    probe.write_text("def ccw_triangles_meet(t1, t2):\n"
                     "    return all(Fraction(*h[::2]) > 0 for h in t1.homs)\n"
                     "def affine_point(h):\n"
                     "    return Fraction(h[0], h[2]), h[1] / h[2]\n")
    assert fraction_work(probe, KERNEL_2D["complexes.py"]) == [("ccw_triangles_meet", 2)]


def named_reads(path, names):
    """("Class.method" or top-level name, name) of each read of a name in
    ``names``, bare or as an attribute: a call, or the name passed on as a
    value, as to `map`."""
    out = []
    for top in ast.parse(path.read_text()).body:
        parts = ([(f"{top.name}.{item.name}" if isinstance(item, ast.FunctionDef)
                   else top.name, item) for item in top.body]
                 if isinstance(top, ast.ClassDef) else [(getattr(top, "name", None), top)])
        for where, part in parts:
            for node in ast.walk(part):
                name = (node.id if isinstance(node, ast.Name) else
                        node.attr if isinstance(node, ast.Attribute) else None)
                if name in names and isinstance(node.ctx, ast.Load):
                    out.append((where, name))
    return out


# the conversions of points to `homogeneous` rows, each (module, function)
# that may make one: the validating constructors' inputs (and the triangle
# area of loose points that the tests share), `PLMap.eval`'s argument, and
# the loose segments, polygons and points of `between`, `hom_cell` and
# `point_in_triangle`
HOMOGENEOUS_READERS = {("complexes.py", "Complex._validate"),
                       ("plmap.py", "_certified_image"), ("plmap.py", "PLMap.eval"),
                       ("geometry.py", "between"), ("geometry.py", "hom_cell"),
                       ("geometry.py", "area2"), ("clip.py", "point_in_triangle")}


def test_points_become_rows_and_rows_points_in_named_places():
    """Past the named places, points stay rows: only those read
    `homogeneous`, by a call or by handing it on (to `map`), and only
    `SOLE_CALLERS["affine_point"]` read `affine_point`, so no helper
    converts a whole list behind a `map`."""
    found = {}
    for p in sorted(SRC.glob("*.py")):
        for where, name in named_reads(p, {"homogeneous", "affine_point"}):
            found.setdefault(name, set()).add((p.name, where))
    assert found == {"homogeneous": HOMOGENEOUS_READERS,
                     "affine_point": SOLE_CALLERS["affine_point"]}


def test_the_check_sees_reads_of_conversions(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .geometry import homogeneous\n"
                     "class Complex:\n"
                     "    def hom_points(self):\n"
                     "        return list(map(homogeneous, self.points))\n"
                     "def refine(pieces):\n"
                     "    homogeneous = 1\n"
                     "    return geometry.affine_point(pieces), homogeneous\n")
    assert named_reads(probe, {"homogeneous", "affine_point"}) == [
        ("Complex.hom_points", "homogeneous"), ("refine", "homogeneous"),
        ("refine", "affine_point")]


def imports_of_test_modules(tests=TESTS):
    """(importing module, imported module) for each import of a `test_`
    module by a module of the test directory, `conftest` aside."""
    out = []
    for p in sorted(tests.glob("*.py")):
        if p.name == "conftest.py":
            continue
        for node in ast.walk(ast.parse(p.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            out += [(p.name, n) for n in names if n.split(".")[0].startswith("test_")]
    return out


def test_no_test_module_imports_another():
    """Helpers that more than one test module uses live in `support`, or
    in `strategies` if they are hypothesis strategies."""
    assert imports_of_test_modules() == []


def test_the_check_sees_test_module_imports(tmp_path):
    (tmp_path / "test_a.py").write_text("import test_b, os\n"
                                        "def f():\n"
                                        "    from test_c import grid\n")
    (tmp_path / "support.py").write_text("from support_x import y\nimport test_d.sub\n")
    (tmp_path / "conftest.py").write_text("import test_a\n")
    assert imports_of_test_modules(tmp_path) == [("support.py", "test_d.sub"),
                                             ("test_a.py", "test_b"), ("test_a.py", "test_c")]
