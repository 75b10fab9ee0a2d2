"""Every public name of the library, each name that `plstab/__init__.py`
re-exports and each module-level `def` and `class` without a leading
underscore, has a caller in the library, or sits on the allowlist below
with the reason it is public.  So does every public method of a
module-level class: the library reads it as an attribute.  A private
name has a reader in the library with no allowlist: a module-level `def`
or `class` with a leading underscore is loaded by name or read as an
attribute, and a private method (dunders aside) is read as an attribute."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "plstab"

ACCEPTANCE = "imported by tests/test_acceptance.py"
# public name -> why it stays public with no caller in src/plstab
ALLOWED = {
    "commutator": ACCEPTANCE,
    "fan_of_star": ACCEPTANCE,
    "one_sided_derivative": ACCEPTANCE,
    "plmap_from_vertex_images": ACCEPTANCE,
    "verify_relators": "ROADMAP item 3: certify_trivial checks the relators",
    "compose_germs": "ROADMAP item 9: the germ checks at a frontier vertex",
    "germs_equal": "ROADMAP item 9: the germ checks at a frontier vertex",
    "ray_map": "ROADMAP item 9: germs at any vertex of the common refinement",
    "tangent_sphere_type": "ROADMAP item 9: germs at any vertex of the common refinement",
    "word_ball": "ROADMAP item 4: finite_image searches words breadth first",
    "boundary": "a spec operation, like star and link; the boundary-to-boundary oracle "
                "of tests/test_plmap.py reads it",
    "point_in_triangle": ACCEPTANCE,
    "triangle_area2": ACCEPTANCE,
    "clip_polygon_to_triangle": "bench/spans.py traces the clipping layer by this name",
    "identity_germ": "the unit of compose_germs, for the germ checks of ROADMAP item 9",
    "format_presentation": "writes the text that parse_presentation reads",
    "is_trivial_on_tangent_sphere": ACCEPTANCE,
    "between": ACCEPTANCE,
}
# Class.method -> why the library never reads it as an attribute
ALLOWED_METHODS = {
    "RationalRotation.periodic_point": "the exact witness of a found rotation number, solved "
                                       "when read; tests/test_circle.py reads it",
    "_Parser.error": "argparse calls it, on the name it overrides, for a usage error",
    "PLMap.images": "the `Fraction` view of a map's image points, for callers of the "
                    "library and the tests; the library itself reads the image's rows",
}


def exported(init):
    """Names that an `__init__` module imports from its submodules."""
    return [a.asname or a.name for node in ast.parse(init.read_text()).body
            if isinstance(node, ast.ImportFrom) for a in node.names]


def public(name):
    return not name.startswith("_")


def private(name):
    """A leading underscore, and no dunder."""
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def defined(paths, kind=public):
    """The module-level `def` and `class` names of the given modules, of
    the kind asked for: public, or private."""
    return [node.name for path in paths for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and kind(node.name)]


def methods(paths, kind=public):
    """`Class.method` for each method of the kind asked for (a property or
    class method too) of each module-level class."""
    return [f"{node.name}.{item.name}" for path in paths
            for node in ast.parse(path.read_text()).body if isinstance(node, ast.ClassDef)
            for item in node.body if isinstance(item, ast.FunctionDef) and kind(item.name)]


def attributes(paths):
    """Every name read as an attribute, `x.name`, in the given modules."""
    return {node.attr for path in paths for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)}


# the nodes that open a scope of their own
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
          ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def bound_in(scope):
    """The names a function or comprehension binds itself: its parameters,
    and the names it stores (assignment, loop and comprehension targets),
    not those of the scopes nested in it."""
    args = getattr(scope, "args", None)
    names = set() if args is None else {
        a.arg for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
        if a is not None}
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif not isinstance(node, SCOPES):
            todo.extend(ast.iter_child_nodes(node))
    return names


def loads(node, bound, out):
    """Add to ``out`` each name loaded under ``node`` that is not in
    ``bound`` or bound by a scope around the load."""
    if isinstance(node, SCOPES):
        bound = bound | bound_in(node)
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            if child.id not in bound:
                out.add(child.id)
        else:
            loads(child, bound, out)


def referenced(paths):
    """Every name loaded as a bare name in the given modules, where no
    enclosing function or comprehension binds it: a module-level name is
    read where it is loaded so, not where a name is stored, an attribute (a
    field, a method) shares it or a local of the same name is read; a `def`
    or `class` statement does not reference its own name."""
    out = set()
    for path in paths:
        loads(ast.parse(path.read_text()), frozenset(), out)
    return out


def test_every_public_name_has_a_caller_or_a_reason():
    modules = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    public = set(exported(SRC / "__init__.py")) | set(defined(modules))
    used = referenced(modules)
    assert sorted(n for n in public if n not in used and n not in ALLOWED) == []
    # the allowlist holds no name that was dropped or has since found a caller
    assert sorted(n for n in ALLOWED if n not in public or n in used) == []


def test_every_public_method_is_read_or_has_a_reason():
    modules = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    public = methods(modules)
    read = attributes(modules)
    assert sorted(m for m in public
                  if m.split(".")[1] not in read and m not in ALLOWED_METHODS) == []
    assert sorted(m for m in ALLOWED_METHODS
                  if m not in public or m.split(".")[1] in read) == []


def unread_private_names(paths):
    """The private module-level names that no module loads by name or reads
    as an attribute, and the private methods that none reads as one."""
    attrs = attributes(paths)
    read = referenced(paths) | attrs
    return ([n for n in defined(paths, private) if n not in read]
            + [m for m in methods(paths, private) if m.split(".")[1] not in attrs])


def test_every_private_name_has_a_reader():
    assert unread_private_names(sorted(SRC.glob("*.py"))) == []


def test_the_check_sees_unread_private_names(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("def _read():\n    return _Used().__len__()\n"
                   "def _unread():\n    return _read()\n"
                   "class _Used:\n    def __len__(self):\n        return self._size()\n"
                   "    def _size(self):\n        return 0\n"
                   "    def _hidden(self):\n        pass\n"
                   "def api(m):\n    return m._attr_read()\n"
                   "def _attr_read():\n    pass\n")
    assert defined([mod], private) == ["_read", "_unread", "_Used", "_attr_read"]
    assert methods([mod], private) == ["_Used._size", "_Used._hidden"]
    assert unread_private_names([mod]) == ["_unread", "_Used._hidden"]


def test_the_check_sees_uncalled_exports(tmp_path):
    init, mod = tmp_path / "__init__.py", tmp_path / "mod.py"
    init.write_text("from .mod import called, uncalled as alias\n"
                    "from .other import Used\n")
    mod.write_text("def called():\n    return Used\n"
                   "def uncalled():\n    return called()\n"
                   "class Kept:\n    def method(self):\n        pass\n"
                   "    def unread(self):\n        return self.method\n"
                   "    def _hidden(self):\n        pass\n"
                   "def _private():\n    pass\n")
    assert exported(init) == ["called", "alias", "Used"]
    assert defined([mod]) == ["called", "uncalled", "Kept"]
    assert {"called", "Used"} <= referenced([mod])
    assert "uncalled" not in referenced([mod])
    assert methods([mod]) == ["Kept.method", "Kept.unread"]
    assert "method" in attributes([mod]) and "unread" not in attributes([mod])
    # a stored name, a field or an attribute of the same name reads no def
    stores = tmp_path / "stores.py"
    stores.write_text("def power(f, k):\n    return f\n"
                      "class Rotation:\n    power: int = 0\n"
                      "def period(r):\n    power = r.power\n    return r\n")
    assert "power" not in referenced([stores])
    # a local of the same name reads no def: a parameter, an assignment
    # target or a comprehension target, in its function or one around it
    local = tmp_path / "local.py"
    local.write_text("def pt(*coords):\n    return coords\n"
                     "def gate(base, p):\n    pt = base[p]\n    return pt\n"
                     "def shift(pt):\n    return lambda: pt\n"
                     "def firsts(cells):\n    return [pt[0] for pt in cells]\n")
    assert "pt" not in referenced([local])
    # a load where no scope around it binds the name still reads the def
    caller = tmp_path / "caller.py"
    caller.write_text("def gate(base, p):\n    pt = base[p]\n    return pt\n"
                      "def origin():\n    return pt(0, 0)\n")
    assert "pt" in referenced([caller])
