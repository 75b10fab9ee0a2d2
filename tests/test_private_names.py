"""No plstab module reaches into another module's private names."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "plstab"


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


def test_the_check_sees_private_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .overlay import _build, overlay\n"
                     "from plstab.complexes import _connected\n"
                     "ok = base._is_connected() and self._ok and x.__class__\n")
    assert private_uses(probe) == [(1, "_build"), (2, "_connected"), (3, "_is_connected")]
