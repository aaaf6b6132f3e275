"""No dead definitions in the package: every module-level function or
class, and every method that is not a dunder, is read somewhere in the
package outside its own body and outside __init__.py, exported in
qskein.__all__, or a public function of the JSON API.  So is every name a
module-level assignment binds, __version__ and __all__ aside: each
constant is defined in one place and used."""

import ast
from pathlib import Path

import qskein
import qskein.jsonio

SRC = Path(qskein.__file__).parent


def _trees():
    return {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _definitions(tree):
    """(name, node) for each module-level def or class and each method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not (item.name.startswith("__") and item.name.endswith("__")):
                        yield item.name, item


def _constants(tree):
    """(name, node) for each name a module-level assignment binds."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                    yield name.id, node


def _loads(trees):
    """name -> [(file, line)] of every Name or Attribute read outside __init__.py."""
    out: dict = {}
    for file, tree in trees.items():
        if file == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.setdefault(node.id, []).append((file, node.lineno))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                out.setdefault(node.attr, []).append((file, node.lineno))
    return out


def _json_api():
    return {name for name, obj in vars(qskein.jsonio).items()
            if callable(obj) and not name.startswith("_") and getattr(obj, "__module__", None) == "qskein.jsonio"}


def dead_definitions(definitions=_definitions, kept=()):
    trees = _trees()
    loads = _loads(trees)
    kept = set(qskein.__all__) | _json_api() | set(kept)
    dead = []
    for file, tree in trees.items():
        for name, node in definitions(tree):
            if name in kept:
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any(where != file or line not in own for where, line in loads.get(name, ())):
                dead.append("%s:%d %s" % (file, node.lineno, name))
    return dead


def test_the_scan_sees_definitions_and_their_reads():
    trees = _trees()
    names = {name for tree in trees.values() for name, _ in _definitions(tree)}
    assert {"epsilon_plane", "scalar_sum", "_format_key", "_unit_key", "_encode_sum"} <= names
    assert "__init__" not in names
    # a read inside the definition's own body does not keep it
    tree = ast.parse("def f(n):\n    return f(n - 1)\n\n\ndef g():\n    return 1\n\n\nx = g()\n")
    loads = _loads({"m.py": tree})
    assert [line for _, line in loads["f"]] == [2]
    assert [line for _, line in loads["g"]] == [9]


def test_every_definition_is_used_exported_or_json_api():
    assert dead_definitions() == []


def test_the_scan_sees_module_constants():
    trees = _trees()
    names = {name for tree in trees.values() for name, _ in _constants(tree)}
    assert {"PSI_TERM_CAP", "LR_STRIP_CAP", "ONE_LP", "Triple", "_SUITES", "__version__"} <= names
    tree = ast.parse("A = 1\nB: int = A\nC, (D, E) = 2, (3, 4)\nF = {}\nF[0] = 1\n")
    assert [name for name, _ in _constants(tree)] == ["A", "B", "C", "D", "E", "F"]


def test_every_module_constant_is_used_or_exported():
    # __all__ is the export list itself
    assert dead_definitions(_constants, kept={"__version__", "__all__"}) == []
