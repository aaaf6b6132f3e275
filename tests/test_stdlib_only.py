"""The package imports nothing outside the standard library, imports only
at module top, memoises through functools caches only, keeps no private
module-level name that nothing else in it refers to, and imports no private
name from one of its modules into another."""

import ast
import functools
import importlib
import pkgutil
import re
import sys
from pathlib import Path

import qskein

SRC = Path(__file__).resolve().parent.parent / "src" / "qskein"

HAND_ROLLED_MEMOS: set[str] = set()


def _modules():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    return [(path.name, ast.parse(path.read_text(encoding="utf-8"))) for path in paths]


def test_absolute_imports_are_stdlib():
    outside = []
    for name, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                roots = [alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.partition(".")[0]]
            else:
                continue
            outside += [(name, root) for root in roots if root not in sys.stdlib_module_names]
    assert outside == []


def test_only_the_named_memo_dicts_remain():
    found = set()
    for _, tree in _modules():
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            for target in targets:
                if isinstance(target, ast.Name) and re.fullmatch(r"_\w*_cache", target.id):
                    found.add(target.id)
    assert found == HAND_ROLLED_MEMOS


def test_every_memo_is_a_functools_cache():
    wrapper = type(functools.cache(len))
    modules = [qskein] + [importlib.import_module("qskein." + info.name) for info in pkgutil.iter_modules(qskein.__path__)]
    memos = {(module.__name__, name): obj for module in modules for name, obj in vars(module).items()
             if hasattr(obj, "cache_clear")}
    assert memos
    assert sorted(key for key, obj in memos.items() if type(obj) is not wrapper) == []


def test_imports_sit_at_module_top():
    inside = []
    for name, tree in _modules():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inside += [
                    (name, func.name, node.lineno)
                    for node in ast.walk(func)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert inside == []


def test_every_private_module_name_is_used():
    defined = {}
    used = set()
    for name, tree in _modules():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            defined.update({(name, n): node.lineno for n in names if n.startswith("_") and not n.startswith("__")})
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.level:
                used.update(alias.name for alias in node.names)
    assert sorted(key for key in defined if key[1] not in used) == []


def test_no_module_imports_a_private_name_from_another():
    crossing = []
    for name, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                crossing += [(name, node.module, alias.name) for alias in node.names if alias.name.startswith("_")]
    assert crossing == []
