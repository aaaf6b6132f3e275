"""The package imports nothing outside the standard library, imports only
at module top, and memoises through functools.cache only."""

import ast
import re
import sys
from pathlib import Path

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
