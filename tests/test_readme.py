"""The command-line transcripts in README.md, replayed through cli.main.

Each `$ qskein ...` line in a ```text block is run in process, and what it
prints on stdout and stderr must equal the lines that follow it up to the
next command.  Expected blocks that are empty or elided with `...` are
skipped.  The ```json block of the README is the `system.json` its
solve-pattern example reads.  Each memo the README names is a functools
cache in the package.
"""

import functools
import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import qskein
from qskein.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(lang):
    return re.findall(r"^```%s\n(.*?)^```$" % lang, README.read_text(encoding="utf-8"), re.M | re.S)


def _examples():
    out = []
    for block in _blocks("text"):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, expected = chunk.partition("\n")
            if expected.strip() and "..." not in expected:
                out.append((command, expected))
    return out


EXAMPLES = _examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 10


@pytest.mark.parametrize("command,expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example(command, expected, tmp_path, monkeypatch, capsys):
    (system,) = _blocks("json")
    (tmp_path / "system.json").write_text(system, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    argv = shlex.split(command)
    assert argv[0] == "qskein"
    code = main(argv[1:])
    captured = capsys.readouterr()
    assert captured.out + captured.err == expected
    assert code == (2 if captured.err.startswith("error:") else 0)


def _memo_names():
    """The names in backticks in the README's list of memos, from "Every memo
    in the package" to "so each answers", other than functools' own."""
    text = " ".join(README.read_text(encoding="utf-8").split())
    start = text.index("Every memo in the package")
    listed = re.findall(r"`([A-Za-z_][\w.]*)`", text[start:text.index("so each answers", start)])
    return [name for name in listed if not name.startswith("functools.")]


def test_every_memo_the_readme_names_is_a_functools_cache():
    wrapper = type(functools.cache(len))
    modules = {info.name: importlib.import_module("qskein." + info.name)
               for info in pkgutil.iter_modules(qskein.__path__)}
    names = _memo_names()
    assert "chords._word_class" in names and len(names) >= 10
    for name in names:
        module, _, attr = name.rpartition(".")
        # a bare name is looked up in every module of the package
        found = {id(obj): obj for obj in (getattr(m, attr, None) for m in
                                          ([modules[module]] if module else modules.values()))
                 if obj is not None}
        assert len(found) == 1, name
        (obj,) = found.values()
        # the one name in the list that is not a memo is the chord-word memo's bound
        assert type(obj) is wrapper or name == "chords.LIFT_TABLE_ROWS", name
