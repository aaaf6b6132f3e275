"""The command-line transcripts in README.md, replayed through cli.main.

Each `$ qskein ...` line in a ```text block is run in process, and what it
prints on stdout and stderr must equal the lines that follow it up to the
next command.  Expected blocks that are empty or elided with `...` are
skipped.  The ```json block of the README is the `system.json` its
solve-pattern example reads.
"""

import re
import shlex
from pathlib import Path

import pytest

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
