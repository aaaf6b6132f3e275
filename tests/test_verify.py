"""The verification suites themselves: coverage, determinism, reporting."""

import hashlib
import re

import pytest

from qskein.verify import DEFAULT_MAX, SUITE_ORDER, run_suite, suite_names


def test_suite_names():
    assert suite_names() == SUITE_ORDER + ["all"]
    assert set(DEFAULT_MAX) == set(SUITE_ORDER)


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("nope")


def test_default_report_passes_and_repeats():
    rows1 = run_suite("all")
    rows2 = run_suite("all")
    assert rows1 == rows2
    assert all(ok for ok, label in rows1), [label for ok, label in rows1 if not ok]
    assert len(rows1) == 283
    digest = hashlib.sha256("\n".join(label for _, label in rows1).encode()).hexdigest()
    assert digest == "dbce9d1accf45fd8607653a52e642754dd47b201913c0b32187289c9e9fa7a70"


def test_report_at_size_four():
    # the full report at --max 4 is deterministic down to the byte
    rows = run_suite("all", 4)
    assert all(ok for ok, label in rows), [label for ok, label in rows if not ok]
    assert len(rows) == 158
    digest = hashlib.sha256("\n".join(label for _, label in rows).encode()).hexdigest()
    assert digest == "b4ec3f7312fd8099baee1d28309d8948f8150b062fc6e9f294f92e28dc85390f"


def test_idempotents_at_size_six():
    rows = run_suite("idempotents", 6)
    assert len(rows) == 64
    assert all(ok for ok, label in rows), [label for ok, label in rows if not ok]


def test_the_series_rows_name_the_first_failure(monkeypatch):
    import qskein.verify
    from qskein.adams_skein import positive_cycle_expansion, series_plus
    from qskein.annulus import AnnulusElement, a_gen

    def wrong_at_three(m):
        return positive_cycle_expansion(m) + (a_gen(3) if m == 3 else AnnulusElement.zero())

    def extra_from_four(order):
        return series_plus(order) + (a_gen(4) if order >= 4 else AnnulusElement.zero())

    monkeypatch.setattr(qskein.verify, "positive_cycle_expansion", wrong_at_three)
    monkeypatch.setattr(qskein.verify, "series_plus", extra_from_four)
    failed = [text for ok, text in run_suite("series") if not ok]
    assert failed == [
        "series positive-cycle m=3",
        "series positive-cycle-expansion (fails at m=3)",
        "series plus-factorization (first mismatch at degree 3)",
    ]


def test_the_docstring_lists_every_suite_and_default_cap():
    import qskein.verify

    table = re.findall(r"^  (\S+) +(\d+) ", qskein.verify.__doc__, re.M)
    assert [name for name, _ in table] == SUITE_ORDER
    assert {name: int(cap) for name, cap in table} == DEFAULT_MAX
