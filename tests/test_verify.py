"""The verification suites themselves: coverage, determinism, reporting."""

import hashlib

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
