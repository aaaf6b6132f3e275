"""Memoised functions: a value recomputed after cache_clear() equals the
memoised one."""

import importlib
import pkgutil
from collections import Counter
from operator import itemgetter

import pytest

import qskein
import qskein.adams_skein
import qskein.verify
from qskein.adams_skein import (
    P, _hook_numerators, a_braid, cycle_closure, negative_cycle_expansion, positive_cycle_expansion,
)
from qskein.annulus import Q, _closure_step, _theta_key, a_in_Q_basis, closed_idempotent
from qskein.chords import LIFT_TABLE_ROWS, _lift_table, _word_class
from qskein.diagram_ring import _column_product, d
from qskein.hecke import _symmetric_group, e_lambda
from qskein.partitions import Partition
from qskein.scalars import cyclotomic_factors
from qskein.verify import DEFAULT_MAX, run_suite


def _cached_functions():
    """Every object with cache_clear in the globals of a qskein module, once."""
    found = {}
    for info in pkgutil.iter_modules(qskein.__path__):
        module = importlib.import_module("qskein." + info.name)
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                found[id(obj)] = obj
    return list(found.values())


CACHED = _cached_functions()

# (memo, its arguments)
CASES = [
    (Q, (Partition((2, 1)),)),
    (Q, (Partition((1, 1, 1)),)),
    (closed_idempotent, (Partition((2, 1)),)),
    (cycle_closure, (3, 0)),
    (cycle_closure, (0, 3)),
    (_hook_numerators, (4,)),
    (e_lambda, (Partition((2, 1)),)),
    (e_lambda, (Partition((3, 1)),)),
    (d, (5,)),
    (a_in_Q_basis, (4,)),
    (cyclotomic_factors, ((-1, 0, 0, 0, 1),)),
    (cyclotomic_factors, ((1, 3, 1),)),
    (_closure_step, ((3, 2, 0, 1),)),
    (_symmetric_group, (4,)),
    (_lift_table, (8, 3)),
    (_word_class, ((3, 4, 5, 0, 1, 2),)),
]
IDS = [fn.__name__ + str(args[0] if len(args) == 1 else args) for fn, args in CASES]


def test_the_scan_finds_every_memo():
    assert CACHED
    for fn in (P, _theta_key, _column_product, *(fn for fn, _ in CASES)):
        assert any(fn is cached for cached in CACHED), fn.__name__


def _comparable(value):
    """value with each itemgetter, which compares by identity, replaced by
    its repr, which names the items it gets."""
    if isinstance(value, tuple):
        return tuple(map(_comparable, value))
    return repr(value) if isinstance(value, itemgetter) else value


@pytest.mark.parametrize("fn,args", CASES, ids=IDS)
def test_cold_value_equals_warm(fn, args):
    warm = fn(*args)
    assert fn(*args) is warm
    for cached in CACHED:
        cached.cache_clear()
    assert fn.cache_info().currsize == 0
    cold = fn(*args)
    assert fn.cache_info().misses >= 1
    assert _comparable(cold) == _comparable(warm)


def test_every_cached_function_reports_its_table():
    # the chord-word memo is the only bounded one
    for fn in CACHED:
        want = LIFT_TABLE_ROWS if fn is _word_class else None
        assert fn.cache_info().maxsize == want, fn.__name__


def test_the_series_suite_builds_each_cycle_closure_and_expansion_once(monkeypatch):
    for cached in CACHED:
        cached.cache_clear()
    calls = Counter()

    def counted(fn):
        def wrapper(arg):
            calls[fn.__name__, str(arg)] += 1
            return fn(arg)
        return wrapper

    for module, fn in ((qskein.verify, positive_cycle_expansion), (qskein.verify, negative_cycle_expansion),
                       (qskein.adams_skein, qskein.adams_skein.closure_word)):
        monkeypatch.setattr(module, fn.__name__, counted(fn))
    run_suite("series")
    cap = DEFAULT_MAX["series"]
    # P(m) for m <= cap sums the cycle braids a_braid(i, j) with i + j < cap
    want = Counter({("closure_word", str(a_braid(i, j))): 1 for i in range(cap) for j in range(cap - i)})
    for name in ("positive_cycle_expansion", "negative_cycle_expansion"):
        want.update({(name, str(m)): 1 for m in range(1, cap + 1)})
    assert calls == want
