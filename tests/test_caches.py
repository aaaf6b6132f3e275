"""Memoised functions: a value recomputed after cache_clear() equals the
memoised one."""

import pytest

from qskein.adams_skein import P
from qskein.annulus import Q, a_in_Q_basis
from qskein.diagram_ring import _column_product, _phi_inverse_partition, d
from qskein.hecke import e_lambda
from qskein.partitions import Partition, _lr_cached
from qskein.perms import reduced_word
from qskein.scalars import cyclotomic, cyclotomic_factors

CACHED = (P, Q, a_in_Q_basis, _column_product, _phi_inverse_partition, d, e_lambda,
          _lr_cached, reduced_word, cyclotomic, cyclotomic_factors)

CASES = [
    (Q, Partition((2, 1))),
    (Q, Partition((1, 1, 1))),
    (e_lambda, Partition((2, 1))),
    (e_lambda, Partition((3, 1))),
    (d, 5),
    (a_in_Q_basis, 4),
    (cyclotomic_factors, (-1, 0, 0, 0, 1)),
    (cyclotomic_factors, (1, 3, 1)),
    (reduced_word, (2, 0, 3, 1)),
]


@pytest.mark.parametrize("fn,arg", CASES, ids=[f"{fn.__name__}{arg}" for fn, arg in CASES])
def test_cold_value_equals_warm(fn, arg):
    warm = fn(arg)
    assert fn(arg) is warm
    for cached in CACHED:
        cached.cache_clear()
    assert fn.cache_info().currsize == 0
    cold = fn(arg)
    assert fn.cache_info().misses >= 1
    assert cold == warm


def test_every_cached_function_reports_its_table():
    for fn in CACHED:
        info = fn.cache_info()
        assert info.maxsize is None, fn.__name__
