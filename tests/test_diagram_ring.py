"""The free column-generator ring, its diagram basis, and power sums."""

from functools import cache

import pytest

import qskein.diagram_ring
from qskein.diagram_ring import (
    PSI_TERM_CAP, CPoly, DiagramVector, _column_product, _over_term_cap, d, gen, phi, phi_inverse, psi,
)
from qskein.partitions import Partition, partitions_of
from qskein.scalars import Scalar


def test_generator_printing():
    assert str(gen(2)) == "c2"
    assert str(gen(0)) == "1"
    assert str(gen(1) ** 2 - gen(2).scale(2)) == "c1^2 - 2*c2"
    assert str(gen(1) * gen(2)) == "c1*c2"
    assert str(CPoly.zero()) == "0"


def test_cpoly_ring():
    p = gen(1) + gen(2)
    q = gen(2) - gen(3)
    r = gen(1).scale(Scalar.monomial(0, 0, 1))
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert p * CPoly.one() == p
    assert (gen(1) ** 3).coeff((1, 1, 1)) == Scalar.one()


def test_phi_sends_generators_to_columns():
    assert phi(gen(1)) == DiagramVector.term(Partition((1,)))
    assert phi(gen(3)) == DiagramVector.term(Partition((1, 1, 1)))
    assert phi(gen(1) ** 2) == DiagramVector.term(Partition((2,))) + DiagramVector.term(
        Partition((1, 1))
    )


def test_d_recurrence_values():
    assert d(0) == CPoly.one()
    assert d(1) == gen(1)
    assert phi(d(2)) == DiagramVector.term(Partition((2,)))
    assert phi(d(3)) == DiagramVector.term(Partition((3,)))
    with pytest.raises(ValueError):
        d(-1)


def test_reciprocal_series():
    for m in range(1, 7):
        acc = CPoly.zero()
        for k in range(m + 1):
            term = gen(k) * d(m - k)
            acc = acc + (-term if k % 2 else term)
        assert acc.is_zero(), m


def test_hook_pieri():
    for k in range(1, 6):
        for l in range(1, 7 - k):
            want = DiagramVector.term(Partition.hook(k + 1, l)) + DiagramVector.term(
                Partition.hook(k, l + 1)
            )
            assert phi(gen(k) * d(l)) == want, (k, l)


def test_phi_inverse_round_trip():
    for n in range(1, 6):
        for lam in partitions_of(n):
            vec = DiagramVector.term(lam)
            assert phi(phi_inverse(vec)) == vec, lam


def test_phi_is_ring_map():
    p = gen(1) + gen(2).scale(Scalar.monomial(1, 0, 0))
    q = gen(1) ** 2 - gen(3)
    assert phi(p * q) == phi(p) * phi(q)
    assert phi(p + q) == phi(p) + phi(q)


def test_psi_values():
    p1, v1 = psi(1)
    assert p1 == gen(1)
    assert v1 == DiagramVector.term(Partition((1,)))
    p2, v2 = psi(2)
    assert p2 == gen(1) ** 2 - gen(2).scale(2)
    assert v2 == DiagramVector.term(Partition((2,))) - DiagramVector.term(Partition((1, 1)))
    for m in range(1, 7):
        cp, dv = psi(m)
        assert phi(cp) == dv, m
    with pytest.raises(ValueError):
        psi(0)


def test_power_sum_derivative_identities():
    from qskein.adams_skein import first_difference, reweight, series_c, series_d, series_power_sums, truncate

    order = 6
    psum = series_power_sums(order)
    c_deriv = reweight(series_c(order + 1), lambda w: w)
    d_deriv = reweight(series_d(order + 1), lambda w: w)
    assert first_difference(psum, -truncate(c_deriv * series_d(order), order), 1) is None
    assert first_difference(psum, truncate(d_deriv * series_c(order), order), 1) is None


def test_reweight_is_the_term_by_term_derivative():
    # (-1)^k k c_k and l d_l at X^(k-1), X^(l-1): the derivatives of C and D
    from qskein.adams_skein import reweight, series_c, series_d
    from qskein.scalars import quantum_int

    order = 6
    c_deriv = sum((gen(k).scale((-1) ** k * k) for k in range(1, order + 1)), CPoly.zero())
    d_deriv = sum((d(l).scale(l) for l in range(1, order + 1)), CPoly.zero())
    assert reweight(series_c(order + 1), lambda w: w) == c_deriv
    assert reweight(series_d(order + 1), lambda w: w) == d_deriv
    c_qderiv = sum((gen(k).scale(Scalar(quantum_int(k)) * (-1) ** k) for k in range(1, order + 1)), CPoly.zero())
    d_qderiv = sum((d(l).scale(Scalar(quantum_int(l))) for l in range(1, order + 1)), CPoly.zero())
    assert reweight(series_c(order + 1), quantum_int) == c_qderiv
    assert reweight(series_d(order + 1), quantum_int) == d_qderiv


def test_psi_has_one_term_per_partition():
    for m in range(1, 13):
        assert len(psi(m)[0].terms) == sum(1 for _ in partitions_of(m)), m


def _partition_counts_to_the_cap(m):
    """p(0), ..., p(m) by Euler's pentagonal recurrence, stopping at the first
    one over PSI_TERM_CAP: the count _over_term_cap kept before it counted
    partitions_of."""
    p = [1]
    for n in range(1, m + 1):
        total = 0
        k = 1
        while k * (3 * k - 1) // 2 <= n:
            sign = 1 if k % 2 else -1
            total += sign * p[n - k * (3 * k - 1) // 2]
            if k * (3 * k + 1) // 2 <= n:
                total += sign * p[n - k * (3 * k + 1) // 2]
            k += 1
        p.append(total)
        if total > PSI_TERM_CAP:
            break
    return p


def test_over_term_cap_matches_the_pentagonal_count():
    for m in range(41):
        assert _over_term_cap(m) == (_partition_counts_to_the_cap(m)[-1] > PSI_TERM_CAP), m
    assert _partition_counts_to_the_cap(12)[-1] == sum(1 for _ in partitions_of(12)) == 77


def test_psi_term_cap_refuses_before_building(monkeypatch):
    # p(32) = 8,349 and p(33) = 10,143
    assert PSI_TERM_CAP == 10_000
    assert not _over_term_cap(32)
    assert _over_term_cap(33)

    def unreachable(l):
        raise AssertionError("d(%d) built past the cap" % l)

    monkeypatch.setattr(qskein.diagram_ring, "d", unreachable)
    for m in (33, 40, 300, 10**12):
        with pytest.raises(ValueError, match="more than the cap of 10000"):
            psi(m)


@cache
def _column_product_by_suffixes(key):
    """phi of a column monomial as its first column times the image of the
    rest, every suffix memoised shortest first: the oracle for phi."""
    if not key:
        return DiagramVector.one()
    for i in range(len(key) - 1, 0, -1):
        _column_product_by_suffixes(key[i:])
    return _column_product_by_suffixes(key[1:]) * DiagramVector.term(Partition((1,) * key[0]))


def test_phi_matches_the_suffix_memo():
    for n in range(8):
        for lam in partitions_of(n):
            assert phi(CPoly.term(lam.parts)) == _column_product_by_suffixes(lam.parts), lam


def test_column_product_memoises_whole_keys_only(monkeypatch):
    def no_recursion(key):
        raise AssertionError("recursed on %r" % (key,))

    _column_product.cache_clear()
    monkeypatch.setattr(qskein.diagram_ring, "_column_product", no_recursion)
    value = _column_product((3, 2, 2, 1))
    assert _column_product.cache_info().currsize == 1
    assert value == _column_product_by_suffixes((3, 2, 2, 1))
