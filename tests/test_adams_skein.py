"""Power sums of cycle closures, series identities, torus knots, and the
pattern solver."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qskein.adams_skein
from qskein.adams_skein import (
    Inconsistent,
    P,
    PatternSystem,
    TORUS_HOOK_CAP,
    TORUS_WORK_CAP,
    Solution,
    a_braid,
    cable_counterexample,
    cycle_closure,
    first_difference,
    negative_cycle_expansion,
    positive_cycle_expansion,
    power_sum_image,
    rosso_jones,
    series_c,
    series_d,
    series_power_sums,
    solve_pattern,
    substitute,
    torus_braid,
    torus_invariant,
    truncate,
    truncated_product,
)
from qskein.annulus import AnnulusElement, Q, a_gen, closure_word, epsilon_plane
from qskein.diagram_ring import CPoly, gen
from qskein.hecke import BraidWord
from qskein.partitions import Partition, all_partitions_up_to
from qskein.scalars import LaurentPoly, Scalar, Z, delta, h_expand, quantum_int, specialize_sln
from qskein.verify import run_suite


def test_cycle_braids():
    w = a_braid(1, 1)
    assert w.strand_count == 3
    assert w.letters == (1, -2)
    assert a_braid(0, 0).strand_count == 1
    assert a_braid(2, 0).letters == (1, 2)
    assert str(a_braid(1, 1)) == "1 -2"


def test_power_sum_values():
    assert P(1) == a_gen(1)
    assert str(P(2)) == "2*x^-1*A2 - (s - s^-1)*A1^2"
    with pytest.raises(ValueError):
        P(0)


def test_power_sums_match_column_side():
    for m in range(1, 5):
        assert P(m) == power_sum_image(m), m


def test_power_sum_recursion():
    rows = [(ok, text) for ok, text in run_suite("series", 5) if "power-sum-recursion" in text]
    assert [text for _, text in rows] == ["series power-sum-recursion m=%d" % m for m in range(1, 6)]
    assert all(ok for ok, _ in rows), rows


def test_cycle_expansions():
    for m in range(1, 6):
        assert cycle_closure(m - 1, 0) == closure_word(a_braid(m - 1, 0))
        assert cycle_closure(m - 1, 0) == positive_cycle_expansion(m), m
        assert cycle_closure(0, m - 1) == negative_cycle_expansion(m), m


def test_series_identities_all_pass():
    # at cap 5 the series suite checks the identities through X^3
    rows = [(ok, text) for ok, text in run_suite("series", 5) if "=" not in text]
    assert [text for _, text in rows] == ["series " + label for label in (
        "positive-cycle-expansion", "negative-cycle-expansion", "plus-factorization",
        "minus-factorization", "minus-factorization-mirror", "power-sum-log-derivative",
        "power-sum-reciprocal-derivative")]
    assert all(ok for ok, _ in rows), rows


def test_c_and_d_are_reciprocal_through_each_order():
    for n in range(1, 8):
        cd = series_c(n) * series_d(n)
        assert truncate(cd, n - 1) == CPoly.one(), n
        assert first_difference(cd, CPoly.one(), 0) in (None, n)


def test_truncate_keeps_weighted_degree_at_most_n():
    e = gen(1) + gen(2) * gen(1) + CPoly.one() - gen(3)
    assert truncate(e, 2) == gen(1) + CPoly.one()
    assert truncate(e, 3) == e
    assert truncate(e, -1) == CPoly.zero()
    assert truncate(a_gen(2) * a_gen(1) + a_gen(1), 2) == a_gen(1)


# monomial keys of weighted degree at most 10, and coefficients that are
# monomials over 1 or over a quantum integer
SERIES_KEYS = [lam.parts for lam in all_partitions_up_to(10)]
series_coefficients = st.builds(
    lambda a, c, k, q: Scalar(LaurentPoly.monomial(a, 0, c, k), quantum_int(q)),
    st.integers(-2, 2), st.integers(-3, 3), st.integers(-3, 3).filter(bool), st.integers(1, 4),
)


def series_terms():
    return st.dictionaries(st.sampled_from(SERIES_KEYS), series_coefficients, max_size=8)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([CPoly, AnnulusElement]), series_terms(), series_terms(), st.integers(-1, 12))
def test_truncated_product_is_the_cut_product(cls, a, b, n):
    a, b = cls(a), cls(b)
    assert truncated_product(a, b, n) == truncate(a * b, n)


def test_substitute_scales_by_degree_less_shift_and_inverts():
    a = Scalar.monomial(1, 0, 1)
    c = series_c(4)
    got = substitute(c, a, 0)
    assert got.coeff((2,)) == a * a
    assert got.coeff(()) == Scalar.one()
    psum = series_power_sums(4)
    got = substitute(psum, a, 1)
    assert got.coeff((1,)) == Scalar.one()
    assert got.coeff((1, 1)) == a
    for series, shift in ((c, 0), (psum, 1)):
        back = substitute(substitute(series, a, shift), Scalar.one() / a, shift)
        assert back == series


def test_first_difference_reports_the_changed_degree():
    psum = series_power_sums(5)
    assert first_difference(psum, psum, 1) is None
    for k in range(5):
        changed = psum + gen(k + 1).scale(Scalar.monomial(0, 0, 1))
        assert first_difference(psum, changed, 1) == k
        assert first_difference(changed, psum, 1) == k
    c = series_c(5)
    assert first_difference(c, c - gen(3) * gen(1), 0) == 4


def test_rosso_jones_values():
    # the (2,3) value expanded by hand in the hook basis
    z2 = Z * Z + Scalar.one()
    want = (
        a_gen(1) ** 2
    ).scale(Scalar.monomial(6, -3, 0) * Z) + a_gen(2).scale(Scalar.monomial(5, -3, 0) * z2)
    assert rosso_jones(2, 3) == want
    # and it matches the honest closure up to the global framing monomial
    got = closure_word(BraidWord(2, (1, 1, 1)))
    assert got == rosso_jones(2, 3).scale(Scalar.monomial(-3, 3, 0))
    with pytest.raises(ValueError):
        rosso_jones(2, 4)
    with pytest.raises(ValueError):
        rosso_jones(0, 1)


def test_rosso_jones_cross_check_small():
    for m, p in ((2, 1), (3, 1), (2, 3), (3, 2)):
        got = closure_word(torus_braid(m, p))
        assert got == rosso_jones(m, p).scale(Scalar.monomial(-p, p, 0)), (m, p)


def test_torus_invariant_normalization():
    raw = torus_invariant(2, 3)
    normalized = torus_invariant(2, 3, normalize=True)
    assert raw == normalized * Scalar.monomial(3, -3, 0)
    want = delta() * (
        Scalar.monomial(0, 2, 0, 2) - Scalar.monomial(0, 4, 0) + Scalar.monomial(0, 2, 0) * Z * Z
    )
    assert normalized == want
    series = h_expand(specialize_sln(torus_invariant(2, 3, normalize=True), 2), 2, 3)
    assert series == [2, 0, Fraction(-23, 4), 12]


def test_torus_invariant_equals_the_closed_braid():
    # knots take the planar Rosso-Jones sum and links the braid closure
    for m in range(1, 20):
        for p in range(1, 20):
            if (m - 1) * p > 18:
                continue
            want = epsilon_plane(closure_word(torus_braid(m, p)))
            got = torus_invariant(m, p)
            assert got == want, (m, p)
            assert (str(got), repr(got)) == (str(want), repr(want)), (m, p)


def test_a_wide_torus_knot_is_the_narrow_braid_reframed():
    # the (m, p) and (p, m) braids close to one knot, with writhes differing
    # by m - p; the narrow braid closes fast where the wide one would not
    for m, p in ((12, 5), (9, 4), (11, 3), (13, 2)):
        want = epsilon_plane(closure_word(torus_braid(p, m))) * Scalar.monomial(m - p, p - m, 0)
        got = torus_invariant(m, p)
        assert got == want and str(got) == str(want), (m, p)


def test_a_torus_knot_never_closes_its_braid(monkeypatch):
    def no_closure(word):
        raise AssertionError("closed the braid %s" % word)

    monkeypatch.setattr(qskein.adams_skein, "closure_word", no_closure)
    assert torus_invariant(2, 3, normalize=True) * Scalar.monomial(3, -3, 0) == torus_invariant(2, 3)
    for m, p in ((12, 5), (5, 12), (7, 20), (1, 7), (7, 1), (1000, 1)):
        assert not specialize_sln(torus_invariant(m, p, normalize=True), 3).is_zero()
    with pytest.raises(AssertionError, match="closed the braid"):
        torus_invariant(2, 4)


def test_torus_knot_caps_refuse_before_any_work(monkeypatch):
    def no_hooks(k):
        raise AssertionError("built the hook numerators")

    monkeypatch.setattr(qskein.adams_skein, "_hook_numerators", no_hooks)
    k = TORUS_HOOK_CAP + 1
    with pytest.raises(ValueError, match="sums hooks of %d cells, over the cap of %d" % (k, TORUS_HOOK_CAP)):
        torus_invariant(k + 1, k)
    # the work cap bounds top * k^3 at any k under the hook cap
    top = TORUS_WORK_CAP // 8 + 1
    with pytest.raises(ValueError, match="estimated work %d, over the cap of %d" % (8 * top, TORUS_WORK_CAP)):
        torus_invariant(2, top)
    with pytest.raises(ValueError, match="must be positive"):
        torus_invariant(0, 1)


def test_pattern_solution_exact():
    target = P(2)
    patterns = [closure_word(BraidWord(2, (1,))), closure_word(BraidWord(2, (-1,)))]
    out = solve_pattern(PatternSystem(target, patterns))
    assert isinstance(out, Solution)
    assert list(out.values) == [Scalar.monomial(-1, 0, 0), Scalar.monomial(1, 0, 0)]
    assert str(out) == "solution [x^-1, x]"


def test_pattern_solution_with_free_unknown():
    target = a_gen(1)
    out = solve_pattern(PatternSystem(target, [a_gen(1), a_gen(1)]))
    assert isinstance(out, Solution)
    assert list(out.values) == [Scalar.one(), Scalar.zero()]
    assert out.free == (1,)


def test_pattern_counterexample_certificate():
    system = cable_counterexample()
    assert system.target == Q(Partition((4,))) - Q(Partition((2, 1, 1))) + Q(Partition((2, 2)))
    out = solve_pattern(system)
    assert isinstance(out, Inconsistent)
    assert set(out.first[0]) != set(out.second[0])
    assert out.first[1] != out.second[1]
    # same verdict with the patterns listed the other way round
    flipped = PatternSystem(system.target, list(reversed(system.patterns)))
    assert isinstance(solve_pattern(flipped), Inconsistent)


def test_pattern_validation():
    with pytest.raises(ValueError):
        PatternSystem(a_gen(1), [])
    with pytest.raises(ValueError):
        PatternSystem(a_gen(1), [a_gen(1) + a_gen(2)])
