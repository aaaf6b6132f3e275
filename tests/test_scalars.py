"""Laurent-polynomial and scalar-fraction arithmetic."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qskein.scalars import (
    CYCLOTOMIC_ORDER_CAP,
    LaurentPoly,
    PoleError,
    Scalar,
    SpecializationError,
    TFraction,
    Z,
    Z_LP,
    _s_reduce,
    _s_reduce_gcd,
    cyclotomic,
    cyclotomic_factors,
    delta,
    h_expand,
    quantum_factorial,
    quantum_int,
    specialize_sln,
)


def rand_poly(rng, max_terms=4, span=2):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        key = tuple(rng.randint(-span, span) for _ in range(3))
        terms[key] = rng.randint(-5, 5)
    return LaurentPoly(terms)


def test_quantum_integers():
    assert str(quantum_int(0)) == "0"
    assert str(quantum_int(1)) == "1"
    assert str(quantum_int(2)) == "s + s^-1"
    assert str(quantum_int(3)) == "s^2 + 1 + s^-2"
    assert str(quantum_factorial(3)) == "s^3 + 2*s + 2*s^-1 + s^-3"
    with pytest.raises(ValueError):
        quantum_int(-1)
    # palindromic in s <-> s^-1
    for i in range(8):
        assert quantum_int(i).invert_variables() == quantum_int(i)


def test_quantum_product_rule():
    # [2][n] = [n+1] + [n-1]
    for n in range(1, 8):
        lhs = quantum_int(2) * quantum_int(n)
        assert lhs == quantum_int(n + 1) + quantum_int(n - 1)


def test_poly_ring_axioms():
    rng = random.Random(7)
    for _ in range(25):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a + b == b + a
        assert (a - b) + b == a
        assert a.invert_variables().invert_variables() == a
        assert (a * b).invert_variables() == a.invert_variables() * b.invert_variables()


def test_poly_monomial_shift():
    p = quantum_int(2)
    assert p.mul_monomial(1, 0, 0) == LaurentPoly({(1, 0, 1): 1, (1, 0, -1): 1})
    assert p.mul_monomial(0, 0, 0, Fraction(1, 2)) == LaurentPoly(
        {(0, 0, 1): Fraction(1, 2), (0, 0, -1): Fraction(1, 2)}
    )


def test_scalar_normalization_folds_denominators():
    s4 = LaurentPoly({(0, 0, 4): 1, (0, 0, 0): -1})
    s2 = LaurentPoly({(0, 0, 2): 1, (0, 0, 0): -1})
    assert str(Scalar(s4, s2)) == "s^2 + 1"
    assert Scalar(s4, s2) == Scalar(quantum_int(2)) * Scalar.monomial(0, 0, 1)
    # single-term denominators fold into the numerator
    assert str(Scalar(LaurentPoly.one(), LaurentPoly({(0, 0, 2): 2}))) == "1/2*s^-2"
    assert str(Scalar(LaurentPoly.const(Fraction(1, 2)))) == "1/2"


def _phi_of_s2(d):
    """Phi_d(s^2) as a LaurentPoly."""
    return LaurentPoly({(0, 0, 2 * e): c for e, c in enumerate(cyclotomic(d))})


# Denominator factors as the skein computations build them, and s-polynomials
# that are not products of cyclotomic polynomials.
CYCLOTOMIC_FACTORS = (
    [quantum_int(k) for k in range(2, 7)] + [_phi_of_s2(d) for d in range(1, 7)] + [Z_LP]
)
OTHER_FACTORS = [
    LaurentPoly({(0, 0, 2): 1, (0, 0, 1): 3, (0, 0, 0): 1}),
    LaurentPoly({(0, 0, 3): 1, (0, 0, 1): 1, (0, 0, 0): 1}),
    LaurentPoly({(0, 0, 1): 2, (0, 0, 0): -1}),
]

coefficients = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3]))
polys = st.dictionaries(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-3, 3)), coefficients, max_size=4
).map(LaurentPoly)


@st.composite
def reductions(draw):
    """(num, den) as Scalar() hands them on: num nonzero, den in s only with
    its monomial content stripped.  num is a sum of parts that each share a
    random part of den's factors, so its (x, v)-slices share different ones."""
    factors = draw(st.lists(st.sampled_from(CYCLOTOMIC_FACTORS), min_size=1, max_size=4))
    factors += draw(st.lists(st.sampled_from(OTHER_FACTORS), max_size=1))
    den = LaurentPoly.const(draw(st.sampled_from([1, 2, Fraction(-3, 2)])))
    for f in factors:
        den = den * f
    num = LaurentPoly.zero()
    for part in draw(st.lists(polys, min_size=1, max_size=2)):
        for f in factors:
            if draw(st.booleans()):
                part = part * f
        num = num + part
    assume(num)
    den = den.mul_monomial(*(-e for e in den.monomial_content()))
    return num, den


@settings(max_examples=300, deadline=None)
@given(reductions())
def test_cyclotomic_reduction_matches_gcd(case):
    num, den = case
    fast, oracle = _s_reduce(num, den), _s_reduce_gcd(num, den)
    assert fast[0].terms == oracle[0].terms
    assert fast[1].terms == oracle[1].terms
    assert fast[0] * den == num * fast[1]


@settings(max_examples=100, deadline=None)
@given(reductions())
def test_normalisation_is_idempotent(case):
    sc = Scalar(*case)
    again = Scalar(sc.num, sc.den)
    assert again.num.terms == sc.num.terms
    assert again.den.terms == sc.den.terms


def _coefficients(p):
    """Dense coefficients of a polynomial in s whose lowest exponent is 0."""
    return tuple(p.terms.get((0, 0, e), 0) for e in range(max(p.terms)[2] + 1))


def test_quantum_integers_factor_into_cyclotomics():
    # (s - s^-1)[k] = s^k - s^-k, and s^2k - 1 is the product of Phi_d(s), d | 2k
    for k in range(2, 33):
        dense = _coefficients(quantum_int(k).mul_monomial(0, 0, k - 1))
        assert cyclotomic_factors(dense) == tuple((d, 1) for d in range(3, 2 * k + 1) if 2 * k % d == 0)
    assert cyclotomic_factors(cyclotomic(CYCLOTOMIC_ORDER_CAP)) == ((CYCLOTOMIC_ORDER_CAP, 1),)
    assert cyclotomic_factors(cyclotomic(CYCLOTOMIC_ORDER_CAP + 1)) is None
    for f in OTHER_FACTORS:
        assert cyclotomic_factors(_coefficients(f)) is None


def test_scalar_equality_across_representatives():
    two = quantum_int(2)
    z_two = Scalar(Z.num * two, Z.num)
    assert z_two == Scalar(two)
    assert Scalar(two) != Scalar(quantum_int(3))
    assert Scalar.zero() == Scalar(LaurentPoly({}))
    with pytest.raises(TypeError):
        hash(Scalar.one())
    with pytest.raises(TypeError):
        Scalar(Z)


def test_scalar_field_operations():
    rng = random.Random(11)
    for _ in range(12):
        a = Scalar(rand_poly(rng), quantum_int(rng.randint(2, 4)))
        b = Scalar(rand_poly(rng), quantum_int(rng.randint(2, 4)))
        c = Scalar(rand_poly(rng))
        assert (a + b) * c == a * c + b * c
        assert a - a == Scalar.zero()
        if not b.is_zero():
            assert (a / b) * b == a
    inv2 = Scalar(quantum_int(2)) ** -2
    assert str(inv2) == "s^2/(s^4 + 2*s^2 + 1)"
    assert inv2 * Scalar(quantum_int(2)) ** 2 == Scalar.one()
    with pytest.raises(TypeError):
        Scalar.one() + "s"
    with pytest.raises(ZeroDivisionError):
        Scalar.one() / Scalar.zero()


def test_delta_and_z():
    assert str(Z) == "s - s^-1"
    assert str(delta()) == "(-v*s + v^-1*s)/(s^2 - 1)"
    vinv_minus_v = Scalar(LaurentPoly({(0, -1, 0): 1, (0, 1, 0): -1}))
    assert delta() == vinv_minus_v / Z
    assert delta() * Z == vinv_minus_v


def test_specialization_is_ring_hom():
    rng = random.Random(13)
    for n in (2, 3):
        for _ in range(10):
            p, q = Scalar(rand_poly(rng)), Scalar(rand_poly(rng))
            assert specialize_sln(p * q, n) == specialize_sln(p, n) * specialize_sln(q, n)
            assert specialize_sln(p + q, n) == specialize_sln(p, n) + specialize_sln(q, n)


def test_specialization_values():
    assert specialize_sln(Scalar(quantum_int(2)), 2) == TFraction({2: 1, -2: 1})
    assert specialize_sln(delta(), 2) == TFraction({2: 1, -2: 1})
    assert specialize_sln(Scalar.monomial(1, 1, 1), 3) == TFraction({-1 - 9 + 3: 1})
    # denominator collapsing to zero is rejected
    collapsing = Scalar(LaurentPoly.one(), LaurentPoly({(0, 1, 0): 1, (4, 0, 0): -1}))
    with pytest.raises(SpecializationError):
        specialize_sln(collapsing, 2)
    assert not specialize_sln(collapsing, 3).is_zero()
    with pytest.raises(ValueError):
        specialize_sln(Scalar.one(), 1)


def test_tfraction_reduces():
    assert TFraction({4: 1, 0: -1}, {2: 1, 0: -1}) == TFraction({2: 1, 0: 1})
    assert TFraction({0: 1}, {0: 2}) == TFraction({0: Fraction(1, 2)})
    with pytest.raises(ZeroDivisionError):
        TFraction({0: 1}, {0: 0})


def test_h_expansion():
    two_cosh = specialize_sln(Scalar(quantum_int(2)), 2)
    assert h_expand(two_cosh, 2, 4) == [2, 0, Fraction(1, 4), 0, Fraction(1, 192)]
    # removable singularity: delta is regular at h = 0 for every N
    assert h_expand(specialize_sln(delta(), 3), 3, 0) == [3]
    with pytest.raises(PoleError) as err:
        h_expand(specialize_sln(Scalar.one() / Z, 2), 2, 2)
    assert err.value.order == 1
