"""Properties that guard the raw Hecke and closure kernels on random
elements whose coefficients are polynomials, Fractions, or fractions over
cyclotomic or x/v denominators."""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qskein.annulus import AnnulusElement, _closure_step, closure, closure_word, decorated_closure, epsilon_plane
from qskein.hecke import (
    BraidWord,
    HeckeElement,
    _reverse,
    _right_reduce,
    a_element,
    alpha,
    e_lambda,
    from_word,
    mul,
    right_e_lambda,
    tensor,
)
from qskein.linear import add_term, join_raw, split_raw
from qskein.partitions import Partition, all_partitions_up_to
from qskein.perms import all_perms, swap_positions
from qskein.scalars import LaurentPoly, Scalar, Z, delta, quantum_int

_XZ = LaurentPoly({(1, 0, 1): 1, (1, 0, -1): -1})        # x(s - s^-1)
_XINVZ = LaurentPoly({(-1, 0, 1): 1, (-1, 0, -1): -1})   # x^-1(s - s^-1)
_X2, _XINV2 = Scalar.monomial(2, 0, 0), Scalar.monomial(-2, 0, 0)


def right_letter_reference(h: HeckeElement, j: int) -> HeckeElement:
    """h times one braid letter, one Scalar operation per coefficient: the
    loop the raw kernel replaced, kept as its oracle."""
    i = abs(j) - 1
    acc = {}
    if j > 0:
        for pi, c in h.terms.items():
            flipped = swap_positions(pi, i)
            if pi[i] < pi[i + 1]:
                add_term(acc, flipped, c)
            else:
                add_term(acc, pi, c * _XZ)
                add_term(acc, flipped, c * _X2)
    else:
        for pi, c in h.terms.items():
            flipped = swap_positions(pi, i)
            if pi[i] < pi[i + 1]:
                add_term(acc, flipped, c * _XINV2)
                add_term(acc, pi, -(c * _XINVZ))
            else:
                add_term(acc, flipped, c)
    return HeckeElement._from(h.n, acc)


def add_shifted(acc: dict, key, p: dict, a: int, b: int, c: int, k) -> None:
    """acc[key] += k x^a v^b s^c p on raw polynomials, in place: acc owns
    every polynomial it holds and holds no zero one; p is not kept.  The
    helper the raw kernels called once per term before they merged in place."""
    cur = acc.get(key)
    if cur is None:
        acc[key] = {(e1 + a, e2 + b, e3 + c): m * k for (e1, e2, e3), m in p.items()}
        return
    for (e1, e2, e3), m in p.items():
        e = (e1 + a, e2 + b, e3 + c)
        m = cur.get(e, 0) + m * k
        if m:
            cur[e] = m
        else:
            del cur[e]
    if not cur:
        del acc[key]


def push_down_reference(terms: dict) -> dict:
    """The closure push-down one add_shifted call per term, longest
    permutations first: the loop the in-place kernel replaced, kept as its oracle."""
    levels = [{} for _ in range(1 + max((_closure_step(pi)[0] for pi in terms), default=-1))]
    for pi, p in terms.items():
        add_shifted(levels[_closure_step(pi)[0]], pi, p, 0, 0, 0, 1)
    out: dict = {}
    for length in range(len(levels) - 1, -1, -1):
        for pi, p in levels[length].items():
            _, key, shorter, shortest = _closure_step(pi)
            if key is not None:
                add_shifted(out, key, p, 0, 0, 0, 1)
            else:
                add_shifted(levels[length - 1], shorter, p, 1, 0, 1, 1)
                add_shifted(levels[length - 1], shorter, p, 1, 0, -1, -1)
                add_shifted(levels[length - 2], shortest, p, 2, 0, 0, 1)
    return out


polys = st.dictionaries(
    st.tuples(st.integers(-2, 2), st.integers(-1, 1), st.integers(-3, 3)),
    st.integers(-3, 3).filter(bool),
    min_size=1,
    max_size=3,
).map(LaurentPoly)

DENOMINATORS = [
    quantum_int(2),
    quantum_int(3) * quantum_int(2),
    LaurentPoly({(1, 0, 0): 1, (0, 0, 1): 1}),   # x + s
    LaurentPoly({(0, 1, 0): 1, (0, 0, 0): 2}),   # v + 2
]

SCALAR_KINDS = {
    "polynomial": polys.map(Scalar.from_poly),
    "fraction": st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool).map(Scalar),
    "polynomial-times-fraction": st.builds(lambda p, q: Scalar.from_poly(p) * q, polys,
                                           st.fractions(max_denominator=4).filter(bool)),
    "cyclotomic-denominator": st.builds(Scalar, polys, st.sampled_from(DENOMINATORS[:2])),
    "x/v-denominator": st.builds(Scalar, polys, st.sampled_from(DENOMINATORS[2:])),
}
# every kind, the two denominator kinds drawn as one
scalars = st.one_of(*list(SCALAR_KINDS.values())[:3], st.builds(Scalar, polys, st.sampled_from(DENOMINATORS)))


@st.composite
def elements(draw, n=None, terms=(1, 4), coefficients=scalars):
    n = n if n is not None else draw(st.integers(2, 4))
    perms = list(all_perms(n))
    keys = draw(st.lists(st.sampled_from(perms), min_size=terms[0], max_size=terms[1], unique=True))
    return HeckeElement(n, {pi: draw(coefficients) for pi in keys})


def letters(n, max_size=4):
    return st.lists(st.integers(1, n - 1).flatmap(lambda i: st.sampled_from((i, -i))), max_size=max_size)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_right_word_matches_the_scalar_loop(data):
    h = data.draw(elements())
    word = data.draw(letters(h.n))
    want = h
    for j in word:
        want = right_letter_reference(want, j)
    assert h.right_word(word) == want
    if word:
        assert h.right_word((word[0],)) == right_letter_reference(h, word[0])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_braid_and_quadratic_relations_on_random_elements(data):
    h = data.draw(elements(data.draw(st.integers(3, 4))))
    i = data.draw(st.integers(1, h.n - 2))
    assert h.right_word((i, i + 1, i)) == h.right_word((i + 1, i, i + 1))
    if i + 2 < h.n:
        assert h.right_word((i, i + 2)) == h.right_word((i + 2, i))
    x, xinv = Scalar.monomial(1, 0, 0), Scalar.monomial(-1, 0, 0)
    assert h.right_word((i,)).scale(xinv) - h.right_word((-i,)).scale(x) == h.scale(Z)
    assert h.right_word((i, -i)) == h


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_closure_is_invariant_under_conjugation(data):
    h = data.draw(elements())
    g = BraidWord(h.n, data.draw(letters(h.n, 3)))
    conj = mul(mul(from_word(g.inverse()), h), from_word(g))
    assert closure(conj) == closure(h)
    k = data.draw(elements(h.n))
    assert closure(mul(h, k)) == closure(mul(k, h))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_markov_stabilisation_after_the_plane_evaluation(data):
    h = data.draw(elements(data.draw(st.integers(1, 3))))
    n = h.n
    curl = Scalar.monomial(1, -1, 0)
    base = epsilon_plane(closure(h))
    grown = tensor(h, HeckeElement.one(1))
    assert epsilon_plane(closure(grown.right_word((n,)))) == base * curl
    assert epsilon_plane(closure(grown.right_word((-n,)))) == base / curl
    w = data.draw(letters(n) if n > 1 else st.just([]))
    plain = epsilon_plane(closure_word(BraidWord(n, w)))
    assert epsilon_plane(closure_word(BraidWord(n + 1, w + [n]))) == plain * curl
    assert epsilon_plane(closure_word(BraidWord(n + 1, w + [-n]))) == plain / curl


@pytest.mark.parametrize("kind", SCALAR_KINDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_mul_through_the_shorter_factor_equals_right_reduction(kind, data):
    n = data.draw(st.integers(3, 4))
    short = data.draw(elements(n, (1, 2), SCALAR_KINDS[kind]))
    long = data.draw(elements(n, (3, 6), SCALAR_KINDS[kind]))
    assert mul(short, long) == _right_reduce(short, long)
    assert mul(long, short) == _right_reduce(long, short)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_reversal_is_an_anti_automorphism(data):
    h = data.draw(elements())
    k = data.draw(elements(h.n))
    assert _reverse(_reverse(h)) == h
    assert _reverse(_right_reduce(h, k)) == _right_reduce(_reverse(k), _reverse(h))
    # it reverses braid words, so it fixes only palindromic images
    word = data.draw(letters(h.n, 5))
    assert _reverse(from_word(BraidWord(h.n, word))) == from_word(BraidWord(h.n, word[::-1]))


def test_a_letter_times_a_symmetriser_takes_one_word_pass(monkeypatch):
    import qskein.hecke

    words = []

    def right_word(terms, n, letters):
        words.append(tuple(letters))
        return right_word_kernel(terms, n, letters)

    right_word_kernel = qskein.hecke._right_word
    monkeypatch.setattr(qskein.hecke, "_right_word", right_word)
    a, sigma = a_element(5), from_word(BraidWord(5, (2,)))
    words.clear()
    assert mul(sigma, a) == a.scale(Scalar.monomial(1, 0, 1))
    assert words == [(2,)]
    words.clear()
    assert mul(a, sigma) == a.scale(Scalar.monomial(1, 0, 1))
    assert words == [(2,)]


def test_closure_commutes_with_non_polynomial_scalings():
    h = from_word(BraidWord(3, (1, -2, 1, 2)))
    for c in (Scalar.one() / alpha(Partition((2, 1))), Scalar(Fraction(-3, 7)), delta()):
        assert closure(h.scale(c)) == closure(h).scale(c)
    mixed = h.scale(delta()) + from_word(BraidWord(3, (2, 2))).scale(Fraction(1, 2))
    assert closure(mixed) == closure(h).scale(delta()) + closure_word(BraidWord(3, (2, 2))).scale(Fraction(1, 2))


# closures of decorated braids as printed before the raw kernels replaced
# the Scalar-level ones: the braid record of the README and of jsonio, its
# mirror, a row colour, and two larger decorations by the sha256 of the text
DECORATED_TEXT = [
    ((2, (1,)), (1, 1),
     "-(x*s^-1/(s^2 + 1))*A4 - ((x^2*s^2 - x^2)/(s^2 + 1))*A3*A1 + (x^2*s^2/(s^2 + 1))*A2^2"),
    ((2, (-1,)), (1, 1),
     "-(x^-7*s^3/(s^2 + 1))*A4 + ((2*x^-6*s^4 - x^-6*s^2 - x^-6)/(s^2 + 1))*A3*A1"
     " + ((x^-6*s^4 - x^-6*s^2 + x^-6)/(s^2 + 1))*A2^2"
     " - ((3*x^-5*s^5 - 4*x^-5*s^3 + x^-5*s)/(s^2 + 1))*A2*A1^2"
     " + ((x^-4*s^6 - 2*x^-4*s^4 + x^-4*s^2)/(s^2 + 1))*A1^4"),
    ((2, (1,)), (2,),
     "(x*s^3/(s^2 + 1))*A4 + ((x^2*s^2 - x^2)/(s^2 + 1))*A3*A1 + (x^2/(s^2 + 1))*A2^2"),
]
DECORATED_SHA256 = [
    ((2, (1, -1, 1)), (2, 1), "4a482b3fa6166b47efd55b7b0fd88a4a9527842842e7417520a7ff2a23c6d13d"),
    ((3, (1, -2)), (2,), "0557ee1b9c4be99efc56b2e8e914d26a36cb54b816c476e6fc84b0421f636a18"),
]


def test_decorated_closures_keep_their_recorded_text():
    from test_hecke import _decorate_oracle  # test_hecke imports this module

    def text(n, word, colour):
        w, lam = BraidWord(n, word), Partition(colour)
        got = decorated_closure(w, lam)
        assert got == closure(_decorate_oracle(w, lam)), (word, colour)
        return str(got)

    for (n, word), colour, want in DECORATED_TEXT:
        assert text(n, word, colour) == want, (word, colour)
    for (n, word), colour, want in DECORATED_SHA256:
        assert hashlib.sha256(text(n, word, colour).encode()).hexdigest() == want, (word, colour)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_closure_matches_the_push_down_by_add_shifted(data):
    h = data.draw(elements(terms=(1, 8)))
    want = AnnulusElement._from(join_raw((den, push_down_reference(terms)) for den, terms in split_raw(h)))
    assert closure(h) == want


def coefficient_snapshot(h):
    return {key: (dict(c.num.terms), dict(c.den.terms)) for key, c in h.terms.items()}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_the_kernels_leave_their_inputs_unchanged(data):
    h = data.draw(elements(terms=(1, 8)))
    k = data.draw(elements(h.n, (1, 8)))
    word = data.draw(letters(h.n, 6))
    lam = data.draw(st.sampled_from([lam for lam in all_partitions_up_to(h.n) if lam.size]))
    offset = data.draw(st.integers(0, h.n - lam.size))
    before, before_k = coefficient_snapshot(h), coefficient_snapshot(k)
    h.right_word(word)
    mul(h, k)
    mul(k, h)
    right_e_lambda(h, lam, offset)
    closure(h)
    closure(h.right_word(word))
    assert coefficient_snapshot(h) == before
    assert coefficient_snapshot(k) == before_k


def test_the_cached_idempotents_close_the_same_way_twice():
    for lam in all_partitions_up_to(5):
        if lam.size:
            e = e_lambda(lam)
            before = coefficient_snapshot(e)
            assert closure(e) == closure(e), lam
            assert coefficient_snapshot(e) == before, lam
