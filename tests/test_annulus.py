"""Closures in the annulus, normalized idempotent closures, and the
column isomorphism."""

import random
import time
from itertools import permutations

from hypothesis import given, settings
from hypothesis import strategies as st

from qskein.annulus import (
    AnnulusElement,
    Q,
    _closure_step,
    _theta_key,
    a_gen,
    a_in_Q_basis,
    closed_idempotent,
    closure,
    closure_word,
    decorated_closure,
    epsilon_plane,
    q_hook,
    theta,
)
from qskein.diagram_ring import CPoly, DiagramVector, d, gen
from qskein.hecke import BraidWord, HeckeElement, alpha, e_lambda, from_word
from qskein.partitions import Partition, all_partitions_up_to, partitions_of
from qskein.perms import cycles, reduced_word
from qskein.scalars import DELTA_LP, Z_LP, LaurentPoly, Scalar, Z, delta, quantum_int, scalar_sum

# the two smoothing coefficients of the skein relation at a crossing
_XZ = LaurentPoly({(1, 0, 1): 1, (1, 0, -1): -1})        # x(s - s^-1)
_XINVZ = LaurentPoly({(-1, 0, 1): 1, (-1, 0, -1): -1})   # x^-1(s - s^-1)


def _strand_data(n: int, letters):
    """Simulate the word top to bottom.

    Returns (entrants, endpos): entrants[t] is the pair of strands
    crossing at letter t, left one first; endpos[s] the bottom position
    of the strand that started at top position s.
    """
    pos = list(range(n))
    entrants = []
    for j in letters:
        i = abs(j) - 1
        u, w = pos[i], pos[i + 1]
        entrants.append((u, w))
        pos[i], pos[i + 1] = w, u
    endpos = [0] * n
    for p, s in enumerate(pos):
        endpos[s] = p
    return entrants, endpos


_resolve_cache: dict[tuple[int, tuple[int, ...]], AnnulusElement] = {}


def _resolve_word_oracle(n: int, letters) -> AnnulusElement:
    """Closure of a braid word in the annulus, by descending resolution:
    the word-level route qskein.annulus replaced, kept as the oracle."""
    letters = tuple(letters)
    out = _resolve_cache.get((n, letters))
    if out is not None:
        return out
    entrants, endpos = _strand_data(n, letters)
    comps = cycles(endpos)
    rank = {}
    for comp in comps:
        for s in comp:
            rank[s] = len(rank)
    # first crossing, in traversal order, whose first visit goes under
    bad = None
    for t, j in enumerate(letters):
        u, w = entrants[t]
        over = u if j > 0 else w
        first = u if rank[u] < rank[w] else w
        if first != over:
            visit = (rank[first], t)
            if bad is None or visit < bad[0]:
                bad = (visit, t)
    if bad is None:
        comp_of = {}
        for ci, comp in enumerate(comps):
            for s in comp:
                comp_of[s] = ci
        writhe = [0] * len(comps)
        for t, j in enumerate(letters):
            u, w = entrants[t]
            if comp_of[u] == comp_of[w]:
                writhe[comp_of[u]] += 1 if j > 0 else -1
        e = sum(writhe[ci] - (len(comp) - 1) for ci, comp in enumerate(comps))
        key = tuple(sorted((len(comp) for comp in comps), reverse=True))
        out = AnnulusElement.term(key, Scalar.monomial(e, -e, 0))
    else:
        t = bad[1]
        j = letters[t]
        switched = letters[:t] + (-j,) + letters[t + 1 :]
        smoothed = letters[:t] + letters[t + 1 :]
        # switching makes this crossing descend without moving any strand,
        # so the first bad visit moves strictly later and the recursion
        # bottoms out
        if j > 0:
            out = _resolve_word_oracle(n, switched).scale(Scalar.monomial(2, 0, 0)) + _resolve_word_oracle(
                n, smoothed
            ).scale(_XZ)
        else:
            out = _resolve_word_oracle(n, switched).scale(Scalar.monomial(-2, 0, 0)) - _resolve_word_oracle(
                n, smoothed
            ).scale(_XINVZ)
    _resolve_cache[(n, letters)] = out
    return out


def rand_word(rng, n, length):
    return [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length)]


def test_winding_generators():
    assert str(a_gen(1)) == "A1"
    assert str(a_gen(2) * a_gen(1)) == "A2*A1"
    assert (a_gen(2) * a_gen(2)).degree() == 4
    assert a_gen(1) * AnnulusElement.one() == a_gen(1)


def test_closure_of_identity_braids():
    assert closure_word(BraidWord(1, ())) == a_gen(1)
    assert closure_word(BraidWord(3, ())) == a_gen(1) ** 3
    assert closure(from_word(BraidWord(2, ()))) == a_gen(1) ** 2


def test_trefoil_closure():
    got = closure_word(BraidWord(2, (1, 1, 1)))
    want = a_gen(2).scale(Scalar.monomial(2, 0, 0) * (Z * Z + Scalar.one())) + (
        a_gen(1) ** 2
    ).scale(Scalar.monomial(3, 0, 0) * Z)
    assert got == want


def _two_strand_closure(k):
    """closure(sigma_1^k) = a_k*A2 + x^2*a_(k-1)*A1^2, from the eigenvalues
    xs and -xs^-1 of sigma_1 on two strands: a_k = sum_(i<k) l1^i l2^(k-1-i)."""
    l1, l2 = Scalar.monomial(1, 0, 1), -Scalar.monomial(1, 0, -1)

    def a(k):
        return sum((l1 ** i * l2 ** (k - 1 - i) for i in range(k)), Scalar.zero())

    return a_gen(2).scale(a(k)) + (a_gen(1) ** 2).scale(Scalar.monomial(2, 0, 0) * a(k - 1))


def test_long_two_strand_powers_match_the_closed_form():
    for k in list(range(1, 13)) + [600]:
        assert closure_word(BraidWord(2, (1,) * k)) == _two_strand_closure(k), k


def test_long_mixed_word_touches_only_its_permutations():
    _closure_step.cache_clear()
    e = closure_word(BraidWord(3, (1, -2) * 20))
    assert e.degree() == 3
    assert closure_word(BraidWord(3, (-2, 1) * 20)) == e
    assert _closure_step.cache_info().currsize <= 2 + 6


def test_basis_closures_match_descending_resolution():
    for n in range(1, 7):
        for pi in permutations(range(n)):
            word = tuple(i + 1 for i in reduced_word(pi))
            assert closure(HeckeElement(n, {pi: 1})) == _resolve_word_oracle(n, word), pi


@st.composite
def mixed_words(draw):
    n = draw(st.integers(2, 4))
    letters = draw(
        st.lists(st.integers(1, n - 1).flatmap(lambda i: st.sampled_from((i, -i))), max_size=10)
    )
    return BraidWord(n, letters)


@settings(max_examples=150, deadline=None)
@given(mixed_words())
def test_closure_word_matches_descending_resolution(w):
    assert closure_word(w) == _resolve_word_oracle(w.strand_count, w.letters)


@st.composite
def words_with_free_strands(draw):
    """Words on up to 9 strands whose letters skip a random set of strands:
    leading, interior and trailing ones alike."""
    n = draw(st.integers(1, 9))
    if n == 1:
        return BraidWord(1)
    used = draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=4))
    letters = draw(st.lists(st.sampled_from(used).flatmap(lambda i: st.sampled_from((i, -i))), max_size=8))
    return BraidWord(n, letters)


@settings(max_examples=200, deadline=None)
@given(words_with_free_strands())
def test_closure_word_matches_the_hecke_closure_on_free_strands(w):
    assert closure_word(w) == closure(from_word(w))


def test_free_strands_cost_no_closure_work():
    w = BraidWord(1000, (1, 2, 3, 4, 5, 6, 7) * 2)
    start = time.perf_counter()
    e = closure_word(w)
    assert time.perf_counter() - start < 1.0
    # the same word with one free strand, closed through the Hecke algebra
    narrow = closure(from_word(BraidWord(9, w.letters)))
    assert e == AnnulusElement._from({key[:-1] + (1,) * 992: c for key, c in narrow.terms.items()})


def test_closure_is_conjugation_invariant():
    rng = random.Random(19)
    for n in (2, 3, 4):
        for _ in range(4):
            w = rand_word(rng, n, 4)
            g = rand_word(rng, n, 2)
            conj = g + w + [-j for j in reversed(g)]
            assert closure_word(BraidWord(n, conj)) == closure_word(BraidWord(n, w))


def test_markov_stabilization():
    curl = Scalar.monomial(1, -1, 0)
    rng = random.Random(23)
    for n in (2, 3, 4):
        w = rand_word(rng, n - 1, 3) if n > 2 else []
        base = epsilon_plane(closure_word(BraidWord(max(n - 1, 1), w)))
        up = epsilon_plane(closure_word(BraidWord(n, w + [n - 1])))
        down = epsilon_plane(closure_word(BraidWord(n, w + [-(n - 1)])))
        assert up == base * curl
        assert down == base / curl


def test_plane_evaluation():
    assert epsilon_plane(a_gen(1)) == delta()
    assert epsilon_plane(a_gen(1) ** 2) == delta() * delta()
    # the (1, m) torus closure is an unknot with m - 1 positive curls
    curl = Scalar.monomial(1, -1, 0)
    from qskein.adams_skein import a_braid

    for m in (1, 2, 3, 4):
        val = epsilon_plane(closure_word(a_braid(m - 1, 0)))
        assert val == delta() * curl ** (m - 1), m


def _epsilon_plane_grouped(e):
    """Oracle: the planar value with the keys grouped by their number k of
    curls.  delta^k = (v^-1 - v)^k / Z^k with Z = s - s^-1, so each group's
    sum is multiplied by (v^-1 - v)^k Z^(K - k) and the total divided by
    Z^K once, for the largest K."""
    by_count: dict[int, list] = {}
    for key, c in e.terms.items():
        exp = sum(key) - len(key)
        by_count.setdefault(len(key), []).append(c * Scalar.monomial(exp, -exp, 0))
    if not by_count:
        return Scalar.zero()
    top = max(by_count)
    acc = scalar_sum([scalar_sum(terms) * (DELTA_LP ** k * Z_LP ** (top - k)) for k, terms in by_count.items()])
    return acc / Scalar.from_poly(Z_LP ** top)


_small_polys = st.dictionaries(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-3, 3)), st.integers(-4, 4), max_size=3
).map(LaurentPoly)
# coefficients over 1, over quantum integers as the skein computations
# build them, and over a denominator in v, which takes the general route
_plane_coefficients = st.one_of(
    _small_polys.map(Scalar),
    st.builds(Scalar, _small_polys, st.sampled_from([quantum_int(k) for k in range(2, 5)])),
    st.builds(Scalar, _small_polys, st.just(LaurentPoly({(0, 1, 0): 1, (0, 0, 0): 2}))),
)
_annulus_elements = st.dictionaries(
    st.lists(st.integers(1, 3), max_size=4).map(lambda ks: tuple(sorted(ks, reverse=True))),
    _plane_coefficients,
    max_size=4,
).map(AnnulusElement)


@settings(max_examples=100, deadline=None)
@given(_annulus_elements)
def test_epsilon_plane_matches_the_per_key_sum(e):
    # epsilon_plane is the per-key sum; the grouped sum is its oracle
    got, want = epsilon_plane(e), _epsilon_plane_grouped(e)
    assert got == want
    if not any(a or b for c in e.terms.values() for a, b, _ in c.den.terms):
        # denominators in s alone have one normal form
        assert repr(got) == repr(want)


def test_epsilon_plane_of_closures_prints_as_the_per_key_sum():
    rng = random.Random(31)
    for n in (2, 3, 4):
        for _ in range(6):
            e = closure_word(BraidWord(n, rand_word(rng, n, 8)))
            assert repr(epsilon_plane(e)) == repr(_epsilon_plane_grouped(e))


@settings(max_examples=60, deadline=None)
@given(_annulus_elements, _annulus_elements)
def test_epsilon_plane_is_multiplicative(a, b):
    # a ring homomorphism: the product's keys merge windings, which no
    # single-key check of the sum sees
    assert epsilon_plane(a * b) == epsilon_plane(a) * epsilon_plane(b)


def test_q_normalization():
    assert Q(Partition((1,))) == a_gen(1)
    xinv = Scalar.monomial(-1, 0, 0)
    for k in (2, 3, 4):
        got = Q(Partition((1,) * k)).coeff((k,))
        assert got == (-xinv) ** (k - 1) / Scalar(quantum_int(k)), k
    assert q_hook(2, 1) == Q(Partition((1, 1)))


def test_q_is_the_closed_idempotent_over_alpha():
    for lam in all_partitions_up_to(6):
        if lam.size:
            assert Q(lam) == closed_idempotent(lam).scale(Scalar.one() / alpha(lam)), lam
    lam = Partition((2, 1))
    assert closed_idempotent(lam) == closure(e_lambda(lam))


def test_q_is_degree_homogeneous():
    for n in range(1, 5):
        for lam in partitions_of(n):
            q = Q(lam)
            assert q.degree() == n
            assert all(sum(key) == n for key in q.terms), lam


def test_theta_is_multiplicative():
    p = gen(1) + gen(2).scale(Scalar.monomial(0, 0, 1))
    q = gen(2) - gen(1) ** 2
    assert theta(p * q) == theta(p) * theta(q)
    assert theta(p + q) == theta(p) + theta(q)
    assert theta(gen(0)) == AnnulusElement.one()


def test_theta_matches_q_on_diagrams():
    assert theta(d(2)) == Q(Partition((2,)))
    for lam in (Partition((2, 1)), Partition((3, 1)), Partition((2, 2))):
        assert theta(DiagramVector.term(lam)) == Q(lam), lam


def test_winding_in_column_basis():
    for n in range(1, 5):
        assert theta(a_in_Q_basis(n)) == a_gen(n), n


def test_decorated_closure_matches_plain():
    w = BraidWord(2, (1, -1, 1))
    assert decorated_closure(w, Partition((1,))) == closure_word(w)


def test_theta_memoises_whole_keys_only():
    _theta_key.cache_clear()
    assert str(theta(gen(1) ** 200)) == "A1^200"
    assert _theta_key.cache_info().currsize == 1
    theta(gen(3) * gen(2) ** 2 * gen(1) ** 3)
    assert _theta_key.cache_info().currsize == 2


# theta of a column monomial by the longest-memoised-suffix walk, each column
# Q(1^k) multiplied back on, c1 columns included: the oracle for _theta_key
_suffix_cache: dict[tuple[int, ...], AnnulusElement] = {(): AnnulusElement.one()}


def _theta_key_by_suffixes(key):
    out = _suffix_cache.get(key)
    if out is not None:
        return out
    start = 1
    while key[start:] not in _suffix_cache:
        start += 1
    out = _suffix_cache[key[start:]]
    for i in range(start - 1, -1, -1):
        out = out * Q(Partition((1,) * key[i]))
    _suffix_cache[key] = out
    return out


def test_theta_matches_the_suffix_walk():
    keys = [lam.parts for n in range(8) for lam in partitions_of(n)]
    keys += [(2,) + (1,) * 50, (3, 3) + (1,) * 300, (4, 2, 2) + (1,) * 120, (1,) * 700]
    for key in keys:
        assert theta(CPoly.term(key)) == _theta_key_by_suffixes(key), key


def test_theta_of_a_c1_run_takes_no_product(monkeypatch):
    def no_product(*args):
        raise AssertionError("multiplied by a c1 column")

    _theta_key.cache_clear()
    monkeypatch.setattr(AnnulusElement, "__mul__", no_product)
    assert theta(gen(1) ** 20000) == AnnulusElement.term((1,) * 20000)
