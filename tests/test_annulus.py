"""Closures in the annulus, normalized idempotent closures, and the
column isomorphism."""

import random

import pytest

import qskein.annulus
from qskein.annulus import (
    AnnulusElement,
    Q,
    a_gen,
    a_in_Q_basis,
    closure,
    closure_word,
    epsilon_plane,
    q_hook,
    theta,
)
from qskein.diagram_ring import DiagramVector, d, gen
from qskein.hecke import BraidWord, decorate, from_word
from qskein.partitions import Partition, partitions_of
from qskein.scalars import Scalar, Z, delta, quantum_int


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


def test_closure_paths_agree():
    rng = random.Random(17)
    for n in (2, 3, 4):
        for _ in range(4):
            w = BraidWord(n, rand_word(rng, n, rng.randint(1, 5)))
            assert closure_word(w) == closure(from_word(w)), w


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


def test_q_normalization():
    assert Q(Partition((1,))) == a_gen(1)
    xinv = Scalar.monomial(-1, 0, 0)
    for k in (2, 3, 4):
        got = Q(Partition((1,) * k)).coeff((k,))
        assert got == (-xinv) ** (k - 1) / Scalar(quantum_int(k)), k
    assert q_hook(2, 1) == Q(Partition((1, 1)))


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
    assert closure(decorate(w, Partition((1,)))) == closure_word(w)


def test_theta_memoises_whole_keys_only():
    before = len(qskein.annulus._theta_key_cache)
    assert str(theta(gen(1) ** 200)) == "A1^200"
    assert len(qskein.annulus._theta_key_cache) - before <= 2
