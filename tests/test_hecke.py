"""Hecke algebra elements in the permutation-braid basis."""

import random
import tracemalloc
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qskein.hecke import (
    _COL_Q,
    _ROW_Q,
    ENUMERATION_CAP,
    BraidWord,
    HeckeElement,
    _right_word,
    _right_young,
    a_element,
    alpha,
    b_element,
    cable_word,
    e_lambda,
    from_word,
    mul,
    right_e_lambda,
    tensor,
)
from qskein.annulus import closure, decorated_closure
from qskein.parsing import ParseError, parse_braid_word
from qskein.partitions import Partition, partitions_of, transpose_permutation
from qskein.perms import all_perms, identity, inverse, reduced_word
from qskein.scalars import Scalar, Z, quantum_int
from test_kernels import SCALAR_KINDS, add_shifted, elements


def rand_word(rng, n, length):
    return [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length)]


def test_braid_word_basics():
    w = parse_braid_word("1 -2", 3)
    assert w.letters == (1, -2)
    assert w.writhe == 0
    assert w.inverse().letters == (2, -1)
    assert BraidWord(2, (1,)).permutation() == (1, 0)
    assert BraidWord(3, (1, 2)).permutation() == (1, 2, 0)
    with pytest.raises(ValueError):
        BraidWord(2, (0,))
    with pytest.raises(ValueError):
        BraidWord(2, (2,))


def test_parse_braid_word():
    assert parse_braid_word("1 -2") == BraidWord(3, (1, -2))
    assert parse_braid_word("") == BraidWord(1, ())
    with pytest.raises(ParseError) as err:
        parse_braid_word("3", 3)
    assert err.value.pos == 0


def test_module_operations_and_printing():
    h = from_word(BraidWord(2, (1,)))
    assert str(h) == "w[2 1]"
    assert str(h.scale(2) + 1) == "w[1 2] + 2*w[2 1]"
    assert str(HeckeElement(2, {})) == "0"
    assert repr(HeckeElement.unit(2)) == "HeckeElement(2, {(0, 1): Scalar({(0, 0, 0): 1}, {(0, 0, 0): 1})})"
    assert h + 1 == h + HeckeElement.unit(2)
    assert 1 + h == h + 1
    assert (h + 1).coeff(identity(2)) == Scalar.one()
    assert h - h == 0 and (h - h).n == 2
    assert -h + h == HeckeElement(2, {})
    assert h * 3 == 3 * h == h.scale(3)
    assert h * h == mul(h, h)
    assert h ** 2 == mul(h, h)
    assert HeckeElement.unit(3) == 1


def test_strand_counts_must_agree():
    two, three = HeckeElement.unit(2), HeckeElement.unit(3)
    with pytest.raises(ValueError, match="strand counts differ"):
        two + three
    with pytest.raises(ValueError, match="strand counts differ"):
        two - three
    with pytest.raises(ValueError, match="strand counts differ"):
        mul(two, three)
    assert HeckeElement(2, {}) != HeckeElement(3, {})
    assert two != three


def test_unit_and_basis_round_trip():
    assert from_word(BraidWord(3, ())) == HeckeElement.unit(3)
    for n in range(2, 5):
        for pi in all_perms(n):
            w = BraidWord(n, [i + 1 for i in reduced_word(pi)])
            assert from_word(w) == HeckeElement(n, {pi: Scalar.one()}), pi


def test_braid_relations():
    for n in range(3, 5):
        for i in range(1, n - 1):
            assert from_word(BraidWord(n, (i, i + 1, i))) == from_word(BraidWord(n, (i + 1, i, i + 1)))
        for i in range(1, n - 1):
            for j in range(i + 2, n):
                assert from_word(BraidWord(n, (i, j))) == from_word(BraidWord(n, (j, i)))


def test_quadratic_relation():
    x = Scalar.monomial(1, 0, 0)
    xinv = Scalar.monomial(-1, 0, 0)
    for n in range(2, 5):
        for i in range(1, n):
            lhs = from_word(BraidWord(n, (i,))).scale(xinv) - from_word(BraidWord(n, (-i,))).scale(x)
            assert lhs == HeckeElement.unit(n).scale(Z)


def test_inverse_words_cancel():
    rng = random.Random(5)
    for n in (2, 3, 4):
        for _ in range(4):
            letters = rand_word(rng, n, rng.randint(1, 5))
            w = BraidWord(n, letters)
            assert mul(from_word(w), from_word(w.inverse())) == HeckeElement.unit(n)


def test_right_word_matches_mul():
    rng = random.Random(6)
    for n in (2, 3, 4):
        for _ in range(4):
            u = BraidWord(n, rand_word(rng, n, 3))
            w = rand_word(rng, n, 3)
            assert from_word(u).right_word(w) == mul(from_word(u), from_word(BraidWord(n, w)))


def test_row_and_column_symmetrizer_values():
    xs = Scalar.monomial(-1, 0, 1)
    assert a_element(1) == HeckeElement.unit(1)
    assert a_element(2) == HeckeElement(2, {(0, 1): Scalar.one(), (1, 0): xs})
    neg_xsinv = Scalar.monomial(-1, 0, -1, -1)
    assert b_element(2) == HeckeElement(2, {(0, 1): Scalar.one(), (1, 0): neg_xsinv})
    # coefficient of the longest word in a_n is (x^-1 s)^(n(n-1)/2)
    longest3 = (2, 1, 0)
    assert a_element(3).coeff(longest3) == Scalar.monomial(-3, 0, 3)


def test_absorption_eigenvalues():
    xs = Scalar.monomial(1, 0, 1)
    neg_xsinv = Scalar.monomial(1, 0, -1, -1)
    for n in range(2, 5):
        a, b = a_element(n), b_element(n)
        for i in range(1, n):
            sigma = from_word(BraidWord(n, (i,)))
            assert a.right_word([i]) == a.scale(xs)
            assert mul(sigma, a) == a.scale(xs)
            assert b.right_word([i]) == b.scale(neg_xsinv)
            assert mul(sigma, b) == b.scale(neg_xsinv)


def test_tensor_embedding():
    u = from_word(BraidWord(2, (1,)))
    assert tensor(u, u) == from_word(BraidWord(4, (1, 3)))
    emb = tensor(a_element(2), a_element(1))
    assert emb == from_word(BraidWord(3, ())) + from_word(BraidWord(3, (1,))).scale(
        Scalar.monomial(-1, 0, 1)
    )


def test_quasi_idempotents_small():
    assert e_lambda(Partition((2,))) == a_element(2)
    assert e_lambda(Partition((1, 1))) == b_element(2)
    for n in range(1, 5):
        for lam in partitions_of(n):
            e = e_lambda(lam)
            assert mul(e, e) == e.scale(alpha(lam)), lam
    assert alpha(Partition((1,))) == Scalar.one()
    assert alpha(Partition((2,))) == Scalar(quantum_int(2)) * Scalar.monomial(0, 0, 1)
    assert alpha(Partition((2, 1))) == Scalar(quantum_int(3))
    with pytest.raises(ValueError):
        e_lambda(Partition(()))


def test_orthogonality_small():
    for n in (2, 3):
        parts = list(partitions_of(n))
        for lam in parts:
            for mu in parts:
                if lam == mu:
                    continue
                assert mul(e_lambda(lam), e_lambda(mu)).is_zero(), (lam, mu)


def test_cabling():
    w = BraidWord(2, (1,))
    doubled = cable_word(w, 2)
    assert doubled.strand_count == 4
    # the cabled crossing swaps the two 2-strand blocks
    assert doubled.permutation() == (2, 3, 0, 1)
    assert cable_word(w, 1) == w
    with pytest.raises(ValueError):
        cable_word(w, 0)


def test_decorate_trivial_colour():
    w = BraidWord(2, (1, 1, 1))
    assert decorated_closure(w, Partition((1,))) == closure(from_word(w))
    assert decorated_closure(w, Partition((1,))) == closure(_decorate_oracle(w, Partition((1,))))


def test_enumeration_cap_guard():
    with pytest.raises(ValueError):
        a_element(9)


def _e_lambda_oracle(lam: Partition) -> HeckeElement:
    """e_lambda by enumerating a_row and b_col over their Young subgroups
    and multiplying with mul: the definition, without the memo."""
    if lam.size < 1:
        raise ValueError("partition must be nonempty")
    if lam.size > ENUMERATION_CAP:
        warnings.warn(f"e_lambda on {lam.size} strands builds >{ENUMERATION_CAP}! terms")
    acc = a_element(lam.parts[0])
    for r in lam.parts[1:]:
        acc = tensor(acc, a_element(r))
    cols = lam.transpose().parts
    bcc = b_element(cols[0])
    for c in cols[1:]:
        bcc = tensor(bcc, b_element(c))
    # Basis labels are position-to-strand maps, so the braid whose strands
    # carry row cell i to column cell pi(i) is labelled by the inverse.
    word = [i + 1 for i in reduced_word(inverse(transpose_permutation(lam)))]
    out = acc.right_word(word)
    out = mul(out, bcc)
    out = out.right_word(-j for j in reversed(word))
    return out


def _decorate_oracle(w: BraidWord, lam: Partition) -> HeckeElement:
    """The cabled braid with a normalized idempotent on every bundle, as its
    product with the juxtaposed enumerated idempotents through tensor and
    mul: its closure is the all-bundles reference for decorated_closure."""
    k = lam.size
    if k < 1:
        raise ValueError("decoration partition must be nonempty")
    cab = from_word(cable_word(w, k))
    block = _e_lambda_oracle(lam).scale(Scalar.one() / alpha(lam))
    deco = block
    for _ in range(w.strand_count - 1):
        deco = tensor(deco, block)
    return mul(cab, deco)


def test_e_lambda_matches_the_enumerated_oracle():
    for n in range(1, 7):
        for lam in partitions_of(n):
            e_lambda.cache_clear()
            assert e_lambda(lam) == _e_lambda_oracle(lam), lam


def young(h: HeckeElement, blocks, offset: int, q) -> HeckeElement:
    """h times the Young-subgroup sum, through the raw kernel."""
    return h._apply(_right_young, blocks, offset, q)


def _young_by_letters(terms: dict, n: int, blocks, offset: int, q) -> dict:
    """Raw kernel: terms times the Young-subgroup sum, each block's sum taken
    as F_1 F_2 ... F_(r-1), F_k = sum_j q^j T_k ... T_(k-j+1) over the
    distinguished coset representatives of S_(k-1) in S_k, one letter pass
    per term: the route the coset fold-and-spread replaced, kept as its oracle."""
    a, b, c, m = q
    for r in blocks:
        for k in range(offset + 1, offset + r):
            acc = {pi: dict(p) for pi, p in terms.items()}
            cur = terms
            for j, i in enumerate(range(k, offset, -1), 1):
                cur = _right_word(cur, n, (i,))
                for pi, p in cur.items():
                    add_shifted(acc, pi, p, a * j, b * j, c * j, m ** j)
            terms = acc
        offset += r
    return terms


def test_young_factorisation_of_the_unit():
    for n in range(1, 7):
        unit = HeckeElement.unit(n)
        assert young(unit, (n,), 0, _ROW_Q) == a_element(n), n
        assert young(unit, (n,), 0, _COL_Q) == b_element(n), n
    blocks = tensor(tensor(a_element(2), a_element(3)), a_element(1))
    assert young(HeckeElement.unit(6), (2, 3, 1), 0, _ROW_Q) == blocks
    shifted = tensor(HeckeElement.unit(1), tensor(b_element(3), HeckeElement.unit(1)))
    assert young(HeckeElement.unit(5), (3,), 1, _COL_Q) == shifted
    with pytest.raises(ValueError, match="a block of 3 strands at offset 4 does not fit 5 strands"):
        young(HeckeElement.unit(5), (2, 1, 3), 1, _COL_Q)


@st.composite
def element_and_block(draw):
    n = draw(st.integers(2, 5))
    letters = draw(
        st.lists(st.integers(1, n - 1).flatmap(lambda i: st.sampled_from((i, -i))), max_size=6)
    )
    m = draw(st.integers(1, n))
    return from_word(BraidWord(n, letters)), m, draw(st.integers(0, n - m))


@settings(max_examples=60, deadline=None)
@given(element_and_block())
def test_right_e_lambda_matches_mul(args):
    h, m, offset = args
    for lam in partitions_of(m):
        placed = _e_lambda_oracle(lam)
        if offset:
            placed = tensor(HeckeElement.unit(offset), placed)
        if h.n > placed.n:
            placed = tensor(placed, HeckeElement.unit(h.n - placed.n))
        assert right_e_lambda(h, lam, offset) == mul(h, placed), lam


def test_decorate_matches_tensor_and_mul():
    for w in (BraidWord(2, (1,)), BraidWord(2, (-1,)), BraidWord(2, (1, -1, 1))):
        for k in range(1, 4):
            for lam in partitions_of(k):
                assert decorated_closure(w, lam) == closure(_decorate_oracle(w, lam)), (w, lam)
    for w in (BraidWord(2, (-1, -1)), BraidWord(3, (1, -2))):
        for lam in partitions_of(2):
            assert decorated_closure(w, lam) == closure(_decorate_oracle(w, lam)), (w, lam)


@st.composite
def coloured_braids(draw):
    """A colour of at most 3 cells and a word of at most 5 letters on 1-3
    strands, so a knot or a link of up to 3 components, with a cable of at
    most 6 strands: on 9 the oracle's product takes seconds to minutes."""
    lam = draw(st.sampled_from([lam for k in range(1, 4) for lam in partitions_of(k)]))
    n = draw(st.integers(1, min(3, 6 // lam.size)))
    letters = draw(st.lists(st.integers(1, n - 1).flatmap(lambda i: st.sampled_from((i, -i))),
                            max_size=5)) if n > 1 else []
    return BraidWord(n, letters), lam


@settings(max_examples=30, deadline=None)
@given(coloured_braids())
@example((BraidWord(3, (2, 2, -1)), Partition((1, 1))))  # a second component from strand 1
@example((BraidWord(3, ()), Partition((2,))))            # three components
def test_one_idempotent_per_component_closes_as_one_on_every_bundle(args):
    w, lam = args
    assert decorated_closure(w, lam) == closure(_decorate_oracle(w, lam))


def test_word_support_cap(monkeypatch):
    # (1 2 ... 8)^2 on 9 strands keeps two terms, so the cap leaves it alone
    assert len(from_word(BraidWord(9, list(range(1, 9)) * 2)).terms) == 2
    monkeypatch.setattr("qskein.hecke.ENUMERATION_CAP", 2)
    assert len(from_word(BraidWord(3, [-1, -1])).terms) == 2
    with pytest.raises(ValueError, match=r"on 3 strands reached 4 terms, over the cap of 2! = 2"):
        from_word(BraidWord(3, [-1, -2]))


def test_young_sums_check_the_support(monkeypatch):
    # the unit folds onto one coset, which spreads to 4! terms: refused before the spread
    monkeypatch.setattr("qskein.hecke.ENUMERATION_CAP", 3)
    h = HeckeElement.unit(4)
    assert len(young(h, (3,), 0, _ROW_Q).terms) == 6
    with pytest.raises(ValueError, match=r"on 4 strands reached 24 terms, over the cap of 3! = 6"):
        young(h, (4,), 0, _ROW_Q)


def test_young_sums_are_refused_before_any_allocation(monkeypatch):
    monkeypatch.setattr("qskein.hecke.ENUMERATION_CAP", 7)
    h = HeckeElement.unit(8)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"on 8 strands reached 40320 terms, over the cap of 7! = 5040"):
            young(h, (8,), 0, _ROW_Q)
        # zero has no terms to refuse, and builds no S_9 table either
        assert young(HeckeElement(9, {}), (9,), 0, _COL_Q) == HeckeElement(9, {})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@st.composite
def young_arguments(draw, kind):
    n = draw(st.integers(1, 5))
    h = draw(elements(n, (0, 5), SCALAR_KINDS[kind]))
    offset = draw(st.integers(0, n))
    blocks, room = [], n - offset
    while room and draw(st.booleans()):
        blocks.append(draw(st.integers(1, room)))
        room -= blocks[-1]
    return h, tuple(blocks), offset, draw(st.sampled_from((_ROW_Q, _COL_Q)))


@pytest.mark.parametrize("kind", SCALAR_KINDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_young_by_cosets_equals_the_letter_passes(kind, data):
    h, blocks, offset, q = data.draw(young_arguments(kind))
    assert young(h, blocks, offset, q) == h._apply(_young_by_letters, blocks, offset, q)


def test_decorate_refuses_a_colour_past_the_cap(monkeypatch):
    def no_cable(*args):
        raise AssertionError("the cable was built")

    monkeypatch.setattr("qskein.annulus.cable_word", no_cable)
    for colour in ((9,), (1,) * 9):
        with pytest.raises(ValueError, match="enumeration over 9 strands exceeds the cap 8"):
            decorated_closure(BraidWord(2, (1,) * 40), Partition(colour))
