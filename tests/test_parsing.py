"""Every printed literal parses back to the value it came from."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qskein.chords import ChordDiagram
from qskein.diagram_ring import CPoly
from qskein.hecke import BraidWord
from qskein.parsing import (
    ParseError, parse_braid_word, parse_cpoly, parse_matching, parse_partition, parse_rational, parse_scalar,
)
from qskein.partitions import Partition
from qskein.scalars import LaurentPoly, Scalar, quantum_int

coefficients = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3]))
polys = st.dictionaries(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-3, 3)), coefficients, min_size=1, max_size=4
).map(LaurentPoly)

DENOMINATORS = [
    quantum_int(2),                                   # cyclotomic
    quantum_int(3) * quantum_int(4),                  # cyclotomic
    LaurentPoly({(0, 0, 1): 2, (0, 0, 0): -1}),       # 2s - 1, not cyclotomic
    LaurentPoly({(1, 0, 0): 1, (0, 0, 1): 1}),        # x + s
    LaurentPoly({(0, 1, 0): 3, (0, 0, 0): 2}),        # 3v + 2
]

scalars = st.one_of(
    polys.map(Scalar),
    st.builds(Scalar, polys, st.sampled_from(DENOMINATORS)),
)

cpolys = st.dictionaries(
    st.lists(st.integers(1, 4), max_size=3).map(lambda ks: tuple(sorted(ks, reverse=True))),
    scalars,
    max_size=4,
).map(CPoly)


@settings(max_examples=200, deadline=None)
@given(scalars)
def test_scalars_print_back_to_themselves(x):
    assert parse_scalar(str(x)) == x


@settings(max_examples=100, deadline=None)
@given(cpolys)
def test_column_polynomials_print_back_to_themselves(p):
    assert parse_cpoly(str(p)) == p


def test_a_constant_term_with_several_terms_prints_back():
    lone = -(Scalar(1) + Scalar.monomial(0, 0, -1))
    over = Scalar(LaurentPoly({(0, 0, 1): -1, (1, 0, 0): 2}), quantum_int(3))
    for c in (lone, over):
        for p in (CPoly({(): c}), CPoly({(): c, (2,): 1}), CPoly({(): -c, (1, 1): c})):
            assert parse_cpoly(str(p)) == p, str(p)


@given(st.lists(st.integers(1, 6), max_size=5).map(lambda ps: Partition(tuple(sorted(ps, reverse=True)))))
def test_partitions_print_back_to_themselves(lam):
    assert parse_partition(str(lam)) == lam


@st.composite
def braid_words(draw):
    n = draw(st.integers(1, 6))
    letters = st.integers(1, max(n - 1, 1)).flatmap(lambda i: st.sampled_from((i, -i)))
    return BraidWord(n, draw(st.lists(letters, max_size=8 if n > 1 else 0)))


@given(braid_words())
def test_braid_words_print_back_with_their_strand_count(w):
    assert parse_braid_word(str(w), w.strand_count) == w


@given(st.integers(1, 5).flatmap(lambda n: st.permutations(range(2 * n))))
def test_chord_diagrams_print_back_to_themselves(points):
    diagram = ChordDiagram(zip(points[::2], points[1::2]))
    assert parse_matching(str(diagram)) == diagram


@given(st.fractions())
def test_rationals_print_back_to_themselves(c):
    assert parse_rational(str(c)) == c


def test_a_rational_is_refused_at_the_offending_position():
    for text, pos in (("1/0", 2), ("1/ 0", 3), ("1/2/3", 3), ("1/", 2), ("/2", 0), ("1.5", 1), ("", 0)):
        with pytest.raises(ParseError) as refused:
            parse_rational(text)
        assert refused.value.pos == pos, text
