"""JSON encodings: encode, serialise, parse and decode back to an equal value."""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qskein import jsonio
from qskein.adams_skein import torus_invariant
from qskein.annulus import AnnulusElement, closure, decorated_closure
from qskein.chords import CROSSING, PARALLEL, all_diagrams, psi_chords
from qskein.diagram_ring import DiagramVector, psi
from qskein.hecke import BraidWord
from qskein.parsing import parse_cpoly
from qskein.partitions import Partition
from qskein.scalars import LaurentPoly, Scalar, h_expand
from test_hecke import _decorate_oracle


def round_trip(encode, decode, value):
    return decode(json.loads(json.dumps(encode(value))))


# the longest integer Python prints, 4,300 digits unless changed
LONGEST = 10 ** 4300 - 1


@settings(max_examples=100, deadline=None)
@given(st.integers(-LONGEST, LONGEST), st.integers(1, LONGEST))
@example(-LONGEST, LONGEST - 1)
@example(LONGEST, 1)
@example(1, (10 ** 1000 - 1) ** 2)
def test_every_coefficient_encode_coeff_writes_decodes(p, q):
    c = Fraction(p, q)
    assert round_trip(jsonio.encode_coeff, jsonio.decode_coeff, c) == c


def test_a_malformed_coefficient_is_refused():
    for obj in ("1/0", "1/2/3", "1/", "/2", "1.5", "x", "", True, False, 1.0, None, [1]):
        with pytest.raises(ValueError):
            jsonio.decode_coeff(obj)


def test_cpoly_round_trip():
    for text in ("0", "1", "c1^2 - 2*c2", "c1*c3 - (s - s^-1)/(s + s^-1)*c2 + 1/3", "x^-2*v*c4^3"):
        p = parse_cpoly(text)
        assert round_trip(jsonio.encode_cpoly, jsonio.decode_cpoly, p) == p, text


def test_monomial_keys_are_read_in_any_order_and_must_be_positive():
    two_a2a1 = AnnulusElement.term((2, 1), 2)
    assert jsonio.decode_annulus([[[1, 2], 1], [[2, 1], 1]]) == two_a2a1
    assert str(jsonio.decode_annulus([[[1, 2], 1], [[2, 1], 1]])) == "2*A2*A1"
    assert jsonio.decode_annulus([[[1, 2], 1], [[2, 1], -1]]).is_zero()
    assert jsonio.decode_cpoly([[[1, 3], 1], [[3, 1], 2]]) == parse_cpoly("3*c1*c3")
    assert jsonio.decode_poly([[1, 0, 0, 1], [1, 0, 0, "1/2"]]) == LaurentPoly({(1, 0, 0): Fraction(3, 2)})
    for key in ([0], [2, -1], ["a"], [1.0], [True], 2):
        for decode in (jsonio.decode_annulus, jsonio.decode_cpoly):
            with pytest.raises(ValueError):
                decode([[key, 1]])


def test_diagrams_round_trip():
    half = Scalar(Fraction(1, 2))
    values = [
        DiagramVector.zero(),
        psi(4)[1],
        DiagramVector({Partition((2, 1)): half, Partition(()): Scalar.monomial(1, -1, 2)}),
    ]
    for v in values:
        assert round_trip(jsonio.encode_diagrams, jsonio.decode_diagrams, v) == v, v


def test_tfraction_round_trip():
    for m, p, sl in ((2, 3, 2), (3, 2, 3), (2, 4, 2)):
        f = torus_invariant(m, p, sl=sl, normalize=True)
        assert round_trip(jsonio.encode_tfraction, jsonio.decode_tfraction, f) == f, (m, p, sl)


def test_hseries_round_trip():
    for m, p, sl in ((2, 3, 2), (2, 4, 2), (3, 2, 3)):
        coeffs = h_expand(torus_invariant(m, p, sl=sl, normalize=True), sl, 4)
        assert round_trip(jsonio.encode_hseries, jsonio.decode_hseries, coeffs) == coeffs
    assert round_trip(jsonio.encode_hseries, jsonio.decode_hseries, []) == []


def test_chord_tally_round_trip():
    tallies = [psi_chords(CROSSING, 2), psi_chords(PARALLEL, 3), {}]
    tallies += [psi_chords(dgm, 2) for dgm in all_diagrams(3)]
    for tally in tallies:
        assert round_trip(jsonio.encode_chord_tally, jsonio.decode_chord_tally, tally) == tally


def test_equal_pattern_specs_share_one_closure(monkeypatch):
    calls = []

    def counted(w, lam):
        calls.append((w, lam))
        return decorated_closure(w, lam)

    monkeypatch.setattr(jsonio, "decorated_closure", counted)
    braid = {"word": [1], "strands": 2, "colour": [1, 1]}
    system = jsonio.decode_pattern_system({
        "target": braid,
        "patterns": [dict(reversed(list(braid.items()))), {"word": [-1], "strands": 2, "colour": [1, 1]}, braid],
    })
    assert len(calls) == 2
    oracle = closure(_decorate_oracle(BraidWord(2, (1,)), Partition((1, 1))))
    assert system.patterns[0] == system.target == oracle
    assert system.patterns[2] == system.target
