"""JSON encodings for every value the command line can print.

All encodings are deterministic (terms sorted ascending by key) and decode
back to equal values:

  coefficient   int, or "p/q" for a non-integer rational
  polynomial    [[ex, ev, es, coeff], ...]            exponents of x, v, s
  scalar        {"num": polynomial, "den": polynomial}
  cpoly         [[[k1, k2, ...], scalar], ...]        sorted index multisets
  diagrams      [[[p1, p2, ...], scalar], ...]        partitions as part lists
  annulus       [[[m1, m2, ...], scalar], ...]        winding multisets
  tpoly         [[e, coeff], ...]                     one-variable Laurent terms
  tfraction     {"num": tpoly, "den": tpoly}
  hseries       [coeff, ...]                          from degree 0 upward
  chord tally   [[matching, multiplicity], ...]       matchings like "1-3,2-4"
  solution      {"status": "solution", "values": [scalar, ...], "free": [i, ...]}
  inconsistent  {"status": "inconsistent", "unknown": i,
                 "first": {"equations": [key, ...], "value": scalar},
                 "second": ...}   equation keys are winding multisets

Pattern-system files hold {"target": element, "patterns": [element, ...]}
where an element is either an annulus record or {"word": "1", "strands": 2,
"colour": [1, 1]} for the closure of a decorated braid.  Scalars inside
hand-written files may also be plain integers or expression strings like
"(s - s^-1)^2".
"""

import json
from fractions import Fraction

from .adams_skein import Inconsistent, PatternSystem, Solution
from .annulus import AnnulusElement, closure_word, decorated_closure
from .diagram_ring import CPoly, DiagramVector
from .hecke import BraidWord
from .linear import add_term
from .parsing import parse_braid_word, parse_matching, parse_rational, parse_scalar
from .partitions import Partition
from .scalars import LaurentPoly, Scalar, TFraction


def encode_coeff(c):
    if type(c) is int:
        return c
    c = Fraction(c)
    return int(c) if c.denominator == 1 else "%d/%d" % (c.numerator, c.denominator)


def decode_coeff(obj) -> Fraction:
    if isinstance(obj, str):
        return parse_rational(obj)
    # JSON true and false read as bools, which isinstance takes for ints
    if type(obj) is int:
        return Fraction(obj)
    raise ValueError("coefficient must be an int or 'p/q' string, got %r" % (obj,))


def encode_poly(p: LaurentPoly) -> list:
    return [[a, b, c, encode_coeff(k)] for (a, b, c), k in sorted(p.terms.items())]


def decode_poly(obj) -> LaurentPoly:
    """A polynomial from [ex, ev, es, coeff] terms; terms with one exponent
    triple add up."""
    terms: dict = {}
    for term in _items(obj, "polynomial"):
        if not isinstance(term, list) or len(term) != 4:
            raise ValueError("polynomial term must be [ex, ev, es, coeff], got %r" % (term,))
        e = tuple(_ints(term[:3], "exponents"))
        terms[e] = terms.get(e, 0) + decode_coeff(term[3])
    return LaurentPoly(terms)


def encode_scalar(sc: Scalar) -> dict:
    return {"num": encode_poly(sc.num), "den": encode_poly(sc.den)}


def decode_scalar(obj) -> Scalar:
    if isinstance(obj, dict):
        return Scalar(decode_poly(_entry(obj, "num", "scalar")), decode_poly(_entry(obj, "den", "scalar")))
    # conveniences for hand-written files, refusing bools as decode_coeff does
    if type(obj) is int:
        return Scalar(obj)
    if isinstance(obj, str):
        return parse_scalar(obj)
    raise ValueError("scalar must be a num/den record, int, or expression string")


def _encode_sum(element) -> list:
    out = []
    for key, sc in sorted(element.terms.items(), key=lambda t: list(t[0])):
        out.append([list(key), encode_scalar(sc)])
    return out


def _items(obj, what: str) -> list:
    if not isinstance(obj, list):
        raise ValueError("%s must be a list, got %r" % (what, obj))
    return obj


def _ints(value, what: str) -> list:
    if not isinstance(value, list) or any(type(i) is not int for i in value):
        raise ValueError("%s must be a list of integers, got %r" % (what, value))
    return value


def _entry(record: dict, name: str, kind: str):
    """record[name], refused with a ValueError when the file left it out."""
    if name not in record:
        raise ValueError("%s record needs a %r entry" % (kind, name))
    return record[name]


def _positive_int(value, what: str) -> int:
    if type(value) is not int or value < 1:
        raise ValueError("%s must be a positive integer, got %r" % (what, value))
    return value


def _decode_key(key) -> tuple:
    """A column or winding multiset from a file, as the descending tuple
    CPoly and AnnulusElement key their terms by."""
    indices = [_positive_int(i, "monomial index") for i in _items(key, "monomial key")]
    return tuple(sorted(indices, reverse=True))


def _decode_sum(cls, obj, decode_key):
    """A formal sum from [key, scalar] pairs; pairs whose keys decode to one
    key add up."""
    acc: dict = {}
    for pair in _items(obj, "formal sum"):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError("formal sum term must be [key, scalar], got %r" % (pair,))
        add_term(acc, decode_key(pair[0]), decode_scalar(pair[1]))
    return cls._from(acc)


def encode_cpoly(p: CPoly) -> list:
    return _encode_sum(p)


def decode_cpoly(obj) -> CPoly:
    return _decode_sum(CPoly, obj, _decode_key)


def encode_diagrams(v: DiagramVector) -> list:
    return _encode_sum(v)


def decode_diagrams(obj) -> DiagramVector:
    return _decode_sum(DiagramVector, obj, lambda key: Partition(tuple(key)))


def encode_annulus(e: AnnulusElement) -> list:
    return _encode_sum(e)


def decode_annulus(obj) -> AnnulusElement:
    return _decode_sum(AnnulusElement, obj, _decode_key)


def encode_tpoly(terms: dict) -> list:
    return [[e, encode_coeff(c)] for e, c in sorted(terms.items())]


def encode_tfraction(f: TFraction) -> dict:
    return {"num": encode_tpoly(f.num), "den": encode_tpoly(f.den)}


def decode_tfraction(obj) -> TFraction:
    return TFraction(
        {e: decode_coeff(c) for e, c in obj["num"]},
        {e: decode_coeff(c) for e, c in obj["den"]},
    )


def encode_hseries(coeffs: list) -> list:
    return [encode_coeff(c) for c in coeffs]


def decode_hseries(obj) -> list:
    return [decode_coeff(c) for c in obj]


def encode_chord_tally(tally: dict) -> list:
    return [[str(d), n] for d, n in sorted(tally.items())]


def decode_chord_tally(obj) -> dict:
    return {parse_matching(text): n for text, n in obj}


def encode_outcome(result) -> dict:
    if isinstance(result, Solution):
        return {
            "status": "solution",
            "values": [encode_scalar(v) for v in result.values],
            "free": list(result.free),
        }
    if isinstance(result, Inconsistent):
        def side(pair):
            tags, value = pair
            return {
                "equations": [list(t) for t in tags],
                "value": None if value is None else encode_scalar(value),
            }

        return {
            "status": "inconsistent",
            "unknown": result.unknown,
            "first": side(result.first),
            "second": side(result.second),
        }
    raise TypeError("expected a Solution or Inconsistent, got %r" % (result,))


def decode_outcome(obj):
    if obj["status"] == "solution":
        return Solution([decode_scalar(v) for v in obj["values"]], tuple(obj["free"]))
    if obj["status"] == "inconsistent":
        def side(rec):
            value = rec["value"]
            return (
                tuple(tuple(t) for t in rec["equations"]),
                None if value is None else decode_scalar(value),
            )

        return Inconsistent(obj["unknown"], side(obj["first"]), side(obj["second"]))
    raise ValueError("unknown outcome status %r" % (obj["status"],))


def decode_pattern_element(obj) -> AnnulusElement:
    if isinstance(obj, list):
        return decode_annulus(obj)
    if isinstance(obj, dict):
        strands = _positive_int(_entry(obj, "strands", "braid"), "strands")
        word = _entry(obj, "word", "braid")
        if isinstance(word, str):
            braid = parse_braid_word(word, strands)
        else:
            braid = BraidWord(strands, _ints(word, "word"))
        colour = obj.get("colour")
        if colour is None:
            return closure_word(braid)
        return decorated_closure(braid, Partition(tuple(_ints(colour, "colour"))))
    raise ValueError("pattern element must be an annulus record or a braid record")


def decode_pattern_system(obj) -> PatternSystem:
    if not isinstance(obj, dict) or "target" not in obj or "patterns" not in obj:
        raise ValueError("pattern file needs 'target' and 'patterns' entries")
    # equal element specs share one decoding, so a closure is taken once
    specs = [obj["target"], *obj["patterns"]]
    keys = [json.dumps(spec, sort_keys=True) for spec in specs]
    decoded = {key: decode_pattern_element(spec) for key, spec in dict(zip(keys, specs)).items()}
    return PatternSystem(decoded[keys[0]], [decoded[key] for key in keys[1:]])
