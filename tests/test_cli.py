"""End-to-end command line checks, run in process through main()."""

import json
from fractions import Fraction
from math import log10

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qskein.chords import CHORD_CAP
from qskein.cli import _format_hseries, main
from qskein.diagram_ring import DiagramVector
from qskein.jsonio import decode_annulus, decode_diagrams, decode_outcome, encode_outcome
from qskein.parsing import ECHO_WIDTH, INTEGER_DIGITS_CAP
from qskein.partitions import Partition, lr_product
from qskein.scalars import Z_LP, LaurentPoly, Scalar
from qskein.adams_skein import Inconsistent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_qint(capsys):
    code, out, err = run(capsys, "qint", "2")
    assert code == 0
    assert out == "s + s^-1\n"
    assert err == ""


def test_alpha(capsys):
    code, out, _ = run(capsys, "alpha", "(2)")
    assert code == 0
    assert out == "s^2 + 1\n"


def test_lr(capsys):
    code, out, _ = run(capsys, "lr", "(2)", "(1)")
    assert code == 0
    assert out == "(3) + (2,1)\n"


def test_adams_both_forms(capsys):
    code, out, _ = run(capsys, "adams", "2")
    assert code == 0
    assert out == "c1^2 - 2*c2\n"
    code, out, _ = run(capsys, "adams", "2", "--as-diagrams")
    assert code == 0
    assert out == "(2) - (1,1)\n"


def test_pm(capsys):
    code, out, _ = run(capsys, "pm", "2")
    assert code == 0
    assert out == "2*x^-1*A2 - (s - s^-1)*A1^2\n"


def test_q_and_theta_agree(capsys):
    # c2 maps to the depth-2 column
    _, q_out, _ = run(capsys, "q", "(1,1)")
    _, theta_out, _ = run(capsys, "theta", "c2")
    assert q_out == theta_out


def test_a_lone_negative_constant_prints_back_to_its_value(capsys):
    from qskein.parsing import parse_scalar

    for text in ("-1 - s^-1", "1 + s^-1", "-2", "-(x - v)/(s + s^-1)"):
        code, out, _ = run(capsys, "theta", text)
        assert code == 0
        assert parse_scalar(out.strip()) == parse_scalar(text), out
    assert run(capsys, "theta", "-1 - s^-1")[1] == "-(1 + s^-1)\n"


def test_closure_infers_strands(capsys):
    code, explicit, _ = run(capsys, "closure", "1 1 1", "--strands", "2")
    assert code == 0
    code, inferred, _ = run(capsys, "closure", "1 1 1")
    assert code == 0
    assert explicit == inferred
    assert explicit == "(x^2*s^2 - x^2 + x^2*s^-2)*A2 + (x^3*s - x^3*s^-1)*A1^2\n"


def test_closure_json_round_trip(capsys):
    code, out, _ = run(capsys, "closure", "1 1 1", "--json")
    assert code == 0
    record = json.loads(out)
    element = decode_annulus(record)
    _, text_out, _ = run(capsys, "closure", "1 1 1")
    assert str(element) + "\n" == text_out


def test_torus_variants(capsys):
    code, out, _ = run(capsys, "torus", "2", "3")
    assert code == 0
    assert "v" in out
    code, out, _ = run(capsys, "torus", "2", "3", "--sl", "2", "--normalize")
    assert code == 0
    assert out == "t^-2 + t^-6 + t^-10 - t^-18\n"
    code, out, _ = run(capsys, "torus", "2", "3", "--sl", "2", "--h-order", "4", "--normalize")
    assert code == 0
    assert out == "2 - 23/4*h^2 + 12*h^3 - 2927/192*h^4\n"


def test_torus_h_order_requires_sl(capsys):
    code, _, err = run(capsys, "torus", "2", "3", "--h-order", "3")
    assert code == 2
    assert err != ""


def test_parse_error_annotated(capsys):
    code, out, err = run(capsys, "theta", "c1 + %")
    assert code == 2
    assert out == ""
    assert "position" in err
    assert "^" in err
    # an input of up to ECHO_WIDTH characters is echoed whole, wherever the error is
    text = "c1 + " * ((ECHO_WIDTH - 1) // 5) + "%"
    assert len(text) > ECHO_WIDTH - 5
    code, out, err = run(capsys, "theta", text)
    assert (code, out) == (2, "")
    assert err == "error: expected a value at position %d\n  %s\n  %s^\n" % (len(text) - 1, text, " " * (len(text) - 1))


def test_theta_of_a_long_monomial(capsys):
    # 1500 column factors: deeper than the interpreter recursion limit
    code, out, err = run(capsys, "theta", "c1^1500")
    assert code == 0
    assert out == "A1^1500\n"
    assert err == ""


def test_qint_cap_refuses_before_building(capsys, monkeypatch):
    from qskein.scalars import QUANTUM_INT_CAP, LaurentPoly

    def no_poly(*args):
        raise AssertionError("built a polynomial past the cap")

    monkeypatch.setattr(LaurentPoly, "_raw", no_poly)
    n = QUANTUM_INT_CAP + 1
    code, out, err = run(capsys, "qint", str(n))
    assert code == 2
    assert out == ""
    assert err == "error: [%d] has %d terms, over the cap of %d\n" % (n, n, QUANTUM_INT_CAP)


def test_closure_support_cap(capsys, monkeypatch):
    monkeypatch.setattr("qskein.hecke.ENUMERATION_CAP", 3)
    code, out, err = run(capsys, "closure", "-1 -3 -5")
    assert (code, out) == (2, "")
    assert err == "error: a Hecke element on 6 strands reached 8 terms, over the cap of 3! = 6\n"


def test_strand_cap_refuses_before_the_closure(tmp_path, capsys, monkeypatch):
    import time

    import qskein.annulus
    from qskein.hecke import STRAND_CAP

    def no_closure(*args):
        raise AssertionError("the closure started")

    monkeypatch.setattr(qskein.annulus, "closure", no_closure)
    start = time.perf_counter()
    code, out, err = run(capsys, "closure", "", "--strands", "1000000")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == "error: a braid on 1000000 strands is over the cap of %d\n" % STRAND_CAP
    # a pattern file's strand count reaches the same refusal, through the cable
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"target": {"word": [], "strands": STRAND_CAP, "colour": [2]},
                                "patterns": [{"word": [], "strands": 1}]}))
    code, out, err = run(capsys, "solve-pattern", str(path))
    assert (code, out) == (2, "")
    assert err == "error: a braid on %d strands is over the cap of %d\n" % (2 * STRAND_CAP, STRAND_CAP)


def test_textless_memory_error_is_named(capsys, monkeypatch):
    import qskein.cli

    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(qskein.cli, "closure_word", exhausted)
    assert run(capsys, "closure", "1") == (2, "", "error: MemoryError\n")


def test_exponent_cap_refuses_before_the_power(capsys, monkeypatch):
    from qskein.linear import FormalSum
    from qskein.parsing import EXPONENT_CAP, parse_scalar
    from qskein.scalars import Scalar

    assert parse_scalar("s^%d" % EXPONENT_CAP) == Scalar.monomial(0, 0, EXPONENT_CAP)
    assert parse_scalar("s^-%d" % EXPONENT_CAP) == Scalar.monomial(0, 0, -EXPONENT_CAP)

    def no_power(*args):
        raise AssertionError("took a power past the cap")

    monkeypatch.setattr(FormalSum, "__pow__", no_power)
    monkeypatch.setattr(Scalar, "__pow__", no_power)
    for text, at in (("(s+1)^%d", 6), ("c1 ^ -%d", 5)):
        text = text % (EXPONENT_CAP + 1)
        code, out, err = run(capsys, "theta", text)
        assert code == 2
        assert out == ""
        assert err.startswith("error: exponent %s is over the cap of %d at position %d\n"
                              % (text[at:], EXPONENT_CAP, at))


def test_power_size_cap_refuses_before_the_power(capsys, monkeypatch):
    from qskein.linear import FormalSum
    from qskein.parsing import POWER_SIZE_CAP
    from qskein.scalars import LaurentPoly, Scalar

    def no_power(*args):
        raise AssertionError("took a power past the cap")

    for cls in (FormalSum, Scalar, LaurentPoly):
        monkeypatch.setattr(cls, "__pow__", no_power)
    for text, at in (("(x+v+s)^5000", 8), ("(s+1)^5000", 6), ("(s+1)^-5000", 6), ("(c1+c2)^300", 8)):
        code, out, err = run(capsys, "theta", text)
        assert code == 2
        assert out == ""
        assert err.startswith("error: the power would hold about ")
        assert "bits, over the cap of %d at position %d\n" % (POWER_SIZE_CAP, at) in err


def test_a_power_with_coefficients_past_the_digit_cap_is_refused_at_the_exponent(capsys, monkeypatch):
    from qskein.linear import FormalSum
    from qskein.parsing import COEFFICIENT_DIGITS_CAP
    from qskein.scalars import LaurentPoly, Scalar

    def no_power(*args):
        raise AssertionError("took a power past the cap")

    big = "1" + "0" * 100
    # (10^100 s + 1)^39 has a coefficient 10^3900, which prints
    code, out, err = run(capsys, "theta", "(%s*s+1)^39" % big)
    assert (code, err) == (0, "")
    assert out.startswith("1%s*s^39 + 39%s*s^38 + " % ("0" * 3900, "0" * 3800))
    for cls in (FormalSum, Scalar, LaurentPoly):
        monkeypatch.setattr(cls, "__pow__", no_power)
    # at 45 it would be 10^4500, past Python's 4,300-digit limit on printing
    for text in ("(%s*s+1)^45" % big, "(%s*s)^45" % big, "(%s*s+1)^-45" % big, "(%s)^45" % big):
        code, out, err = run(capsys, "theta", text)
        assert (code, out) == (2, "")
        assert err.startswith("error: the power's coefficients would have up to ")
        assert " digits, over the cap of %d at position %d\n" % (COEFFICIENT_DIGITS_CAP, text.index("^") + 1) in err


def test_products_of_long_literals_are_refused_at_the_operator(capsys, monkeypatch):
    from qskein.diagram_ring import CPoly
    from qskein.parsing import COEFFICIENT_DIGITS_CAP

    real_mul = CPoly.__mul__

    def mul_under_the_cap(a, b):
        out = real_mul(a, b)
        parts = [Fraction(c) for sc in out.terms.values() for p in (sc.num, sc.den) for c in p.terms.values()]
        if max(abs(k) for c in parts for k in (c.numerator, c.denominator)) >= 10 ** COEFFICIENT_DIGITS_CAP:
            raise AssertionError("multiplied past the cap")
        return out

    monkeypatch.setattr(CPoly, "__mul__", mul_under_the_cap)
    nines = "9" * INTEGER_DIGITS_CAP
    # five factors of 1,000 digits each, refused at the operator that would
    # pass the cap: the fourth, as 9...9^4 has exactly 4,000 digits, but the
    # third for (9...9*s+1), whose bound 10^4000 has 4,001
    for prefix, factor, op, name, before in (("", nines, "*", "product", 4),
                                             ("", "(%s*s+1)" % nines, "*", "product", 3),
                                             ("1/", nines, "/", "quotient", 4)):
        code, out, err = run(capsys, "theta", prefix + op.join([factor] * 5))
        assert (code, out) == (2, "")
        assert err.startswith("error: the %s's coefficients would have up to " % name)
        at = len(prefix) + before * (len(factor) + 1) - 1
        assert " digits, over the cap of %d at position %d\n" % (COEFFICIENT_DIGITS_CAP, at) in err
    # a product of 3,999 digits prints
    code, out, err = run(capsys, "theta", "*".join([nines] * 3 + ["9" * 999]))
    assert (code, err) == (0, "")
    assert len(out) == 3999 + 1


def test_products_of_many_terms_are_refused_at_the_operator(capsys, monkeypatch):
    from qskein.diagram_ring import CPoly
    from qskein.parsing import PRODUCT_PAIRS_CAP

    # (s+1)^50*(v+1)^50 and (s+1)^100*(v+1)^100 print every term
    for n in (50, 100):
        code, out, err = run(capsys, "theta", "(s+1)^%d*(v+1)^%d" % (n, n))
        assert (code, err) == (0, "")
        assert out.count(" + ") + 1 == (n + 1) ** 2
        assert out.startswith("v^%d*s^%d + %d*v^%d*s^%d + " % (n, n, n, n, n - 1))
    # the third factor would make 2,060,451 terms: refused at its operator,
    # counting the 40,401 + 1 terms of the left side against the 51 + 1 of the right
    text = "(s+1)^200*(v+1)^200*(x+1)^50"
    code, out, err = run(capsys, "theta", text)
    assert (code, out) == (2, "")
    assert err.splitlines()[0] == ("error: the product would multiply %d pairs of terms, over the cap of %d "
                                   "at position %d" % (40402 * 52, PRODUCT_PAIRS_CAP, text.rindex("*")))
    text = "x/(s+1)^-400/(v+1)^-400"
    code, out, err = run(capsys, "theta", text)
    assert (code, out) == (2, "")
    assert err.splitlines()[0] == ("error: the quotient would multiply %d pairs of terms, over the cap of %d "
                                   "at position %d" % (402 * 402, PRODUCT_PAIRS_CAP, text.rindex("/")))

    def no_product(*args):
        raise AssertionError("multiplied past the cap")

    # negative powers of scalars are built without a column-polynomial
    # product, so the refused product is the only one
    monkeypatch.setattr(CPoly, "__mul__", no_product)
    code, out, err = run(capsys, "theta", "(s+1)^-600*(v+1)^-600")
    assert (code, out) == (2, "")
    assert err.startswith("error: the product would multiply %d pairs of terms, over the cap of %d at position 10\n"
                          % (602 * 602, PRODUCT_PAIRS_CAP))


# inputs whose result cancels a short numerator into a dense one, each
# refused at the operator named, and the operator's position
SPREADING = [
    ("((s^300)^300-1)/(s-1)", "quotient", 15),
    ("((s^300)^300-1)*(1/(s-1))", "product", 15),
    ("(s^300)^300/(s-1) - 1/(s-1)", "difference", 18),
    ("((x+1)^30*(s^3000-1))/(s-1)", "quotient", 21),
    ("((s^5000)^5000-1)/(s-1)", "quotient", 17),
    ("c1*(s^300)^300/(s-1) + c1/(1-s)", "sum", 21),
]


def test_a_cancellation_that_would_spread_is_refused_at_the_operator(capsys, monkeypatch):
    from qskein import scalars
    from qskein.parsing import PRODUCT_PAIRS_CAP, _s_span

    real_slices = scalars.slices

    def short_slices(p):
        # every cancellation in s cuts its numerator into dense slices first
        if _s_span(p) > 10_000:
            raise AssertionError("cancelled a slice of s-span %d" % _s_span(p))
        return real_slices(p)

    monkeypatch.setattr(scalars, "slices", short_slices)
    for text, name, at in SPREADING:
        code, out, err = run(capsys, "theta", text)
        assert (code, out) == (2, ""), text
        line = err.splitlines()[0]
        assert line.startswith("error: the %s's cancellation would multiply " % name), text
        assert line.endswith(" pairs of terms, over the cap of %d at position %d" % (PRODUCT_PAIRS_CAP, at)), text
    # one slice of s-span 90,000 over the two terms of s - 1
    assert run(capsys, "theta", SPREADING[0][0])[2].startswith(
        "error: the quotient's cancellation would multiply %d pairs" % (90001 * 2))
    # cancellations that stay small print
    code, out, err = run(capsys, "theta", "(s^5000-1)/(s-1)")
    assert (code, err) == (0, "") and out.count(" + ") + 1 == 5000
    assert run(capsys, "theta", "(s - s^-1)/(v - v^-1)") == (0, "(v*s - v*s^-1)/(v^2 - 1)\n", "")
    # a monomial power holds one term, and stays admitted on its own and
    # beside a fraction of another column monomial, which nothing cancels
    assert run(capsys, "theta", "(s^5000)^5000") == (0, "s^25000000\n", "")
    code, out, err = run(capsys, "theta", "c1*(s^5000)^5000 + c2/(s-1)")
    assert (code, err) == (0, "") and out.endswith(" + s^25000000*A1\n")


def test_a_sum_over_coprime_cyclotomic_denominators_counts_only_what_it_can_cancel(capsys, monkeypatch):
    from qskein import scalars
    from qskein.parsing import _s_span

    real_slices = scalars.slices

    def short_slices(p):
        if _s_span(p) > 10_000:
            raise AssertionError("cut a slice of s-span %d" % _s_span(p))
        return real_slices(p)

    monkeypatch.setattr(scalars, "slices", short_slices)
    # s - 1 and s + 1 share no factor: the difference goes over their
    # product, cancels nothing and keeps its four terms
    assert run(capsys, "theta", "(s^300)^300/(s-1) - 1/(s+1)") == (
        0, "(s^90001 + s^90000 - s + 1)/(s^2 - 1)\n", "")
    # s - 2 is no product of Phi_d(s), so that difference would take the
    # dense gcd; over one denominator, s - 1 cancels and fills 90,000 terms
    for text in ("(s^300)^300/(s-2) - 1/(s+2)", "(s^300)^300/(s-1) - 1/(s-1)"):
        code, out, err = run(capsys, "theta", text)
        assert (code, out) == (2, ""), text
        line = err.splitlines()[0]
        assert line.startswith("error: the difference's cancellation would multiply "), text
        assert line.endswith(" at position %d" % (text.index(" - ") + 1)), text


FRACTION_TEXTS = ["s^7-1", "(s^7-1)/(s-1)", "1/(s+1)", "(x*s^5+v)/(s^2-1)", "(s^4-1)/(s^2+1)",
                  "c1/(s-1) + c2", "x/(v+1)", "(s-1)/(v*s+1)", "s^-3+2"]


@pytest.mark.parametrize("text", FRACTION_TEXTS)
def test_the_cancellation_count_bounds_the_result(text):
    from qskein.parsing import _cancel_count, _s_span, parse_cpoly

    left = parse_cpoly(text)
    for other in FRACTION_TEXTS:
        right = parse_cpoly(other)
        cases = [("*", left * right), ("+", left + right), ("-", left - right)]
        if set(right.terms) == {()}:
            cases.append(("/", left.scale(Scalar.one() / right.coeff(()))))
        for op, result in cases:
            pairs = _cancel_count(left, right, op)
            # a sum copies the coefficient of a key on one side only
            made = [c for k, c in result.terms.items() if op in "*/" or k in left.terms and k in right.terms]
            # each term of a numerator over a denominator in s, times each
            # term the denominator's s-span allows
            cancelled = sum(len(c.num.terms) * (_s_span(c.den) + 1) for c in made if _s_span(c.den))
            assert cancelled <= pairs, (text, op, other)
    # no denominator with an s-span, nothing to cancel: (s+1)^300*(v+1)^300
    # is held by the product's pair count alone
    assert _cancel_count(parse_cpoly("(s+1)^300"), parse_cpoly("(v+1)^300"), "*") == 0


def test_sums_of_long_reciprocals_are_refused_at_the_operator(capsys):
    from qskein.parsing import COEFFICIENT_DIGITS_CAP

    p, q = "9" * INTEGER_DIGITS_CAP, "8" * (INTEGER_DIGITS_CAP - 1) + "7"
    # four reciprocals share a denominator of 3,998 digits and print; the
    # fifth reaches 4,999 digits, refused at its plus with a clipped echo
    head = "1/%s + 1/%s + 1/(%s+2) + 1/(%s+2)" % (p, q, p, q)
    code, out, err = run(capsys, "theta", head)
    assert (code, err) == (0, "")
    for op, name in (("+", "sum"), ("-", "difference")):
        code, out, err = run(capsys, "theta", "%s %s 1/(%s+4)" % (head, op, p))
        assert (code, out) == (2, "")
        assert err.splitlines()[0] == ("error: the %s's coefficients would have up to 4999 digits, "
                                       "over the cap of %d at position %d" % (name, COEFFICIENT_DIGITS_CAP, len(head) + 1))
        assert "set_int_max_str_digits" not in err
        assert max(map(len, err.splitlines()[1:])) <= ECHO_WIDTH + 8
    # sums of long integers stay as long as their longest term
    code, out, err = run(capsys, "theta", " + ".join([p] * 5))
    assert (code, out, err) == (0, "4" + "9" * (INTEGER_DIGITS_CAP - 1) + "5\n", "")


def test_coefficients_of_exactly_the_digit_cap_print(capsys):
    from qskein.parsing import COEFFICIENT_DIGITS_CAP, _coefficient_digits

    nines = "9" * INTEGER_DIGITS_CAP
    want = str((10 ** INTEGER_DIGITS_CAP - 1) ** 4)
    assert len(want) == COEFFICIENT_DIGITS_CAP
    for text in (nines + "^4", "*".join([nines] * 4), "(%s)^2*%s^2" % (nines, nines)):
        assert run(capsys, "theta", text) == (0, want + "\n", ""), text[-20:]
    # exact on both sides of the cap, where log2 reads 4000.0 for each
    assert _coefficient_digits(10 ** INTEGER_DIGITS_CAP - 1, 4) == COEFFICIENT_DIGITS_CAP
    assert _coefficient_digits(10 ** INTEGER_DIGITS_CAP, 4) == COEFFICIENT_DIGITS_CAP + 1
    assert _coefficient_digits(10, COEFFICIENT_DIGITS_CAP) == COEFFICIENT_DIGITS_CAP + 1


def test_a_refused_size_names_no_more_digits_than_the_result_has(capsys):
    from qskein.parsing import COEFFICIENT_DIGITS_CAP, _coefficient_digits

    # (10^1000 - 1)^5 has 5,000 digits, and log2 reads 5000.0 for it
    text = "9" * INTEGER_DIGITS_CAP + "^5"
    code, out, err = run(capsys, "theta", text)
    assert (code, out) == (2, "")
    assert err.splitlines()[0] == ("error: the power's coefficients would have up to 5000 digits, "
                                   "over the cap of %d at position %d" % (COEFFICIENT_DIGITS_CAP, len(text) - 1))
    # past the cap the count is exact just under and just over a power of
    # ten, where floats read an integer: (10^k - 1)^n has kn digits, and
    # (10^k)^n and (10^k + 1)^n one more
    for k, ns in ((INTEGER_DIGITS_CAP, (5, 6, 9, 40)), (100, (45, 46)), (7, (600, 5000))):
        for n in ns:
            for off, exact in ((-1, k * n), (0, k * n + 1), (1, k * n + 1)):
                assert _coefficient_digits(10 ** k + off, n) == exact, (k, off, n)
    # elsewhere it is the exact one or one less: 2^n, 3^n and 99^n of 4,002
    # to 4,290 digits
    cases = [(b, n) for b in (2, 3, 99) for n in range(int(4002 / log10(b)), int(4290 / log10(b)), 5)]
    assert len(cases) > 100
    for base, n in cases:
        exact = len(str(base ** n))
        assert exact > COEFFICIENT_DIGITS_CAP + 1
        assert exact - 1 <= _coefficient_digits(base, n) <= exact, (base, n)


def test_powers_under_the_size_cap_run(capsys):
    code, out, err = run(capsys, "theta", "c1^4500")
    assert (code, out, err) == (0, "A1^4500\n", "")
    code, out, err = run(capsys, "theta", "(s+1)^1000")
    assert code == 0
    assert out.startswith("s^1000 + 1000*s^999 + 499500*s^998 + ")
    assert run(capsys, "theta", "(s-s)^3") == (0, "0\n", "")


def test_theta_size_cap_refuses_before_the_product(capsys, monkeypatch):
    from qskein.annulus import THETA_SIZE_CAP, AnnulusElement

    def no_product(*args):
        raise AssertionError("multiplied past the cap")

    monkeypatch.setattr(AnnulusElement, "__mul__", no_product)
    for text in ("c3^21", "c3^30", "c3^60", "c4^8", "c2^100", "c1^9*c3^40", "c2^40*c3^10"):
        code, out, err = run(capsys, "theta", text)
        assert code == 2
        assert out == ""
        assert err.startswith("error: theta of %s has estimated size " % text)
        assert err.endswith(", over the cap of %d\n" % THETA_SIZE_CAP)
    code, out, err = run(capsys, "theta", "c9*c3^30")
    assert (code, out) == (2, "")
    assert err.startswith("error: enumeration over 9 strands exceeds the cap 8")


def test_theta_powers_under_the_size_cap_run(capsys):
    import hashlib

    code, out, err = run(capsys, "theta", "c3^12")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "492b5e01f12aacfed4b63e4d3b6400d656e31b7048ba5f154e6554e9578b919e")


def test_alpha_and_lr_caps_exit_2(capsys, monkeypatch):
    import qskein.partitions

    def no_product(h):
        raise AssertionError("multiplied past the cap")

    monkeypatch.setattr(qskein.partitions, "quantum_int", no_product)
    assert run(capsys, "alpha", "(100,100)") == (2, "", "error: the hook-content product of (100,100) has "
                                                        "estimated size 102010200, over the cap of 8000000\n")
    monkeypatch.setattr(qskein.partitions, "LR_STRIP_CAP", 11)
    qskein.partitions._lr_cached.cache_clear()
    assert run(capsys, "lr", "(2,1)", "(2,1)") == (2, "", "error: the product (2,1) x (2,1) tried 12 strip "
                                                          "placements, over the cap of 11\n")


def test_lr_time_does_not_grow_with_row_length(capsys):
    import time

    start = time.perf_counter()
    code, out, err = run(capsys, "lr", "(1)", "(10000000)")
    assert (code, out, err) == (0, "(10000001) + (10000000,1)\n", "")
    code, out, err = run(capsys, "lr", "(3,2)", "(1000000000,5)", "--json")
    assert time.perf_counter() - start < 1
    assert (code, err) == (0, "")
    # past 10 boxes the first row only shifts the product's first rows
    shift = 1000000000 - 12
    want = {Partition((nu.parts[0] + shift,) + nu.parts[1:]): c
            for nu, c in lr_product(Partition((3, 2)), Partition((12, 5))).items()}
    assert decode_diagrams(json.loads(out)) == DiagramVector({nu: Scalar(c) for nu, c in want.items()})
    assert len(want) == 22


def test_lr_of_a_tall_column_answers(capsys):
    # 1200 rows are more than the interpreter's recursion limit, so strips
    # must be filled without a call per row
    column = "(" + ",".join(["1"] * 1200) + ")"
    want = "(2" + ",1" * 1199 + ") + (1" + ",1" * 1200 + ")\n"
    assert run(capsys, "lr", column, "(1)") == (0, want, "")


def test_lr_of_two_huge_rows_exits_2_and_keeps_only_the_strips_under_the_cap(capsys, monkeypatch):
    import time
    import tracemalloc

    import qskein.partitions

    want = (2, "", "error: the product (1000000000) x (1000000000) tried 200001 strip placements, "
                   "over the cap of 200000\n")
    start = time.perf_counter()
    assert run(capsys, "lr", "(1000000000)", "(1000000000)") == want
    assert time.perf_counter() - start < 3
    # the 10^9 + 1 placements are refused as they are made, not listed first
    monkeypatch.setattr(qskein.partitions, "LR_STRIP_CAP", 1000)
    tracemalloc.start()
    try:
        code, _, err = run(capsys, "lr", "(1000000000)", "(1000000000)")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and err.endswith(" tried 1001 strip placements, over the cap of 1000\n")
    assert peak < 1_000_000


def test_a_colour_past_the_support_cap_writes_one_error_line(capsys):
    import warnings

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "q", "(3,3,3)")
    assert caught == []
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert err.startswith("error: a Hecke element on 9 strands reached ")
    assert err.endswith(" terms, over the cap of 8! = 40320\n")


POWER_TEXTS = ["s+1", "x+v+s", "s+s^-1+2", "2*s+3/7", "c1+s*c2", "c1*c2+x*c3-1", "10^400/3+s"]


@pytest.mark.parametrize("text", POWER_TEXTS)
def test_power_size_bounds_the_result(text):
    from math import log2

    from qskein.parsing import _power_size, _term_count, parse_cpoly

    base = parse_cpoly(text)
    for n in (1, 2, 5, 9):
        size, bound = _power_size(base, n)
        bits = 0.0
        for key, c in (base ** n).terms.items():
            for k in c.num.terms.values():
                assert abs(k.numerator) * k.denominator <= bound ** n, (text, n)
                bits += log2(abs(k.numerator)) + log2(k.denominator) + 64 * len(key)
        assert bits <= size, (text, n)
    # a product's pair count bounds the terms it holds, with every other text
    for other in POWER_TEXTS:
        for n, m in ((1, 1), (2, 5), (5, 2)):
            left, right = base ** n, parse_cpoly(other) ** m
            assert _term_count(left * right) <= _term_count(left) * _term_count(right), (text, other, n, m)


def test_recursion_error_is_reported(capsys, monkeypatch):
    def deep(args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("qskein.cli._cmd_qint", deep)
    code, out, err = run(capsys, "qint", "2")
    assert code == 2
    assert out == ""
    assert err == "error: maximum recursion depth exceeded\n"


def test_memory_error_is_reported(capsys, monkeypatch):
    def huge(args):
        raise MemoryError("out of memory")

    monkeypatch.setattr("qskein.cli._cmd_closure", huge)
    code, out, err = run(capsys, "closure", "1 1")
    assert code == 2
    assert out == ""
    assert err == "error: out of memory\n"


def test_adams_as_cpoly_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["adams", "2", "--as-cpoly"])
    assert exc.value.code == 2


def test_partition_parse_error(capsys):
    code, _, err = run(capsys, "alpha", "(1,2)")
    assert code == 2
    assert "position" in err


def test_unknown_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_psi_chords(capsys):
    code, out, _ = run(capsys, "psi-chords", "1-3,2-4", "2")
    assert code == 0
    assert out.splitlines() == ["8  1-2,3-4", "8  1-3,2-4"]


def test_psi_chords_past_the_old_assignment_cap(capsys):
    # 8^7 sheet assignments, over LIFT_CAP, but only 7! = 5040 lift orders
    code, out, _ = run(capsys, "psi-chords", "1-2,3-4,5-6,7-8", "8")
    assert code == 0
    assert sum(int(line.split()[0]) for line in out.splitlines()) == 8 ** 8


def test_psi_chords_refuses_a_matching_past_the_chord_cap(capsys):
    def matching(n):
        return ",".join("%d-%d" % (2 * i + 1, 2 * i + 2) for i in range(n))

    code, out, _ = run(capsys, "psi-chords", matching(CHORD_CAP), "1")
    assert code == 0 and out == "1  %s\n" % matching(CHORD_CAP)
    code, out, err = run(capsys, "psi-chords", matching(CHORD_CAP + 1), "1")
    assert code == 2 and out == ""
    first_line = err.splitlines()[0]
    assert first_line == "error: endpoint %d needs more chords than the cap of %d at position %d" % (
        2 * CHORD_CAP + 1, CHORD_CAP, len(matching(CHORD_CAP)) + 1)


def test_a_long_refused_literal_is_echoed_clipped_around_the_caret(capsys):
    literal = ",".join("%d-%d" % (2 * i + 1, 2 * i + 2) for i in range(3 * CHORD_CAP))
    code, out, err = run(capsys, "psi-chords", literal, "2")
    assert code == 2 and out == ""
    reason, echo, caret = err.splitlines()
    assert max(map(len, (reason, echo, caret))) <= ECHO_WIDTH + 8
    pos = int(reason.rsplit(" ", 1)[1])
    assert 0 < pos < len(literal) - ECHO_WIDTH
    assert echo.startswith("  ...") and echo.endswith("...") and caret.strip() == "^"
    # the window shown is the literal's own text, placed so the caret is under pos
    col = len(caret) - 1
    shown = echo[5:-3]
    assert literal[pos - (col - 5):][:len(shown)] == shown
    assert echo[col] == literal[pos]


@pytest.mark.parametrize("command,head,digits,tail", [
    ("psi-chords", "1-", 5000, ["2"]),
    ("psi-chords", "1-", 4000, ["2"]),
    ("theta", "c", 5000, []),
    ("theta", "", INTEGER_DIGITS_CAP + 1, []),
])
def test_an_integer_over_the_digit_cap_is_refused_at_its_first_digit(capsys, command, head, digits, tail):
    # past 4,300 digits int() itself refuses, and below that the chord
    # refusal would repeat the whole endpoint in its reason
    code, out, err = run(capsys, command, head + "9" * digits, *tail)
    assert code == 2 and out == ""
    reason, echo, caret = err.splitlines()
    assert reason == "error: an integer of %d digits is over the cap of %d digits at position %d" % (
        digits, INTEGER_DIGITS_CAP, len(head))
    assert max(map(len, (reason, echo, caret))) <= ECHO_WIDTH + 8
    assert caret == "  " + " " * len(head) + "^"


@pytest.mark.parametrize("argv", [("psi-chords", "1-\u00b2", "2"), ("theta", "s^\u00b2"), ("theta", "c1\u00b2")])
def test_a_digit_that_is_not_ascii_is_a_parse_error(capsys, argv):
    # str.isdigit() holds for superscripts, which int() refuses
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert " at position " in err.splitlines()[0] and "int()" not in err


def test_an_integer_at_the_digit_cap_is_read(capsys):
    literal = "7" * INTEGER_DIGITS_CAP
    code, out, err = run(capsys, "theta", literal)
    assert (code, out, err) == (0, literal + "\n", "")


def test_verify_suite(capsys):
    code, out, err = run(capsys, "verify", "--suite", "xbiff", "--max", "2")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert all(line.startswith("PASS xbiff") for line in lines)
    assert err == ""


def test_verify_max_above_default_warns(capsys):
    code, out, err = run(capsys, "verify", "--suite", "pattern", "--max", "3")
    assert code == 0
    assert err.startswith("warning: --max 3 exceeds the tested size 2 for suite pattern")


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "cd", "--json")
    assert code == 0
    rows = json.loads(out)
    assert all(row[0] == "PASS" for row in rows)


def test_solve_pattern_solution(tmp_path, capsys):
    payload = {
        "target": {"word": [1], "strands": 2},
        "patterns": [{"word": [1], "strands": 2}],
    }
    path = tmp_path / "system.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "solve-pattern", str(path))
    assert code == 0
    assert out == "solution [1]\n"


def test_solve_pattern_inconsistent_json(tmp_path, capsys):
    from qskein.annulus import Q
    from qskein.jsonio import encode_annulus
    from qskein.partitions import Partition

    target = Q(Partition((4,))) - Q(Partition((2, 1, 1))) + Q(Partition((2, 2)))
    payload = {
        "target": encode_annulus(target),
        "patterns": [
            {"word": [1], "strands": 2, "colour": [1, 1]},
            {"word": [-1], "strands": 2, "colour": [1, 1]},
        ],
    }
    path = tmp_path / "cable.json"
    path.write_text(json.dumps(payload))
    # both outputs as printed before decorated_closure replaced the
    # all-bundles decoration
    code, out, _ = run(capsys, "solve-pattern", str(path))
    assert code == 0
    assert out == ("inconsistent: unknown 0 is 0 from {A4, A3*A1} but "
                   "(4*x^-4*s^4 + 2*x^-4*s^2)/(3*s^6 + 3*s^4 + s^2 + 1) from {A2^2, A3*A1}\n")

    code, out, _ = run(capsys, "solve-pattern", str(path), "--json")
    assert code == 0
    assert out == (
        '{"status": "inconsistent", "unknown": 0, '
        '"first": {"equations": [[4], [3, 1]], "value": {"num": [], "den": [[0, 0, 0, 1]]}}, '
        '"second": {"equations": [[2, 2], [3, 1]], "value": {"num": [[-4, 0, 2, 2], [-4, 0, 4, 4]], '
        '"den": [[0, 0, 0, 1], [0, 0, 2, 1], [0, 0, 4, 3], [0, 0, 6, 3]]}}}\n')
    outcome = decode_outcome(json.loads(out))
    assert isinstance(outcome, Inconsistent)


def test_solve_pattern_names_a_target_monomial_no_pattern_holds(tmp_path, capsys):
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"target": [[[3], 1]], "patterns": [[[[2, 1], 1]], [[[1, 1, 1], 1]]]}))
    text = "inconsistent: the target holds A3, which no pattern holds\n"
    assert run(capsys, "solve-pattern", str(path)) == (0, text, "")

    code, out, _ = run(capsys, "solve-pattern", str(path), "--json")
    assert code == 0
    assert out == (
        '{"status": "inconsistent", "unknown": 0, '
        '"first": {"equations": [[2, 1], [1, 1, 1]], "value": {"num": [], "den": [[0, 0, 0, 1]]}}, '
        '"second": {"equations": [[3]], "value": null}}\n')
    assert str(decode_outcome(json.loads(out))) + "\n" == text


def test_solve_pattern_reports_a_free_unknown(tmp_path, capsys):
    # scalars written as expression strings, as hand-written files may
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"target": [[[1, 1], "2*(s - s^-1)"]],
                                "patterns": [[[[1, 1], "s - s^-1"]], [[[1, 1], "s - s^-1"]]]}))
    text = "solution [2, 0] with free unknowns [1]\n"
    assert run(capsys, "solve-pattern", str(path)) == (0, text, "")

    code, out, _ = run(capsys, "solve-pattern", str(path), "--json")
    assert code == 0
    outcome = decode_outcome(json.loads(out))
    assert str(outcome) + "\n" == text
    assert json.dumps(encode_outcome(outcome)) + "\n" == out


def test_solve_pattern_reads_braid_words_as_strings(tmp_path, capsys):
    path = tmp_path / "system.json"
    path.write_text(json.dumps({
        "target": {"word": "1 1 1", "strands": 2},
        "patterns": [{"word": w, "strands": 2} for w in ("1", "-1", "")],
    }))
    assert run(capsys, "solve-pattern", str(path)) == (
        0, "solution [x^2*s^2 + x^2*s^-2, -x^4, 0] with free unknowns [2]\n", "")


def test_solve_pattern_reads_annulus_keys_in_any_order(tmp_path, capsys):
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"target": [[[1, 2], 1]], "patterns": [[[[2, 1], 1]]]}))
    code, out, _ = run(capsys, "solve-pattern", str(path))
    assert (code, out) == (0, "solution [1]\n")


@pytest.mark.parametrize("payload", [
    {"target": {"word": [1], "strands": "2"}, "patterns": [{"word": [1], "strands": 2}]},
    {"target": [[[2], {"num": [[0, 0, 0, 1]]}]], "patterns": [[[[2], 1]]]},
    {"target": [[["a"], 1]], "patterns": [[[[1], 1]]]},
    {"target": {"word": [1.7], "strands": 2}, "patterns": [{"word": [1], "strands": 2}]},
    {"target": {"word": [1], "strands": 2, "colour": [1.5]}, "patterns": [{"word": [1], "strands": 2}]},
    {"target": [[[1], {"num": [["a", 0, 0, 1]], "den": [[0, 0, 0, 1]]}]], "patterns": [[[[1], 1]]]},
    {"target": [[[1], 1, 2]], "patterns": [[[[1], 1]]]},
    {"target": [[[1], True]], "patterns": [[[[1], 1]]]},
], ids=["strands-not-an-int", "scalar-without-den", "key-not-an-index", "letter-not-an-int",
        "colour-not-ints", "exponent-not-an-int", "term-not-a-pair", "scalar-is-true"])
def test_solve_pattern_refuses_a_malformed_record(tmp_path, capsys, payload):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "solve-pattern", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("coeff,reason", [
    ("1/0", "the denominator is zero at position 2"),
    ("1/2/3", "unexpected trailing input at position 3"),
    ("7" * 5000 + "/3", "an integer of 5000 digits is over the cap of 4300 digits at position 0"),
    (True, "coefficient must be an int or 'p/q' string, got True"),
], ids=["zero-denominator", "two-slashes", "5000-digit-numerator", "json-true"])
def test_solve_pattern_refuses_a_bad_coefficient(tmp_path, capsys, coeff, reason):
    path = tmp_path / "system.json"
    scalar = {"num": [[0, 0, 0, coeff]], "den": [[0, 0, 0, 1]]}
    path.write_text(json.dumps({"target": [[[1], scalar]], "patterns": [[[[1], 1]]]}))
    code, out, err = run(capsys, "solve-pattern", str(path))
    assert (code, out) == (2, "")
    assert err.splitlines()[0] == "error: " + reason
    assert max(map(len, err.splitlines())) <= ECHO_WIDTH + 8


def test_solve_pattern_refuses_a_json_integer_past_the_conversion_limit(tmp_path, capsys):
    path = tmp_path / "system.json"
    scalar = '{"num": [[0, 0, 0, %s]], "den": [[0, 0, 0, 1]]}' % ("7" * 5000)
    path.write_text('{"target": [[[1], %s]], "patterns": [[[[1], 1]]]}' % scalar)
    code, out, err = run(capsys, "solve-pattern", str(path))
    assert (code, out) == (2, "")
    assert err.splitlines()[0] == "error: an integer of 5000 digits is over the cap of 4300 digits at position 0"
    assert "set_int_max_str_digits" not in err
    assert max(map(len, err.splitlines())) <= ECHO_WIDTH + 8


def test_psi_chords_names_an_endpoint_past_twice_the_chord_count(capsys):
    for literal, reason in [("1-4", "endpoint 4 is out of range for 1 chord at position 2"),
                            ("5-1,2-3", "endpoint 5 is out of range for 2 chords at position 0"),
                            ("1-2,3-6,4-5,9-7", "endpoint 9 is out of range for 4 chords at position 12")]:
        code, out, err = run(capsys, "psi-chords", literal, "2")
        assert (code, out) == (2, ""), literal
        assert err.splitlines()[0] == "error: " + reason


def test_a_long_rational_coefficient_reads_back_from_the_json_printed(tmp_path, capsys):
    # 1/(10^1000 - 1)^2 prints a denominator of 2,000 digits, past the cap
    # on typed integers
    text = "s/(%s^2)" % ("9" * INTEGER_DIGITS_CAP)
    code, out, _ = run(capsys, "theta", text, "--json")
    assert code == 0 and len(json.loads(out)[0][1]["num"][0][3]) == 2002
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"target": json.loads(out), "patterns": [json.loads(out)]}))
    assert run(capsys, "solve-pattern", str(path)) == (0, "solution [1]\n", "")


def test_solve_pattern_refuses_a_colour_past_the_cap(tmp_path, capsys):
    payload = {
        "target": {"word": [], "strands": 1},
        "patterns": [{"word": [], "strands": 1, "colour": [9]}],
    }
    path = tmp_path / "system.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "solve-pattern", str(path))
    assert (code, out) == (2, "")
    assert "exceeds the cap 8" in err


def test_solve_pattern_missing_file(capsys):
    code, _, err = run(capsys, "solve-pattern", "/no/such/file.json")
    assert code == 2
    assert err != ""


def test_torus_link_two_components(capsys):
    # non-coprime parameters give the torus link; two components double the
    # writhe-free constant term
    code, out, _ = run(capsys, "torus", "2", "4", "--sl", "2", "--h-order", "2")
    assert code == 0
    assert out == "4 + 7*h^2\n"


def test_torus_knots_past_the_caps_exit_2(capsys):
    from qskein.adams_skein import TORUS_HOOK_CAP, TORUS_WORK_CAP

    k = TORUS_HOOK_CAP + 1
    assert run(capsys, "torus", str(k), str(k + 1), "--sl", "3") == (
        2, "", "error: the (%d, %d) torus knot sums hooks of %d cells, over the cap of %d\n"
        % (k, k + 1, k, TORUS_HOOK_CAP))
    top = TORUS_WORK_CAP // 8 + 1
    assert run(capsys, "torus", str(top), "2") == (
        2, "", "error: the (%d, 2) torus knot has estimated work %d, over the cap of %d\n"
        % (top, 8 * top, TORUS_WORK_CAP))


@pytest.mark.parametrize("den,argv,message", [
    (Z_LP, ("--h-order", "2"), "pole at h = 0: denominator vanishes to order 1, numerator does not"),
    (LaurentPoly({(-4, 1, 0): 1, (0, 0, 0): -1}), (), "denominator vanishes identically at N = 2"),
], ids=["pole", "collapsing"])
def test_a_value_that_does_not_specialise_exits_1(monkeypatch, capsys, den, argv, message):
    # every torus value specialises and expands, so a stand-in value pins
    # the exit code cli.main documents for these errors
    monkeypatch.setattr("qskein.cli.torus_invariant", lambda m, p, normalize: Scalar(1, den))
    assert run(capsys, "torus", "2", "3", "--sl", "2", *argv) == (1, "", "error: %s\n" % message)


def test_torus_knots_that_used_to_hang_answer(capsys):
    code, out, err = run(capsys, "torus", "12", "5", "--sl", "3", "--h-order", "4", "--normalize")
    assert (code, out, err) == (0, "3 - 3431*h^2 + 102960*h^3 - 19116239/12*h^4\n", "")
    code, out, err = run(capsys, "torus", "7", "20", "--sl", "2", "--h-order", "2", "--normalize")
    assert (code, err) == (0, "")
    assert out.startswith("2 - ")


def _format_hseries_oracle(coeffs) -> str:
    """The h-series printer the CLI kept before it printed through scalars.format_terms."""
    parts = []
    for i, c in enumerate(coeffs):
        if not c:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            power = "h" if i == 1 else "h^%d" % i
            body = power if mag == 1 else "%s*%s" % (mag, power)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts) if parts else "0"


_H_COEFFS = st.one_of(
    st.sampled_from([0, 1, -1, Fraction(-1, 2), Fraction(-23, 4)]),
    st.integers(-50, 50),
    st.fractions(max_denominator=200),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_H_COEFFS, max_size=8))
def test_h_series_prints_as_the_old_printer(coeffs):
    assert _format_hseries(coeffs) == _format_hseries_oracle(coeffs)


def test_h_series_printer_edge_cases():
    for coeffs in ([], [0, 0], [1], [-1], [0, 1], [0, -1], [Fraction(-1, 3), 0, -1, Fraction(5, 2)]):
        assert _format_hseries(coeffs) == _format_hseries_oracle(coeffs), coeffs
    assert _format_hseries([2, 0, Fraction(-23, 4), 12]) == "2 - 23/4*h^2 + 12*h^3"


def _golden_calls():
    """q, alpha, theta, pm, adams and torus over small inputs, plain and --json."""
    from qskein.partitions import partitions_of

    shapes = [lam for n in range(1, 6) for lam in partitions_of(n)]
    calls = [("q", str(lam)) for lam in shapes] + [("alpha", str(lam)) for lam in shapes]
    calls += [("theta", "*".join("c%d" % k for k in lam.parts)) for lam in shapes]
    calls += [(cmd, str(m)) for cmd in ("pm", "adams") for m in range(1, 7)]
    for m, p in ((2, 3), (3, 4), (2, 5)):
        calls.append(("torus", str(m), str(p)))
        for n in (2, 3):
            calls.append(("torus", str(m), str(p), "--sl", str(n), "--h-order", "4", "--normalize"))
    return [argv + extra for argv in calls for extra in ((), ("--json",))]


# sha256 of every call's stdout, stderr and exit code, recorded from the
# general Scalar route before the cyclotomic one was added.
GOLDEN_DIGEST = "9a8be7e6b96a3bba9a1a16857a21da14dfa58ae8e32aa6728dcddd5c03d547cd"


def test_golden_outputs_are_unchanged(capsys):
    import hashlib

    digest = hashlib.sha256()
    for argv in _golden_calls():
        code, out, err = run(capsys, *argv)
        digest.update(("%s\0%s\0%s\0%d\0" % (" ".join(argv), out, err, code)).encode())
    assert digest.hexdigest() == GOLDEN_DIGEST
