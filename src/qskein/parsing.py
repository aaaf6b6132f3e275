"""Parsers for the text formats the command line accepts: scalar and
column-polynomial expressions, partition literals, braid words (returned
as a BraidWord), chord matchings and JSON rationals.  Each literal type has
exactly one parser here.  All errors carry the offending position."""

import sys
from fractions import Fraction
from math import comb, lcm, log2, log10, prod

from .chords import CHORD_CAP, ChordDiagram
from .diagram_ring import CPoly, gen
from .hecke import BraidWord
from .partitions import Partition
from .scalars import LaurentPoly, Scalar, uncancelled_lcm_span


# Longest input ParseError.annotated echoes whole; a longer one is echoed as
# this many characters around the error position.
ECHO_WIDTH = 72

# Most digits an integer literal may have.  A longer run is refused at its
# first digit before it is converted: Python's int() refuses more than 4,300
# digits with advice meant for programmers, and the longest integer in the
# README, the verify suites and the golden outputs has 12.
INTEGER_DIGITS_CAP = 1000


class ParseError(ValueError):
    """Syntax error with a 0-based position into the parsed text."""

    def __init__(self, message: str, text: str, pos: int):
        super().__init__("%s at position %d" % (message, pos))
        self.reason = message
        self.text = text
        self.pos = pos

    def annotated(self) -> str:
        """Multi-line rendering with a caret under the offending position.
        Past ECHO_WIDTH characters the input is clipped to a window of that
        width around the position, and "..." marks each end cut off.

        >>> print(ParseError("bad digit", "7" * 100 + "x" + "7" * 100, 100).annotated())
        bad digit at position 100
          ...777777777777777777777777777777777777x77777777777777777777777777777777777...
                                                 ^
        """
        text, pos = self.text, self.pos
        start = max(0, min(pos - ECHO_WIDTH // 2, len(text) - ECHO_WIDTH))
        end = start + ECHO_WIDTH
        head = "..." if start else ""
        tail = "..." if end < len(text) else ""
        return "%s at position %d\n  %s%s%s\n  %s^" % (
            self.reason, pos, head, text[start:end], tail, " " * (len(head) + pos - start))


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str, pos: int | None = None):
        raise ParseError(message, self.text, self.pos if pos is None else pos)

    def skip_space(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_space()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        c = self.peek()
        self.pos += 1
        return c

    def expect(self, ch: str):
        if self.peek() != ch:
            self.error("expected '%s'" % ch)
        self.pos += 1

    def at_end(self) -> bool:
        return self.peek() == ""

    def integer(self, cap: int = INTEGER_DIGITS_CAP) -> int:
        self.skip_space()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in "0123456789":
            self.pos += 1
        if self.pos == digits:
            self.error("expected an integer", start)
        self.check_digits(digits, cap)
        return int(self.text[start:self.pos])

    def check_digits(self, start: int, cap: int = INTEGER_DIGITS_CAP):
        """Refuse the digit run from start to the current position, at its
        first digit, when it has more than cap digits."""
        if self.pos - start > cap:
            self.error("an integer of %d digits is over the cap of %d digits" % (self.pos - start, cap), start)

    def name(self) -> str:
        self.skip_space()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum() or self.text[self.pos] == "_"):
            self.pos += 1
        if self.pos == start:
            self.error("expected a name")
        return self.text[start:self.pos]


# ---------------------------------------------------------------------------
# scalar / column-polynomial expressions
#
# expr   := ['-'] term (('+' | '-') term)*
# term   := factor (('*' | '/') factor)*
# factor := atom ['^' integer]
# atom   := integer | 'x' | 'v' | 's' | 'c'<digits> | '(' expr ')'
#
# Values are carried as column polynomials; purely scalar subexpressions stay
# invertible, so fractions like (s - s^-1)/(v - v^-1) parse fine.  An
# exponent larger than EXPONENT_CAP in absolute value is a parse error, raised
# before the power is taken.  So is a power whose result _power_size puts
# over POWER_SIZE_CAP bits, counted over the powers of bases with more than
# one term, or whose longest coefficient it puts over COEFFICIENT_DIGITS_CAP
# decimal digits: Python refuses to print an int of more than 4,300 digits.
# A product or quotient is held to the same digit cap, before it is taken,
# and a sum or difference once it is taken.  A product or quotient is also
# refused before it is taken when it would multiply more than
# PRODUCT_PAIRS_CAP pairs of terms, each numerator or denominator term of
# one side by each of the other: that count bounds both its work and the
# terms it holds.  (s+1)^300*(v+1)^300 multiplies 91,204 pairs in about
# 0.5 s; (s+1)^200*(v+1)^200*(x+1)^50 would multiply 2,100,904 at its
# second product, building 2 million terms in about 8.5 s and 1.1 GB.
# A result over a denominator in s may cancel a common factor, which fills
# in an (x, v)-slice up to its s-span + 1 terms: (s^90000 - 1)/(s - 1) has
# 90,000.  So any of the four operators is refused before it is taken when
# the cancellation would multiply more than PRODUCT_PAIRS_CAP pairs of
# terms, each of those filled slices by each term of the denominator
# (_cancel_pairs).  A sum over denominators that are products of Phi_d(s)
# cancels only the factors both sides hold as often as their lcm does
# (scalars._sum_over_lcm); when there are none, nothing fills in, so
# (s^300)^300/(s-1) - 1/(s+1) is counted by its four terms and prints.

EXPONENT_CAP = 5000
POWER_SIZE_CAP = 2_000_000
COEFFICIENT_DIGITS_CAP = 4000
PRODUCT_PAIRS_CAP = 100_000


def _power_size(value: CPoly, n: int) -> tuple[int, int]:
    """Estimated bits in value^n, and the largest base, 1-norm * L^2 with L
    the common denominator, over the polynomials the power expands: the
    numerator over every column monomial, and each distinct denominator.
    Each coefficient of a polynomial's n-th power is at most base^n.  N
    alone does not bound the work: (s+1)^N has N+1 terms of up to N bits,
    (x+v+s)^N about N^2/2 terms.  One of k > 1 terms gets the fewer of the
    monomials in the box n times its exponents span and the multisets of n
    terms, each with n * log2(base) bits and n times the longest key's
    column indices at 64 bits each.  (s+1)^1000 holds about 10^6 bits;
    (s+1)^5000, (x+v+s)^150 and (c1+c2)^200 are over the cap."""
    cols = sorted({j for key in value.terms for j in key})
    numerator = {
        exps + tuple(key.count(j) for j in cols): k
        for key, c in value.terms.items()
        for exps, k in c.num.terms.items()
    }
    polys = [(numerator, 64 * max(map(len, value.terms), default=0))]
    polys += [(den.terms, 0) for den in {c.den for c in value.terms.values()}]
    size, largest = 0, 1
    for poly, key_bits in polys:
        if not poly:
            continue
        den = lcm(*(k.denominator for k in poly.values()))
        base = int(sum(map(abs, poly.values())) * den) * den
        largest = max(largest, base)
        if len(poly) > 1:
            terms = min(prod(n * (max(a) - min(a)) + 1 for a in zip(*poly)), comb(n + len(poly) - 1, n))
            size += int(terms * n * (max(1.0, log2(base)) + key_bits))
    return size, largest


def _coefficient_digits(bound: int, n: int) -> int:
    """Decimal digits of bound^n, exact up to COEFFICIENT_DIGITS_CAP + 1:
    in floats, (10^1000 - 1)^4, of 4,000 digits, reads 4000.0.  Further
    past the cap, with bound = t * 10^q and 1 <= t < 10, it counts
    nq + floor(n log10 t) + 1 with the floor taken a little low: never more
    than exact, at most one less, and exact where t^n is near 1 or 10^n."""
    digits = log10(bound)
    if n * digits <= COEFFICIENT_DIGITS_CAP + 1:
        return len(str(bound ** n))
    q = int(digits)
    q += (10 ** (q + 1) <= bound) - (10 ** q > bound)
    return n * q + int(n * log10(bound / 10 ** q) - n * 1e-12) + 1


def _atom(sc: _Scanner) -> CPoly:
    c = sc.peek()
    if c == "(":
        sc.take()
        value = _expr(sc)
        sc.expect(")")
        return value
    if c.isdigit():
        return CPoly.one().scale(sc.integer())
    if c.isalpha():
        start = sc.pos
        word = sc.name()
        if word in ("x", "v", "s"):
            exps = {"x": (1, 0, 0), "v": (0, 1, 0), "s": (0, 0, 1)}[word]
            return CPoly.one().scale(Scalar.monomial(*exps))
        if word[0] == "c" and word[1:].isascii() and word[1:].isdigit():
            sc.check_digits(start + 1)
            return gen(int(word[1:]))
        sc.error("unknown name '%s'" % word, start)
    sc.error("expected a value")


def _scalar_part(text: str, value: CPoly, pos: int) -> Scalar:
    if set(value.terms) - {()}:
        raise ParseError("this operation needs a scalar, not column generators", text, pos)
    return value.coeff(())


def _factor(sc: _Scanner) -> CPoly:
    start = sc.pos
    value = _atom(sc)
    if sc.peek() == "^":
        sc.take()
        sc.skip_space()
        at = sc.pos
        n = sc.integer()
        if abs(n) > EXPONENT_CAP:
            sc.error("exponent %d is over the cap of %d" % (n, EXPONENT_CAP), at)
        size, bound = _power_size(value, abs(n))
        if size > POWER_SIZE_CAP:
            sc.error("the power would hold about %d bits, over the cap of %d" % (size, POWER_SIZE_CAP), at)
        digits = _coefficient_digits(bound, abs(n))
        if digits > COEFFICIENT_DIGITS_CAP:
            sc.error("the power's coefficients would have up to %d digits, over the cap of %d"
                     % (digits, COEFFICIENT_DIGITS_CAP), at)
        if n < 0:
            return CPoly.one().scale(_scalar_part(sc.text, value, start) ** n)
        return value ** n
    return value


def _term_count(value: CPoly) -> int:
    """The numerator and denominator terms of every coefficient of value."""
    return sum(len(c.num.terms) + len(c.den.terms) for c in value.terms.values())


def _fraction_shape(pairs) -> tuple[int, int, int, int, int]:
    """The (numerator, denominator) pairs of a value's coefficients as one
    fraction N/D over the product D of their distinct denominators, each
    column monomial in its own (x, v)-slices: (N's slices, N's least and
    greatest power of s, D's slices, D's s-span).  A denominator in normal
    form has least power s^0, so N's part from a coefficient over d is its
    numerator times D/d, whose s-span is D's less d's."""
    dens = {den: (_slice_count(den), _s_span(den)) for _, den in pairs}
    dslices, dspan = prod(n for n, _ in dens.values()), sum(w for _, w in dens.values())
    slices = sum(_slice_count(num) * dslices // dens[den][0] for num, den in pairs)
    lo = min((min(e[2] for e in num.terms) for num, _ in pairs), default=0)
    hi = max((max(e[2] for e in num.terms) + dspan - dens[den][1] for num, den in pairs), default=0)
    return slices, lo, hi, dslices, dspan


def _slice_count(p: LaurentPoly) -> int:
    return len({e[:2] for e in p.terms})


def _s_span(p: LaurentPoly) -> int:
    return max(e[2] for e in p.terms) - min(e[2] for e in p.terms)


def _cancel_pairs(a, b, op: str) -> int:
    """Pairs of terms the cancellation in the result of a op b could
    multiply, from the (numerator, denominator) pairs of each side; 0 when
    its denominator has no s-span, so nothing can cancel in s.  A product's
    numerator has at most the product of both sides' slices and the sum of
    their s-spans, a sum's is N_a D_b + N_b D_a; each slice of the reduced
    numerator holds at most its s-span + 1 terms, and each of those meets
    every term of the denominator, at most its s-span + 1, in the long
    division.  A sum that cancels nothing holds no more terms than
    _uncancelled_sum_terms counts."""
    sa, loa, hia, dsa, dwa = _fraction_shape(a)
    sb, lob, hib, dsb, dwb = _fraction_shape(b)
    if op in "*/":
        slices, lo, hi = sa * sb, loa + lob, hia + hib
    else:
        slices, lo, hi = sa * dsb + sb * dsa, min(loa, lob), max(hia + dwb, hib + dwa)
    dspan = dwa + dwb
    if not dspan:
        return 0
    terms = slices * (hi - lo + 1)
    if op in "+-":
        sparse = _uncancelled_sum_terms(a[0], b[0])
        if sparse is not None:
            terms = min(terms, sparse)
    return terms * (dspan + 1)


def _uncancelled_sum_terms(a, b) -> int | None:
    """Terms of the sum of the fractions a and b, (numerator, denominator)
    pairs, when their denominators factor into Phi_d(s) and no factor is
    held by both as often as the lcm holds it: the sum then goes over the
    lcm and cancels nothing (scalars._sum_over_lcm), each numerator only
    multiplied by the factors its denominator misses.  For numerators of
    ta and tb terms over denominators of s-spans wa and wb, with an lcm of
    s-span L, that is at most ta (L - wa + 1) + tb (L - wb + 1).  None
    when a factor may cancel or a denominator does not factor."""
    (na, da), (nb, db) = a, b
    lcm_span = uncancelled_lcm_span(da, db)
    if lcm_span is None:
        return None
    return len(na.terms) * (lcm_span - _s_span(da) + 1) + len(nb.terms) * (lcm_span - _s_span(db) + 1)


def _cancel_count(value: CPoly, operand: CPoly, op: str) -> int:
    """Pairs of terms the cancellations in value op operand could multiply
    (_cancel_pairs).  A sum adds coefficients key by key, and a product by a
    scalar, a quotient among them, multiplies each coefficient by it, so
    these count coefficient by coefficient; a product of two column
    polynomials merges keys, so each side counts as one fraction."""
    left = {k: [(c.num, c.den)] for k, c in value.terms.items()}
    if op == "/":
        c = operand.coeff(())
        right = {(): [(c.den, c.num)]}
    else:
        right = {k: [(c.num, c.den)] for k, c in operand.terms.items()}
    if op in "+-":
        groups = [(left[k], right[k]) for k in left.keys() & right.keys()]
    elif set(left) <= {()} or set(right) <= {()}:
        groups = [(a, b) for a in left.values() for b in right.values()]
    else:
        groups = [(sum(left.values(), []), sum(right.values(), []))]
    return sum(_cancel_pairs(a, b, op) for a, b in groups)


def _check_cancel(sc: _Scanner, value: CPoly, operand: CPoly, op: str, at: int) -> None:
    """Refuse value op operand, the operator at position at, past
    PRODUCT_PAIRS_CAP pairs of terms in its cancellations."""
    pairs = _cancel_count(value, operand, op)
    if pairs > PRODUCT_PAIRS_CAP:
        name = {"*": "product", "/": "quotient", "+": "sum", "-": "difference"}[op]
        sc.error("the %s's cancellation would multiply %d pairs of terms, over the cap of %d"
                 % (name, pairs, PRODUCT_PAIRS_CAP), at)


def _term(sc: _Scanner) -> CPoly:
    value = _factor(sc)
    while True:
        c = sc.peek()
        if c not in ("*", "/"):
            return value
        at = sc.pos
        sc.take()
        start = sc.pos
        operand = _factor(sc)
        # a coefficient of a product or quotient is at most the product of
        # both sides' bounds
        digits = _coefficient_digits(_power_size(value, 1)[1] * _power_size(operand, 1)[1], 1)
        if digits > COEFFICIENT_DIGITS_CAP:
            sc.error("the %s's coefficients would have up to %d digits, over the cap of %d"
                     % ("product" if c == "*" else "quotient", digits, COEFFICIENT_DIGITS_CAP), at)
        pairs = _term_count(value) * _term_count(operand)
        if pairs > PRODUCT_PAIRS_CAP:
            sc.error("the %s would multiply %d pairs of terms, over the cap of %d"
                     % ("product" if c == "*" else "quotient", pairs, PRODUCT_PAIRS_CAP), at)
        if c == "*":
            _check_cancel(sc, value, operand, c, at)
            value = value * operand
        else:
            divisor = _scalar_part(sc.text, operand, start)
            if divisor:  # Scalar division refuses a zero divisor
                _check_cancel(sc, value, operand, c, at)
            value = value.scale(Scalar.one() / divisor)


def _longest_integer(value: CPoly) -> int:
    """The largest integer value prints: a numerator or denominator of a
    coefficient of any numerator or denominator polynomial."""
    return max((max(abs(k.numerator), k.denominator)
                for c in value.terms.values() for poly in (c.num, c.den) for k in poly.terms.values()),
               default=1)


def _expr(sc: _Scanner) -> CPoly:
    if sc.peek() == "-":
        sc.take()
        value = -_term(sc)
    else:
        value = _term(sc)
    while True:
        c = sc.peek()
        if c not in ("+", "-"):
            return value
        at = sc.pos
        sc.take()
        operand = _term(sc)
        _check_cancel(sc, value, operand, c, at)
        value = value + operand if c == "+" else value - operand
        # a sum of operands under the cap costs no more than a product of
        # them, so its coefficients are measured once it is taken: a bound
        # from the operands would refuse sums that print, since a common
        # denominator multiplies what the sum's reduction then cancels
        digits = _coefficient_digits(_longest_integer(value), 1)
        if digits > COEFFICIENT_DIGITS_CAP:
            sc.error("the %s's coefficients would have up to %d digits, over the cap of %d"
                     % ("sum" if c == "+" else "difference", digits, COEFFICIENT_DIGITS_CAP), at)


def parse_cpoly(text: str) -> CPoly:
    """Parse an expression in the column generators, e.g. "c1^2 - 2*c2".

    >>> str(parse_cpoly("c1^2 - 2*c2"))
    'c1^2 - 2*c2'
    """
    sc = _Scanner(text)
    value = _expr(sc)
    if not sc.at_end():
        sc.error("unexpected trailing input")
    return value


def parse_scalar(text: str) -> Scalar:
    """Parse a scalar expression in x, v, s.

    >>> str(parse_scalar("s + s^-1"))
    's + s^-1'
    """
    return _scalar_part(text, parse_cpoly(text), 0)


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q", q nonzero, as jsonio writes coefficients.  A part
    may have as many digits as Python converts (none before 3.10.7 limits
    it), so all it prints reads back.

    >>> parse_rational("-3/4")
    Fraction(-3, 4)
    """
    cap = getattr(sys, "get_int_max_str_digits", int)() or len(text)
    sc = _Scanner(text)
    value = Fraction(sc.integer(cap))
    if sc.peek() == "/":
        sc.take()
        sc.skip_space()
        at = sc.pos
        q = sc.integer(cap)
        if not q:
            sc.error("the denominator is zero", at)
        value /= q
    if not sc.at_end():
        sc.error("unexpected trailing input")
    return value


def parse_partition(text: str) -> Partition:
    """Parse a partition literal: "(4,2,1)", "4,2,1", or "(0)" for empty.

    >>> parse_partition("(4,2,1)").parts
    (4, 2, 1)
    """
    sc = _Scanner(text)
    closing = False
    if sc.peek() == "(":
        sc.take()
        closing = True
    parts = []
    if sc.peek() not in (")", ""):
        while True:
            start = sc.pos
            n = sc.integer()
            if n < 0:
                sc.error("parts must be nonnegative", start)
            if parts and n > parts[-1]:
                sc.error("parts must not increase", start)
            parts.append(n)
            if sc.peek() == ",":
                sc.take()
                continue
            break
    if closing:
        sc.expect(")")
    if not sc.at_end():
        sc.error("unexpected trailing input")
    return Partition(tuple(p for p in parts if p > 0))


def parse_braid_word(text: str, strands: int | None = None) -> BraidWord:
    """Parse a braid word: whitespace-separated signed nonzero integers.

    Letters are checked against strands when it is given; otherwise the
    strand count is the least one that holds every letter.

    >>> parse_braid_word("1 2 -1")
    BraidWord(3, (1, 2, -1))
    """
    sc = _Scanner(text)
    letters = []
    while not sc.at_end():
        start = sc.pos
        j = sc.integer()
        if j == 0:
            sc.error("crossing indices are nonzero", start)
        if strands is not None and abs(j) >= strands:
            sc.error("crossing index %d needs at least %d strands" % (j, abs(j) + 1), start)
        letters.append(j)
    if strands is None:
        strands = max((abs(j) for j in letters), default=0) + 1
    return BraidWord(strands, letters)


def parse_matching(text: str) -> ChordDiagram:
    """Parse a chord matching literal like "1-3,2-4" (1-based endpoints),
    refusing an endpoint past 2 * CHORD_CAP as soon as it is read, and one
    past twice the number of chords at the end.

    >>> str(parse_matching("2-4,1-3"))
    '1-3,2-4'
    """
    sc = _Scanner(text)
    pairs = []
    seen: dict[int, int] = {}
    while True:
        start = sc.pos
        a = sc.integer()
        sc.expect("-")
        b_start = sc.pos
        b = sc.integer()
        for endpoint, where in ((a, start), (b, b_start)):
            if endpoint < 1:
                sc.error("endpoints are numbered from 1", where)
            if endpoint > 2 * CHORD_CAP:
                sc.error("endpoint %d needs more chords than the cap of %d" % (endpoint, CHORD_CAP), where)
            if endpoint in seen:
                sc.error("endpoint %d matched twice" % endpoint, where)
            seen[endpoint] = where
        pairs.append((a - 1, b - 1))
        if sc.peek() == ",":
            sc.take()
            continue
        break
    if not sc.at_end():
        sc.error("unexpected trailing input")
    # 2n distinct endpoints, none past 2n, are each of 1..2n
    n = len(pairs)
    for endpoint, where in seen.items():
        if endpoint > 2 * n:
            sc.error("endpoint %d is out of range for %d chord%s" % (endpoint, n, "s" * (n != 1)), where)
    return ChordDiagram(pairs)
