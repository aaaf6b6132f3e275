"""Exact coefficient arithmetic for the skein calculus.

Everything downstream works over the ring of Laurent polynomials in the
framing variable x, the loop variable v and the quantum parameter s, with
rational coefficients, together with its field of fractions.  A monomial
x^a v^b s^c is stored as the exponent triple (a, b, c), so a polynomial is
a dict mapping triples to nonzero rationals.  Coefficients stay plain ints
whenever possible and only become Fractions when a division forces it.

The quantum integer [i] is (s^i - s^-i)/(s - s^-1), a genuine polynomial,
and [i]! is the product [1][2]...[i].  delta() is the value of a single
0-framed loop in the plane, (v^-1 - v)/(s - s^-1).

A Scalar is a fraction in one normal form (see Scalar).  Scalar() reduces
a fraction one way: a denominator in s alone loses its gcd with every
(x, v)-slice of the numerator, taken over the integers by a primitive
remainder sequence (_s_reduce, _poly_gcd); one in x or v is not reduced.
Denominators built by the skein computations are monomials times products
of quantum integers, and [k] = s^(1-k) * prod Phi_d(s) over the d > 2
dividing 2k, so a reduced one is the monic product of its cyclotomic
factors Phi_d(s).  Each such denominator is factored once
(cyclotomic_factors, memoised), and + and * work on the factorisations, as
in Henrici's gcd-saving rational arithmetic (Knuth, TAOCP 2, 4.5.1): a sum
goes over the lcm of the denominators and is trial-divided only by the
factors that two or more terms hold as often as the lcm does (scalar_sum
adds a whole list this way, once), and a product first divides each
numerator by the factors of the other denominator.  A product by a single
term over 1 keeps the other denominator as it is, since a monomial shares
no factor with it.  Every other sum, product and quotient goes through
Scalar().

specialize_sln() substitutes s = t^N, x = t^-1, v = t^(-N^2), collapsing a
Scalar to a one-variable Laurent fraction in t, a TFraction.  A TFraction
holds a Scalar in s alone with t in the place of s, so it shares the Scalar
normal form, arithmetic and printer.  h_expand() then expands that fraction
around t = e^(h/2N) and returns the Taylor coefficients in h, dividing the
integer power sums of numerator and denominator in integers and taking one
rational division per coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import islice
from math import gcd, lcm

Triple = tuple[int, int, int]

_ZERO3 = (0, 0, 0)


def _ratio(c):
    """Normalise a coefficient: Fractions with denominator 1 become ints."""
    if type(c) is not int and isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    return c


class LaurentPoly:
    """A Laurent polynomial in x, v, s with exact rational coefficients.

    Immutable by convention: no method mutates self.terms after
    construction, so instances can be shared freely.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Triple, object] | None = None):
        clean: dict[Triple, object] = {}
        if terms:
            for e, c in terms.items():
                c = _ratio(Fraction(c) if not isinstance(c, (int, Fraction)) else c)
                if c:
                    clean[e] = c
        self.terms = clean

    @classmethod
    def _raw(cls, terms: dict) -> "LaurentPoly":
        obj = object.__new__(cls)
        obj.terms = terms
        return obj

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls._raw({})

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls._raw({_ZERO3: 1})

    @classmethod
    def monomial(cls, ex: int, ev: int, es: int, coeff=1) -> "LaurentPoly":
        coeff = _ratio(coeff)
        return cls._raw({(ex, ev, es): coeff}) if coeff else cls._raw({})

    @classmethod
    def const(cls, c) -> "LaurentPoly":
        c = _ratio(c)
        return cls._raw({_ZERO3: c}) if c else cls._raw({})

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {_ZERO3: 1}

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPoly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == (LaurentPoly.const(other)).terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            acc = out.get(e)
            if acc is None:
                out[e] = c
            else:
                acc = acc + c
                if acc:
                    out[e] = acc
                else:
                    del out[e]
        return LaurentPoly._raw(out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._raw({e: -c for e, c in self.terms.items()})

    def __mul__(self, other) -> "LaurentPoly":
        if type(other) is not LaurentPoly and isinstance(other, (int, Fraction)):
            other = _ratio(other)
            if not other:
                return LaurentPoly._raw({})
            return LaurentPoly._raw({e: _ratio(c * other) for e, c in self.terms.items()})
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict[Triple, object] = {}
        for (e1, e2, e3), c1 in a.items():
            for (f1, f2, f3), c2 in b.items():
                e = (e1 + f1, e2 + f2, e3 + f3)
                acc = out.get(e)
                if acc is None:
                    out[e] = c1 * c2
                else:
                    acc = acc + c1 * c2
                    if acc:
                        out[e] = acc
                    else:
                        del out[e]
        return LaurentPoly._raw(out)

    __rmul__ = __mul__

    def mul_monomial(self, ex: int, ev: int, es: int, coeff=1) -> "LaurentPoly":
        """Fast multiply by coeff * x^ex v^ev s^es."""
        if not coeff:
            return LaurentPoly._raw({})
        return LaurentPoly._raw(
            {(a + ex, b + ev, c + es): _ratio(k * coeff) for (a, b, c), k in self.terms.items()}
        )

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative power of a LaurentPoly; use Scalar")
        if len(self.terms) == 1:
            ((a, b, c), k), = self.terms.items()
            return LaurentPoly._raw({(a * n, b * n, c * n): _ratio(k**n)})
        out = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def sorted_terms(self):
        """Terms in the deterministic print order (descending exponent triples)."""
        return sorted(self.terms.items(), key=lambda t: t[0], reverse=True)

    def leading_coeff(self):
        if not self.terms:
            return 0
        return self.terms[max(self.terms)]

    def monomial_content(self) -> Triple:
        """Componentwise minimum exponent triple (for a nonzero polynomial)."""
        it = iter(self.terms)
        a, b, c = next(it)
        for (p, q, r) in it:
            if p < a:
                a = p
            if q < b:
                b = q
            if r < c:
                c = r
        return (a, b, c)

    def to_t(self, n: int) -> dict[int, object]:
        """Substitute s = t^n, x = t^-1, v = t^(-n^2); exponents may collide."""
        nn = n * n
        out: dict[int, object] = {}
        for (a, b, c), k in self.terms.items():
            e = -a - nn * b + n * c
            acc = out.get(e)
            if acc is None:
                out[e] = k
            else:
                acc = acc + k
                if acc:
                    out[e] = acc
                else:
                    del out[e]
        return out

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"LaurentPoly({_terms_repr(self)})"


def _terms_repr(p: LaurentPoly) -> str:
    """repr of p's terms, ascending by exponent, with each integral Fraction
    shown as an int.  Sums and products of Fraction coefficients can leave
    Fraction(n, 1) behind, which equals and hashes as n and prints as n in
    str and JSON, and two routes to one polynomial can insert its terms in
    different orders; both are normalised here rather than in every + and *,
    which would cost the arithmetic a type check and a sort per result."""
    return repr({e: _ratio(p.terms[e]) for e in sorted(p.terms)})


ONE_LP = LaurentPoly.one()
Z_LP = LaurentPoly({(0, 0, 1): 1, (0, 0, -1): -1})  # s - s^-1
DELTA_LP = LaurentPoly({(0, -1, 0): 1, (0, 1, 0): -1})  # v^-1 - v


# [i] has i terms; a larger i is refused before any term is built.
QUANTUM_INT_CAP = 100_000


def quantum_int(i: int) -> LaurentPoly:
    """[i] = s^(i-1) + s^(i-3) + ... + s^(1-i); [0] = 0."""
    if i < 0:
        raise ValueError("quantum_int needs i >= 0")
    if i > QUANTUM_INT_CAP:
        raise ValueError("[%d] has %d terms, over the cap of %d" % (i, i, QUANTUM_INT_CAP))
    return LaurentPoly._raw({(0, 0, e): 1 for e in range(i - 1, -i - 1, -2)})


def quantum_factorial(i: int) -> LaurentPoly:
    """[i]! = [1][2]...[i]; [0]! = 1."""
    if i < 0:
        raise ValueError("quantum_factorial needs i >= 0")
    out = ONE_LP
    for j in range(2, i + 1):
        out = out * quantum_int(j)
    return out


class Scalar:
    """An element of the fraction field of LaurentPoly.

    Stored as num/den.  Construction folds any single-term denominator into
    the numerator.  A longer denominator loses its monomial content, then,
    when it is in s alone, its gcd with every (x, v)-slice of the numerator
    (see _s_reduce).  It is then scaled to integer coefficients with gcd 1
    and a positive leading coefficient.  A denominator in x or v is not
    reduced further, so equality is decided by cross multiplication, and
    unreduced representations of the same value compare equal.  Every zero
    is Scalar.zero(), over 1.

    + and * build the same normal form straight from the factorisations
    when both denominators are 1 or products of Phi_d(s) with d <=
    CYCLOTOMIC_ORDER_CAP; the others, and /, go through Scalar(num, den).
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if type(num) is not LaurentPoly:
            num = _component(num)
        if den is None:
            self.num = num
            self.den = ONE_LP
            return
        if type(den) is not LaurentPoly:
            den = _component(den)
        if den.is_zero():
            raise ZeroDivisionError("Scalar with zero denominator")
        if num.is_zero() or den.is_one():
            self.num = num
            self.den = ONE_LP
            return
        if len(den.terms) > 1:
            # strip the monomial content from both sides, then cancel any
            # common s-polynomial factor
            a, b, c = den.monomial_content()
            if (a, b, c) != _ZERO3:
                den = den.mul_monomial(-a, -b, -c)
                num = num.mul_monomial(-a, -b, -c)
            num, den = _s_reduce(num, den)
        if len(den.terms) == 1:
            ((a, b, c), k), = den.terms.items()
            self.num = num.mul_monomial(-a, -b, -c, _ratio(Fraction(1, k)))
            self.den = ONE_LP
            return
        # scale so the denominator has integer coefficients with positive
        # leading coefficient, content 1
        scale = _primitive_scale(den)
        if scale != 1:
            den = den * scale
            num = num * scale
        if den.terms[max(den.terms)] < 0:
            den = -den
            num = -num
        self.num = num
        self.den = den

    @classmethod
    def _raw(cls, num: LaurentPoly, den: LaurentPoly) -> "Scalar":
        obj = object.__new__(cls)
        obj.num = num
        obj.den = den
        return obj

    @classmethod
    def zero(cls) -> "Scalar":
        return cls._raw(LaurentPoly.zero(), ONE_LP)

    @classmethod
    def one(cls) -> "Scalar":
        return cls._raw(ONE_LP, ONE_LP)

    @classmethod
    def from_poly(cls, p: LaurentPoly) -> "Scalar":
        return cls._raw(p, ONE_LP)

    @classmethod
    def monomial(cls, ex: int, ev: int, es: int, coeff=1) -> "Scalar":
        return cls._raw(LaurentPoly.monomial(ex, ev, es, coeff), ONE_LP)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num == self.den

    def __bool__(self) -> bool:
        return bool(self.num.terms)

    def __eq__(self, other) -> bool:
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return other
        if self.den is other.den or self.den == other.den:
            return self.num == other.num
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        raise TypeError("Scalar is not hashable (equality is by value, not form)")

    def __add__(self, other) -> "Scalar":
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return other
        a, b, c, d = self.num, self.den, other.num, other.den
        if b is d or b == d:
            if b.is_one():
                return Scalar._raw(a + c, ONE_LP)
            fb = fd = _den_factors(b)
            if fb is None:
                return Scalar(a + c, b)
        else:
            fb, fd = _den_factors(b), _den_factors(d)
            if fb is None or fd is None:
                return Scalar(a * d + c * b, b * d)
        return _sum_over_lcm((self, other), (fb, fd))

    __radd__ = __add__

    def __sub__(self, other) -> "Scalar":
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return other
        return self + (-other)

    def __rsub__(self, other) -> "Scalar":
        return Scalar(other) - self

    def __neg__(self) -> "Scalar":
        return Scalar._raw(-self.num, self.den)

    def __mul__(self, other) -> "Scalar":
        if type(other) is not Scalar:
            if isinstance(other, (int, Fraction)):
                return Scalar._raw(self.num * other, self.den) if other else Scalar.zero()
            if isinstance(other, LaurentPoly):
                other = Scalar.from_poly(other)
            elif not isinstance(other, Scalar):
                return NotImplemented
        if other.den.is_one():
            if self.den.is_one():
                return Scalar._raw(self.num * other.num, ONE_LP)
            if len(other.num.terms) == 1:
                return _times_monomial(self, other.num)
        elif self.den.is_one() and len(self.num.terms) == 1:
            return _times_monomial(other, self.num)
        return _product(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Scalar":
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return other
        if other.is_zero():
            raise ZeroDivisionError("division of Scalar by zero")
        return Scalar(self.num if other.den.is_one() else self.num * other.den,
                      other.num if self.den.is_one() else self.den * other.num)

    def __rtruediv__(self, other) -> "Scalar":
        return Scalar(other) / self

    def __pow__(self, n: int) -> "Scalar":
        if n == 0:
            return Scalar.one()
        if n < 0:
            if self.is_zero():
                raise ZeroDivisionError("negative power of zero Scalar")
            return Scalar(self.den, self.num) ** (-n)
        # Phi_d(s) is prime and content is multiplicative (Gauss), so the
        # power of a reduced, primitive num/den is reduced and primitive
        return Scalar._raw(self.num**n, self.den**n)

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"Scalar({_terms_repr(self.num)}, {_terms_repr(self.den)})"


def _component(p) -> LaurentPoly:
    """A numerator or denominator given to Scalar(), as a LaurentPoly."""
    if isinstance(p, Scalar):
        raise TypeError("Scalar components must be polynomials; divide Scalars instead")
    if isinstance(p, (int, Fraction)):
        return LaurentPoly.const(p)
    return p


def _coerce(other):
    """other as a Scalar operand, or NotImplemented."""
    if isinstance(other, (int, Fraction, LaurentPoly)):
        return Scalar(other)
    if isinstance(other, Scalar):
        return other
    return NotImplemented


def _primitive_scale(p: LaurentPoly) -> Fraction:
    """Rational q > 0 such that q*p has integer coefficients with gcd 1."""
    num_gcd = 0
    den_lcm = 1
    for c in p.terms.values():
        if isinstance(c, Fraction):
            num_gcd = gcd(num_gcd, c.numerator)
            den_lcm = den_lcm * c.denominator // gcd(den_lcm, c.denominator)
        else:
            num_gcd = gcd(num_gcd, c)
    return _ratio(Fraction(den_lcm, num_gcd))


def _product(x: Scalar, y: Scalar) -> Scalar:
    """x * y, from the factorisations when both denominators are 1 or
    products of Phi_d(s), else through Scalar()."""
    a, b, c, d = x.num, x.den, y.num, y.den
    fb, fd = _den_factors(b), _den_factors(d)
    if fb is None or fd is None:
        return Scalar(a * c, b * d)
    if not a or not c:
        return Scalar.zero()
    # each numerator loses the factors it shares with the other denominator
    exps = dict(fb)
    for k, m in fd:
        exps[k] = exps.get(k, 0) + m
    a, c = _cancel(a, fd, exps), _cancel(c, fb, exps)
    return Scalar._raw(a * c, _cyclotomic_poly(_pairs(exps)))


def _times_monomial(x: Scalar, mono: LaurentPoly) -> Scalar:
    """x times the one-term polynomial mono.  A normal-form denominator has
    no monomial content, so it shares no factor with mono: nothing cancels."""
    ((a, b, c), k), = mono.terms.items()
    return Scalar._raw(x.num.mul_monomial(a, b, c, k), x.den)


def scalar_sum(terms: list) -> Scalar:
    """The sum of a list of Scalars, in the normal form the left fold of +
    gives.

    When every denominator is 1 or a product of Phi_d(s), the numerators are
    summed once over the lcm of the denominators, and the sum is trial-divided
    only by the factors that two or more terms hold as often as the lcm does:
    a factor that one term alone holds that often divides every other
    addend and not that one, so not the sum.  Scalar.__add__ sums two such
    terms the same way.  Otherwise the terms are folded left, restarting
    after a zero as linear.add_term does.
    """
    if len(terms) == 1:
        return terms[0]
    factored = []
    for x in terms:
        f = () if x.den is ONE_LP else _den_factors(x.den)
        if f is None:
            return _fold(terms)
        factored.append(f)
    return _sum_over_lcm(terms, factored)


def _sum_over_lcm(terms, factored) -> Scalar:
    """The sum of terms whose denominators factor as the (d, mult) pairs of
    factored, over the lcm of those denominators."""
    lcm: dict[int, int] = {}
    held: dict[int, int] = {}
    for f in factored:
        for d, m in f:
            most = lcm.get(d, 0)
            if m > most:
                lcm[d], held[d] = m, 1
            elif m == most:
                held[d] += 1
    top = _pairs(lcm)
    out: dict = {}
    for x, f in zip(terms, factored):
        num = x.num
        if f != top:
            missing = dict(lcm)
            for d, m in f:
                missing[d] -= m
            num = _times(num, missing)
        for e, c in num.terms.items():
            c = out.get(e, 0) + c
            if c:
                out[e] = c
            else:
                del out[e]
    if not out:
        return Scalar.zero()
    num = LaurentPoly._raw(out)
    if not top:
        return Scalar._raw(num, ONE_LP)
    num = _cancel(num, [(d, m) for d, m in top if held[d] > 1], lcm)
    return Scalar._raw(num, _cyclotomic_poly(_pairs(lcm)))


def _fold(terms) -> Scalar:
    """The left fold of +, restarting after a zero as linear.add_term does."""
    acc = None
    for x in terms:
        acc = x if acc is None else acc + x
        acc = acc or None
    return acc or Scalar.zero()


def _cancel(num: LaurentPoly, factors, exps: dict[int, int]) -> LaurentPoly:
    """Divide num by each Phi_d of factors, (d, mult) pairs, as often as it
    divides every (x, v)-slice of num and at most mult times, and take each
    division off exps[d].  Returns num itself when nothing divides it."""
    if not factors:
        return num
    packs = slices(num)
    cancelled = False
    for d, mult in factors:
        f = cyclotomic(d)
        chains = []
        for _, coe, _ in packs:
            chain = [coe]
            while len(chain) <= mult:
                q = exact_quo(chain[-1], f)
                if q is None:
                    break
                chain.append(q)
            mult = len(chain) - 1
            if not mult:
                break
            chains.append(chain)
        if mult:
            packs = [(ab, chain[mult], lo) for (ab, _, lo), chain in zip(packs, chains)]
            exps[d] -= mult
            cancelled = True
    return unslice(packs) if cancelled else num


# ---------------------------------------------------------------------------
# exact division and gcds of polynomials in s
#
# Dense coefficient lists start at the constant term.  A polynomial in x, v
# and s is cut into its (x, v)-slices, each a dense polynomial in s; a
# polynomial in s alone divides it exactly when it divides every slice.


def _s_reduce(num: LaurentPoly, den: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Cancel the common s-polynomial factor of num and den.

    The gcd of the denominator with every (x, v)-slice of the numerator is
    the factor to cancel.  Each gcd is taken over the integers (_poly_gcd),
    as a primitive polynomial with a positive leading coefficient, so a
    product of Phi_d(s) cancels as the monic one.  A denominator in x or v
    is left as it is.
    """
    if any(e[0] or e[1] for e in den.terms):
        return num, den
    dcoe, dlo = _dense({c: k for (_, _, c), k in den.terms.items()})
    packs = slices(num)
    g = dcoe
    for _, coe, _ in packs:
        g = _poly_gcd(g, coe)
        if len(g) == 1:
            return num, den
    return (unslice([(ab, exact_quo(coe, g), lo) for ab, coe, lo in packs]),
            unslice([((0, 0), exact_quo(dcoe, g), dlo)]))


def slices(p: LaurentPoly) -> list[tuple[tuple[int, int], list, int]]:
    """The (x, v)-slices of the nonzero p, as (x and v exponents, dense
    coefficients in s, lowest s exponent) triples."""
    by_xv: dict[tuple[int, int], dict[int, object]] = {}
    for (a, b, c), k in p.terms.items():
        by_xv.setdefault((a, b), {})[c] = k
    return [(ab, *_dense(sl)) for ab, sl in by_xv.items()]


def unslice(packs) -> LaurentPoly:
    """The polynomial whose (x, v)-slices are packs, triples as slices gives
    them.  Coefficients must be normalised, as exact_quo leaves them."""
    terms = {}
    for (a, b), coe, lo in packs:
        for e, c in enumerate(coe, lo):
            if c:
                terms[(a, b, e)] = c
    return LaurentPoly._raw(terms)


def exact_quo(a: list, b: list[int]) -> list | None:
    """a / b for dense polynomials, b with integer coefficients, when b
    divides a exactly, else None.  Each step walks only the nonzero
    coefficients of b below its lead, so dividing by a binomial takes one
    step per coefficient of a.  Integral quotient coefficients are ints."""
    nb = len(b) - 1
    if len(a) <= nb:
        return None
    lead = b[-1]
    low = [(j, bj) for j, bj in enumerate(b[:nb]) if bj]
    a = list(a)
    q = [0] * (len(a) - nb)
    for i in range(len(a) - nb - 1, -1, -1):
        c = a[i + nb]
        if c:
            if type(c) is not int:
                c = _ratio(c / lead)
            elif lead != 1:
                c = c // lead if not c % lead else Fraction(c, lead)
            q[i] = c
            for j, bj in low:
                a[i + j] -= c * bj
    return None if any(a[:nb]) else q


def _dense(p: dict[int, object]) -> tuple[list, int]:
    """Laurent dict -> (dense coefficient list from degree 0, minimum exponent)."""
    lo = min(p)
    coeffs = [0] * (max(p) - lo + 1)
    for e, c in p.items():
        coeffs[e - lo] = c
    return coeffs, lo


def _primitive(a: list) -> list[int]:
    """The integer multiple of the nonzero dense polynomial a whose
    coefficients have gcd 1 and whose leading coefficient is positive."""
    if any(type(c) is not int for c in a):
        scale = lcm(*(c.denominator for c in a))
        a = [int(c * scale) for c in a]
    g = gcd(*a)
    if a[-1] < 0:
        g = -g
    return a if g == 1 else [c // g for c in a]


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """A nonzero integer multiple of the remainder of a by b, with the
    zero leading terms stripped: each step scales a by no more than it
    needs to cancel its top term against b."""
    a = list(a)
    nb = len(b) - 1
    lead, low = b[-1], b[:nb]
    for i in range(len(a) - 1, nb - 1, -1):
        c = a[i]
        if c:
            g = gcd(c, lead)
            m, c = lead // g, c // g
            if m != 1:
                a[:i] = [x * m for x in a[:i]]
            off = i - nb
            for j, bj in enumerate(low):
                if bj:
                    a[off + j] -= c * bj
    del a[nb:]
    while a and not a[-1]:
        a.pop()
    return a


def _poly_gcd(a: list, b: list) -> list[int]:
    """The gcd of two nonzero dense polynomials with rational coefficients,
    as a primitive integer polynomial with a positive leading coefficient.

    A primitive remainder sequence (Knuth, TAOCP 2, 4.6.1): each remainder
    is a pseudo-remainder reduced to its primitive part, so the arithmetic
    stays in integers and builds no Fraction.
    """
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _pseudo_rem(a, b)
        if not r:
            return b
        a, b = b, _primitive(r)
    return [1]


# ---------------------------------------------------------------------------
# cyclotomic factorisation of denominators in s

# _den_factors tries Phi_d for d up to this order.  [k] is s^(1-k) times the
# Phi_d(s) for the d > 2 dividing 2k, so every product of [1], ..., [32]
# factors; a denominator with any other factor goes through Scalar().  The
# cap keeps factoring a new denominator linear in its degree.
CYCLOTOMIC_ORDER_CAP = 64


@cache
def cyclotomic(d: int) -> tuple[int, ...]:
    """The d-th cyclotomic polynomial Phi_d(s), dense from the constant term.

    >>> cyclotomic(1), cyclotomic(6)
    ((-1, 1), (1, -1, 1))
    """
    # s^d - 1 is the product of Phi_e over the divisors e of d
    p = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d // 2 + 1):
        if d % e == 0:
            p = exact_quo(p, cyclotomic(e))
    return tuple(p)


@cache
def cyclotomic_factors(coeffs) -> tuple[tuple[int, int], ...] | None:
    """Factor a monic integer polynomial in s, dense from a nonzero constant
    term, into cyclotomic polynomials.

    Returns the pairs (d, multiplicity) ascending in d when coeffs is a
    product of Phi_d(s) with d <= CYCLOTOMIC_ORDER_CAP, and None otherwise.
    Such a product has constant term +-1 and is palindromic or
    antipalindromic, so most other polynomials are rejected before any
    division.  A normal-form denominator is primitive with a positive
    leading coefficient, so when it is such a product it is the monic one.

    >>> cyclotomic_factors((-1, 0, 0, 0, 1))        # s^4 - 1
    ((1, 1), (2, 1), (4, 1))
    >>> cyclotomic_factors((1, 0, 1, 0, 1))         # s^4 + s^2 + 1
    ((3, 1), (6, 1))
    >>> cyclotomic_factors((3, 0, 3, 0, 3)) is None  # not monic
    True
    >>> cyclotomic_factors((1, 3, 1)) is None
    True
    """
    if coeffs[-1] != 1 or abs(coeffs[0]) != 1:
        return None
    rest = list(coeffs)
    mirror = rest[::-1]
    if mirror != rest and mirror != [-c for c in rest]:
        return None
    out = []
    for d in range(1, CYCLOTOMIC_ORDER_CAP + 1):
        f = cyclotomic(d)
        mult = 0
        while len(rest) >= len(f):
            q = exact_quo(rest, f)
            if q is None:
                break
            rest = q
            mult += 1
        if mult:
            out.append((d, mult))
        if len(rest) == 1:
            break
    return tuple(out) if len(rest) == 1 else None


@cache
def _cyclotomic_poly(factors: tuple[tuple[int, int], ...]) -> LaurentPoly:
    """The product of Phi_d(s)^mult over the (d, mult) pairs of factors."""
    out = ONE_LP
    for d, mult in factors:
        out = out * LaurentPoly._raw({(0, 0, e): c for e, c in enumerate(cyclotomic(d)) if c}) ** mult
    return out


def _pairs(exps: dict[int, int]) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((d, m) for d, m in exps.items() if m))


def _times(p: LaurentPoly, exps: dict[int, int]) -> LaurentPoly:
    """p times the product of Phi_d(s)^exps[d]."""
    factors = _pairs(exps)
    return p * _cyclotomic_poly(factors) if factors else p


def _den_factors(den: LaurentPoly) -> tuple[tuple[int, int], ...] | None:
    """The (d, mult) pairs of a normal-form Scalar denominator that is 1 or
    a product of Phi_d(s) with d <= CYCLOTOMIC_ORDER_CAP, else None.  Such a
    denominator is the monic product itself, lowest term s^0."""
    terms = den.terms
    # every exponent lies between these two in the lexicographic order, so
    # all are powers of s alone when these two are
    lo, hi = min(terms), max(terms)
    if lo != _ZERO3 or hi[0] or hi[1]:
        return None
    key = [0] * (hi[2] + 1)
    for e, k in terms.items():
        key[e[2]] = k
    return cyclotomic_factors(tuple(key))


def uncancelled_lcm_span(b: LaurentPoly, d: LaurentPoly) -> int | None:
    """The s-span of the lcm that a sum over the normal-form denominators b
    and d is taken over, when both factor into Phi_d(s) and no factor is
    held by both as often as the lcm holds it, so that _sum_over_lcm
    cancels nothing; else None."""
    fb, fd = _den_factors(b), _den_factors(d)
    if fb is None or fd is None:
        return None
    mb, md = dict(fb), dict(fd)
    if any(md.get(k) == m for k, m in mb.items()):
        return None
    return sum((len(cyclotomic(k)) - 1) * max(mb.get(k, 0), md.get(k, 0)) for k in mb.keys() | md.keys())


def delta() -> Scalar:
    """Skein value of one 0-framed loop in the plane: (v^-1 - v)/(s - s^-1)."""
    return DELTA


Z = Scalar.from_poly(Z_LP)
DELTA = Scalar(DELTA_LP, Z_LP)


# ---------------------------------------------------------------------------
# text formatting (the parsers in parsing.py read this format back)


def _format_term(exps: Triple, coeff, lead: bool, names: str) -> str:
    pieces = []
    for name, e in zip(names, exps):
        if e == 1:
            pieces.append(name)
        elif e != 0:
            pieces.append(f"{name}^{e}")
    sign = ""
    if coeff < 0:
        sign = "-" if lead else "- "
        coeff = -coeff
    elif not lead:
        sign = "+ "
    if not pieces:
        body = str(coeff)
    elif coeff == 1:
        body = "*".join(pieces)
    else:
        body = str(coeff) + "*" + "*".join(pieces)
    return sign + body


def format_terms(pairs, names: str) -> str:
    """(exponents, coefficient) pairs, in print order, as a signed sum that
    names the variables by the letters of names."""
    out = [_format_term(e, c, i == 0, names) for i, (e, c) in enumerate(pairs)]
    return " ".join(out) if out else "0"


def format_poly(p: LaurentPoly, names: str = "xvs") -> str:
    """p as text, naming the three variables by the letters of names."""
    return format_terms(p.sorted_terms(), names)


def _paren(s: str) -> str:
    if " " in s or s.startswith("-"):
        return f"({s})"
    return s


def format_scalar(sc: Scalar, names: str = "xvs") -> str:
    if sc.den.is_one():
        return format_poly(sc.num, names)
    return f"{_paren(format_poly(sc.num, names))}/{_paren(format_poly(sc.den, names))}"


# ---------------------------------------------------------------------------
# sl(N) specialisation and the h-expansion


class SpecializationError(ValueError):
    """The denominator vanished identically under s = t^N, x = t^-1, v = t^(-N^2)."""


class PoleError(ValueError):
    """The specialised fraction has a genuine pole at h = 0."""

    def __init__(self, order: int):
        super().__init__(f"pole at h = 0: denominator vanishes to order {order}, numerator does not")
        self.order = order


def _t_poly(terms: dict[int, object]) -> LaurentPoly:
    """A Laurent polynomial in t, held as one in s alone."""
    return LaurentPoly({(0, 0, e): c for e, c in terms.items()})


def _t_terms(p: LaurentPoly) -> dict[int, object]:
    """A polynomial in s alone as {exponent: coefficient}, ascending, with
    integral coefficients as ints (Scalar sums can hold Fraction(n, 1))."""
    return {e: _ratio(c) for (_, _, e), c in sorted(p.terms.items())}


class TFraction:
    """A one-variable Laurent fraction in t, the image of a Scalar under sl(N).

    Held as a Scalar in s alone, with t in the place of s, so it has the
    Scalar normal form; num and den read it back as {exponent: coefficient}
    dicts in ascending order.
    """

    __slots__ = ("value",)

    def __init__(self, num: dict[int, object], den: dict[int, object] | None = None):
        den = _t_poly(den or {0: 1})
        if den.is_zero():
            raise ZeroDivisionError("TFraction with zero denominator")
        self.value = Scalar(_t_poly(num), den)

    @classmethod
    def _of(cls, value: Scalar) -> "TFraction":
        obj = object.__new__(cls)
        obj.value = value
        return obj

    @property
    def num(self) -> dict[int, object]:
        return _t_terms(self.value.num)

    @property
    def den(self) -> dict[int, object]:
        return _t_terms(self.value.den)

    def is_zero(self) -> bool:
        return self.value.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, TFraction):
            return NotImplemented
        return self.value == other.value

    def __hash__(self):
        raise TypeError("TFraction is not hashable")

    def __add__(self, other: "TFraction") -> "TFraction":
        return TFraction._of(self.value + other.value)

    def __mul__(self, other: "TFraction") -> "TFraction":
        return TFraction._of(self.value * other.value)

    def __str__(self) -> str:
        return format_scalar(self.value, "xvt")

    def __repr__(self) -> str:
        return f"TFraction({self.num!r}, {self.den!r})"


def specialize_sln(value, n: int) -> TFraction:
    """Specialise a Scalar at sl(N): s = t^N, x = t^-1, v = t^(-N^2).

    Distinct monomials can collide and cancel after substitution; if the
    whole denominator cancels the result is no longer defined and a
    SpecializationError is raised.
    """
    if n < 2:
        raise ValueError("specialize_sln needs N >= 2")
    num = value.num.to_t(n)
    den = value.den.to_t(n)
    if not den:
        raise SpecializationError(f"denominator vanishes identically at N = {n}")
    return TFraction(num, den)


def _h_series(tpoly: dict[int, object]):
    """Yield the power sums sum c_k k^j of sum c_k t^k for j = 0, 1, 2, ...

    The j-th is j! (2N)^j times the Taylor coefficient of h^j at
    t = e^(h/2N), so the sums are the coefficients of an exponential
    generating function in u = h/2N, and they stay ints when the c_k are.
    """
    ks = list(tpoly)
    terms = list(tpoly.values())
    while True:
        yield sum(terms)
        terms = [c * k for c, k in zip(terms, ks)]


def h_expand(f, n: int, order: int) -> list:
    """Expand the TFraction f(t = e^(h/2N)) as a series in h; return
    coefficients of h^0..h^order.

    The denominator may vanish at h = 0 provided the numerator vanishes to
    at least the same order (the singularity is then removable, as happens
    for delta at any N).  A genuine pole raises PoleError with the
    denominator's vanishing order.

    Both sides are taken as exponential generating functions in u = h/2N
    (_h_series), scaled to integer ordinary series, and divided in
    integers; each coefficient takes one division at the end.
    """
    if order < 0:
        raise ValueError("h_expand needs order >= 0")
    if isinstance(f, (Scalar, LaurentPoly)):
        raise TypeError("specialise first: h_expand takes the result of specialize_sln")
    # a nonzero finite sum of exponentials e^(k h/2N) vanishes at h = 0 to
    # order at most (number of distinct exponents - 1)
    den_sums = _h_series(f.den)
    van = 0
    while not (b0 := next(den_sums)):
        van += 1
    den = [b0, *islice(den_sums, order)]
    num = list(islice(_h_series(f.num), order + van + 1))
    if any(num[:van]):
        raise PoleError(van)
    # the u^(j + van) terms carry 1/(j + van)!; scale both sides by
    # (order + van)!, which leaves the quotient as it is
    scale = [1] * (order + 1)
    for j in range(order - 1, -1, -1):
        scale[j] = scale[j + 1] * (j + van + 1)
    num = [c * m for c, m in zip(num[van:], scale)]
    den = [c * m for c, m in zip(den, scale)]
    # quotient coefficient j of u is w[j] / den[0]^(j + 1), w[j] integral
    # when both sides are
    lead = [1]
    for _ in range(order + 1):
        lead.append(lead[-1] * den[0])
    w: list = []
    out = []
    for j in range(order + 1):
        acc = num[j] * lead[j]
        for i in range(j):
            acc -= w[i] * den[j - i] * lead[j - i - 1]
        w.append(acc)
        out.append(_ratio(Fraction(acc, lead[j + 1] * (2 * n) ** j)))
    return out
