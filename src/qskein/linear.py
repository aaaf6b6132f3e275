"""Formal Scalar-linear combinations of hashable basis keys.

Shared machinery for the diagram ring, the annulus ring and the Hecke
algebra: storage, module operations, a bilinear product driven by a
per-class key product, and deterministic printing.  Polynomial is the
commutative polynomial ring that the column ring (CPoly) and the annulus
ring (AnnulusElement) both are: they differ only in how a monomial prints.

The raw coefficient format of the Hecke kernels and the annulus closure
also lives here: split_raw takes an element apart into one
{key: {(a, b, c): coeff}} dict of numerators per denominator, the kernels
accumulate into such dicts in place, and join_raw sums the pieces back
into Scalars.  split_raw hands out the outer dict new but each numerator
dict as the LaurentPoly.terms of the input Scalar, so a kernel copies an
input numerator before it keeps or changes one.  Every dict a kernel
builds it owns: it may update it in place or adopt it, under one key, into
its output.  join_raw adopts the numerators it is given and drops the
zero ones, so a kernel whose output goes only to join_raw may leave them.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import ONE_LP, LaurentPoly, Scalar, format_scalar, scalar_sum

SCALAR_LIKE = (int, Fraction, LaurentPoly, Scalar)


def as_scalar(c) -> Scalar:
    if isinstance(c, Scalar):
        return c
    if isinstance(c, LaurentPoly):
        return Scalar.from_poly(c)
    if isinstance(c, (int, Fraction)):
        return Scalar(c)
    raise TypeError(f"not a scalar: {c!r}")


def add_term(acc: dict, key, coeff) -> None:
    """Accumulate coeff onto acc[key], dropping the entry if it cancels."""
    cur = acc.get(key)
    if cur is None:
        if coeff:
            acc[key] = coeff
    else:
        cur = cur + coeff
        if cur:
            acc[key] = cur
        else:
            del acc[key]


def sum_collected(acc: dict) -> dict:
    """{key: sum of its list of addends}, dropping the keys that cancel."""
    return {key: total for key, coeffs in acc.items() if (total := scalar_sum(coeffs))}


def split_raw(element) -> list:
    """[(den, {key: raw numerator})], one class per denominator, at least one."""
    groups: dict = {}
    for key, c in element.terms.items():
        groups.setdefault(c.den, {})[key] = c.num.terms
    return list(groups.items()) or [(ONE_LP, {})]


def join_raw(pieces) -> dict:
    """{key: Scalar}, summed over (den, {key: raw numerator}) pieces."""
    acc: dict = {}
    for den, terms in pieces:
        for key, p in terms.items():
            p = LaurentPoly._raw(p)
            add_term(acc, key, Scalar._raw(p, ONE_LP) if den.is_one() else Scalar(p, den))
    return acc


class FormalSum:
    """Base class: a finite Scalar-linear combination of basis keys.

    Subclasses fix the key type, the unit key, the product of two keys
    and the print order.  terms maps key -> nonzero Scalar.  Every result
    is built through _like, so a space that depends on a parameter (the
    strand count of the Hecke algebra) overrides that hook and reads its
    unit key from the instance, and its zero, one and term constructors
    take the parameter first.
    """

    __slots__ = ("terms",)
    _unit_key: object = None
    _print_reverse = False

    def __init__(self, terms=None):
        data = {}
        if terms:
            for key, coeff in terms.items():
                coeff = as_scalar(coeff)
                if coeff:
                    data[key] = coeff
        self.terms = data

    @classmethod
    def _from(cls, terms: dict) -> "FormalSum":
        """Internal: adopt a dict whose values are already nonzero Scalars."""
        obj = object.__new__(cls)
        obj.terms = terms
        return obj

    def _like(self, terms: dict) -> "FormalSum":
        """Internal: _from, in the space of self."""
        return self._from(terms)

    def _operand(self, other):
        """other as an element of the space of self, or None if it is not one."""
        if isinstance(other, SCALAR_LIKE):
            c = as_scalar(other)
            return self._like({self._unit_key: c} if c else {})
        return other if type(other) is type(self) else None

    @classmethod
    def zero(cls):
        return cls._from({})

    @classmethod
    def one(cls):
        return cls._from({cls._unit_key: Scalar.one()})

    @classmethod
    def term(cls, key, coeff=1):
        coeff = as_scalar(coeff)
        return cls._from({key: coeff} if coeff else {})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def coeff(self, key) -> Scalar:
        c = self.terms.get(key)
        return c if c is not None else Scalar.zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, FormalSum):
            return type(self) is type(other) and self.terms == other.terms
        if isinstance(other, SCALAR_LIKE):
            c = as_scalar(other)
            if not c:
                return not self.terms
            return self.terms == {self._unit_key: c}
        return NotImplemented

    __hash__ = None

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        acc = dict(self.terms)
        for k, c in other.terms.items():
            add_term(acc, k, c)
        return self._like(acc)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def scale(self, c) -> "FormalSum":
        c = as_scalar(c)
        if not c:
            return self._like({})
        return self._like({k: v * c for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, SCALAR_LIKE):
            return self.scale(other)
        if type(other) is not type(self):
            return NotImplemented
        acc: dict = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                c = c1 * c2
                for k3, m in self._mul_keys(k1, k2).items():
                    acc.setdefault(k3, []).append(c if m == 1 else c * m)
        return self._like(sum_collected(acc))

    def __rmul__(self, other):
        if isinstance(other, SCALAR_LIKE):
            return self.scale(other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, SCALAR_LIKE):
            c = as_scalar(other)
            return self.scale(Scalar.one() / c)
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a formal sum")
        out = self._like({self._unit_key: Scalar.one()})
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def _mul_keys(self, k1, k2) -> dict:
        raise NotImplementedError

    def _format_key(self, key) -> str:
        raise NotImplementedError

    def sorted_terms(self):
        return [(k, self.terms[k]) for k in sorted(self.terms, reverse=self._print_reverse)]

    def __str__(self) -> str:
        return format_sum(self.sorted_terms(), self._format_key)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.terms!r})"


class Polynomial(FormalSum):
    """Polynomial in commuting generators indexed by positive integers; a
    key is the descending tuple of the indices of one monomial, () for the
    constant term, and monomials multiply by merging their indices."""

    __slots__ = ()
    _unit_key = ()

    def _mul_keys(self, k1, k2):
        return {tuple(sorted(k1 + k2, reverse=True)): 1}


def format_sum(pairs, format_key) -> str:
    """Join (key, Scalar) pairs, already in print order, into a sum string."""
    pairs = list(pairs)
    if not pairs:
        return "0"
    out = []
    for i, (key, c) in enumerate(pairs):
        name = format_key(key)
        if c.num.leading_coeff() < 0:
            c = -c
            sign = "-" if i == 0 else "- "
        else:
            sign = "" if i == 0 else "+ "
        body = format_scalar(c)
        if not name:
            if " " in body and (sign or len(pairs) > 1):
                body = f"({body})"
            out.append(sign + body)
            continue
        if c.is_one():
            out.append(sign + name)
            continue
        if " " in body:
            body = f"({body})"
        out.append(f"{sign}{body}*{name}")
    return " ".join(out)


def linear_map(element: FormalSum, fn, out_cls):
    """Extend a key-level map linearly: sum coeff * fn(key) in out_cls."""
    acc: dict = {}
    for key, c in element.terms.items():
        for k2, c2 in fn(key).terms.items():
            acc.setdefault(k2, []).append(c2 * c)
    return out_cls._from(sum_collected(acc))


def multiset_text(indices, symbol: str, ascending: bool) -> str:
    """Render a multiset of generator indices as e.g. c1^2*c3 or A3*A1."""
    if not indices:
        return ""
    counts: dict[int, int] = {}
    for i in indices:
        counts[i] = counts.get(i, 0) + 1
    order = sorted(counts, reverse=not ascending)
    parts = []
    for i in order:
        e = counts[i]
        parts.append(f"{symbol}{i}" if e == 1 else f"{symbol}{i}^{e}")
    return "*".join(parts)
