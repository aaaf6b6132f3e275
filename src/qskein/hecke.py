"""The Hecke algebra of the braid group, in the positive permutation
braid basis.

Basis elements are labelled by permutations in one-line notation; a
braid word acts on the right one letter at a time through the quadratic
relation x^-1*s_i - x*s_i^-1 = z.  On top of the algebra sit the full
symmetrizer-style sums a_n and b_n, the quasi-idempotents e_lambda
(Aiston-Morton 1998), and the cabling used to decorate braids by partitions.
A product by e_lambda applies a_n = a_(n-1) F_(n-1), F_k = sum_j q^j T_k ...
T_(k-j+1) over distinguished coset representatives (Dipper-James 1986), with
q = x^-1 s for a_n and -x^-1 s^-1 for b_n; a_element and b_element enumerate.
"""

from __future__ import annotations

from functools import cache
from math import factorial

from .linear import FormalSum, add_term
from .partitions import Partition, hook_content_product, transpose_permutation
from .perms import Perm, all_perms, identity, inverse, inversions, reduced_word, swap_positions
from .scalars import LaurentPoly, Scalar

# S_n sums refuse to enumerate beyond this many strands; raise it at your
# own risk (terms grow like n!)
ENUMERATION_CAP = 8


class BraidWord:
    """A braid word: strand count plus signed generator letters.

    Letter j > 0 is the positive crossing of strands j, j+1; j < 0 its
    inverse.  Text form is whitespace-separated signed integers.
    """

    __slots__ = ("strand_count", "letters")

    def __init__(self, strand_count: int, letters=()):
        letters = tuple(int(j) for j in letters)
        if strand_count < 1:
            raise ValueError("braid needs at least one strand")
        for j in letters:
            if j == 0 or abs(j) > strand_count - 1:
                raise ValueError(f"letter {j} out of range for {strand_count} strands")
        self.strand_count = strand_count
        self.letters = letters

    @property
    def writhe(self) -> int:
        return sum(1 if j > 0 else -1 for j in self.letters)

    def inverse(self) -> "BraidWord":
        return BraidWord(self.strand_count, [-j for j in reversed(self.letters)])

    def concat(self, other: "BraidWord") -> "BraidWord":
        if self.strand_count != other.strand_count:
            raise ValueError("strand counts differ")
        return BraidWord(self.strand_count, self.letters + other.letters)

    def permutation(self) -> Perm:
        perm = identity(self.strand_count)
        for j in self.letters:
            perm = swap_positions(perm, abs(j) - 1)
        return perm

    def __eq__(self, other) -> bool:
        if not isinstance(other, BraidWord):
            return NotImplemented
        return (self.strand_count, self.letters) == (other.strand_count, other.letters)

    def __hash__(self):
        return hash((self.strand_count, self.letters))

    def __str__(self) -> str:
        return " ".join(str(j) for j in self.letters)

    def __repr__(self) -> str:
        return f"BraidWord({self.strand_count}, {self.letters!r})"


class HeckeElement(FormalSum):
    """Scalar combination of positive permutation braids on n strands.

    The space depends on n: sums and differences need equal strand counts,
    and zero elements on different strand counts compare unequal.
    """

    __slots__ = ("n",)

    def __init__(self, n: int, terms=None):
        super().__init__(terms)
        self.n = n

    @classmethod
    def _from(cls, n: int, terms: dict) -> "HeckeElement":
        obj = object.__new__(cls)
        obj.n = n
        obj.terms = terms
        return obj

    def _like(self, terms: dict) -> "HeckeElement":
        return HeckeElement._from(self.n, terms)

    @property
    def _unit_key(self) -> Perm:
        return identity(self.n)

    def _operand(self, other):
        other = super()._operand(other)
        if other is not None and other.n != self.n:
            raise ValueError("strand counts differ")
        return other

    @classmethod
    def unit(cls, n: int) -> "HeckeElement":
        return cls._from(n, {identity(n): Scalar.one()})

    def __eq__(self, other) -> bool:
        if isinstance(other, HeckeElement) and other.n != self.n:
            return False
        return super().__eq__(other)

    def __mul__(self, other):
        if isinstance(other, HeckeElement):
            return mul(self, other)
        return super().__mul__(other)

    def right_letter(self, j: int) -> "HeckeElement":
        """Multiply on the right by one braid letter."""
        i = abs(j) - 1
        if j == 0 or i >= self.n - 1:
            raise ValueError(f"letter {j} out of range for {self.n} strands")
        acc: dict[Perm, Scalar] = {}
        if j > 0:
            for pi, c in self.terms.items():
                flipped = swap_positions(pi, i)
                if pi[i] < pi[i + 1]:
                    add_term(acc, flipped, c)
                else:
                    add_term(acc, pi, c.mul_poly(_XZ))
                    add_term(acc, flipped, c.mul_monomial(2, 0, 0))
        else:
            for pi, c in self.terms.items():
                flipped = swap_positions(pi, i)
                if pi[i] < pi[i + 1]:
                    add_term(acc, flipped, c.mul_monomial(-2, 0, 0))
                    add_term(acc, pi, -c.mul_poly(_XINVZ))
                else:
                    add_term(acc, flipped, c)
        return HeckeElement._from(self.n, acc)

    def right_word(self, letters) -> "HeckeElement":
        """Multiply on the right by a word, refused past ENUMERATION_CAP! terms."""
        out = self
        for j in letters:
            out = out.right_letter(j)
            _check_support(out)
        return out

    def _format_key(self, pi: Perm) -> str:
        return "w[" + " ".join(str(p + 1) for p in pi) + "]"

    def __repr__(self) -> str:
        return f"HeckeElement({self.n}, {self.terms!r})"


# the two smoothing coefficients of the skein relation at a crossing
_XZ = LaurentPoly({(1, 0, 1): 1, (1, 0, -1): -1})        # x(s - s^-1)
_XINVZ = LaurentPoly({(-1, 0, 1): 1, (-1, 0, -1): -1})   # x^-1(s - s^-1)
# the weight per generator of the row sums a_n and the column sums b_n
_ROW_Q = Scalar.monomial(-1, 0, 1)                        # x^-1 s
_COL_Q = Scalar.monomial(-1, 0, -1, -1)                   # -x^-1 s^-1


def from_word(w: BraidWord) -> HeckeElement:
    """Image of a braid word in the Hecke algebra."""
    return HeckeElement.unit(w.strand_count).right_word(w.letters)


def mul(a: HeckeElement, b: HeckeElement) -> HeckeElement:
    """Product, reducing through the braid word of each basis term of b."""
    if a.n != b.n:
        raise ValueError("strand counts differ")
    acc: dict[Perm, Scalar] = {}
    for rho, c in b.terms.items():
        piece = a.right_word(i + 1 for i in reduced_word(rho))
        for pi, c2 in piece.terms.items():
            add_term(acc, pi, c2 * c)
    return HeckeElement._from(a.n, acc)


def tensor(a: HeckeElement, b: HeckeElement) -> HeckeElement:
    """Juxtaposition: b's strands are appended after a's."""
    n = a.n + b.n
    acc: dict[Perm, Scalar] = {}
    for pi, c1 in a.terms.items():
        for rho, c2 in b.terms.items():
            key = pi + tuple(r + a.n for r in rho)
            acc[key] = c1 * c2
    return HeckeElement._from(n, acc)


def _check_support(h: HeckeElement) -> None:
    """Refuse a Hecke element with more than ENUMERATION_CAP! terms, which
    no product on ENUMERATION_CAP or fewer strands reaches."""
    cap = factorial(ENUMERATION_CAP)
    if len(h.terms) > cap:
        raise ValueError(f"a Hecke element on {h.n} strands reached {len(h.terms)} terms, "
                         f"over the cap of {ENUMERATION_CAP}! = {cap}")


def _check_cap(n: int) -> None:
    if n > ENUMERATION_CAP:
        raise ValueError(
            f"enumeration over {n} strands exceeds the cap {ENUMERATION_CAP}; "
            "raise hecke.ENUMERATION_CAP to force it"
        )


def a_element(n: int) -> HeckeElement:
    """Sum of all basis braids weighted by (x^-1 s)^length."""
    if n < 1:
        raise ValueError("need at least one strand")
    _check_cap(n)
    terms = {}
    for pi in all_perms(n):
        l = inversions(pi)
        terms[pi] = Scalar.monomial(-l, 0, l)
    return HeckeElement._from(n, terms)


def b_element(n: int) -> HeckeElement:
    """Sum of all basis braids weighted by (-x^-1 s^-1)^length."""
    if n < 1:
        raise ValueError("need at least one strand")
    _check_cap(n)
    terms = {}
    for pi in all_perms(n):
        l = inversions(pi)
        terms[pi] = Scalar.monomial(-l, 0, -l, (-1) ** (l & 1))
    return HeckeElement._from(n, terms)


def _right_young(h: HeckeElement, blocks, offset: int, q: Scalar) -> HeckeElement:
    """h times the Young-subgroup sum over consecutive strand blocks, each
    block's sum taken as F_1 F_2 ... F_(r-1), F_k = sum_j q^j T_k ... T_(k-j+1),
    refused as soon as a partial sum passes ENUMERATION_CAP! terms."""
    for r in blocks:
        for k in range(offset + 1, offset + r):
            acc = cur = h
            for i in range(k, offset, -1):
                cur = cur.right_letter(i).scale(q)
                acc = acc + cur
                _check_support(acc)
            h = acc
        offset += r
    return h


def right_e_lambda(h: HeckeElement, lam: Partition, offset: int) -> HeckeElement:
    """h times e_lambda on strands offset+1 .. offset+|lam|, in O(|lam|^2) letters."""
    _check_cap(max(lam.parts[0], len(lam.parts)))
    # Basis labels are position-to-strand maps, so the braid whose strands
    # carry row cell i to column cell pi(i) is labelled by the inverse.
    word = [offset + i + 1 for i in reduced_word(inverse(transpose_permutation(lam)))]
    h = _right_young(h, lam.parts, offset, _ROW_Q).right_word(word)
    h = _right_young(h, lam.transpose().parts, offset, _COL_Q)
    return h.right_word(-j for j in reversed(word))


@cache
def e_lambda(lam: Partition) -> HeckeElement:
    """The quasi-idempotent a_row T_w b_col T_w^-1 of Aiston-Morton, with
    e^2 = alpha * e: a_row and b_col are the row and column Young-subgroup
    sums, each built from its coset factors F_k, not by enumeration."""
    if lam.size < 1:
        raise ValueError("partition must be nonempty")
    return right_e_lambda(HeckeElement.unit(lam.size), lam, 0)


def alpha(lam: Partition) -> Scalar:
    """The eigenvalue in e_lambda^2 = alpha * e_lambda."""
    return Scalar.from_poly(hook_content_product(lam))


def cable_word(w: BraidWord, k: int) -> BraidWord:
    """Replace every strand by k parallel strands."""
    if k < 1:
        raise ValueError("cable width must be positive")
    letters: list[int] = []
    for j in w.letters:
        i = abs(j)
        p = (i - 1) * k
        block = [p + 1 + a + b for a in range(k) for b in range(k - 1, -1, -1)]
        if j < 0:
            block = [-c for c in reversed(block)]
        letters += block
    return BraidWord(w.strand_count * k, letters)


def decorate(w: BraidWord, lam: Partition) -> HeckeElement:
    """Cable a braid word by |lam| and attach a normalized idempotent to
    every cabled strand."""
    k = lam.size
    if k < 1:
        raise ValueError("decoration partition must be nonempty")
    out = from_word(cable_word(w, k))
    for b in range(w.strand_count):
        out = right_e_lambda(out, lam, b * k)
    return out.scale(Scalar.one() / alpha(lam) ** w.strand_count)
