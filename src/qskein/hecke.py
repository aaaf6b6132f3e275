"""The Hecke algebra of the braid group, in the positive permutation
braid basis.

Basis elements are labelled by permutations in one-line notation; a
braid word acts on the right one letter at a time through the quadratic
relation x^-1*s_i - x*s_i^-1 = z.  On top of the algebra sit the full
symmetrizer-style sums a_n and b_n, the quasi-idempotents e_lambda
(Aiston-Morton 1998), and the cabling that annulus.decorated_closure
colours by a partition.
A product by e_lambda multiplies by the row and column Young-subgroup sums
sum_tau q^l(tau) T_tau, q = x^-1 s for rows and -x^-1 s^-1 for columns, by
cosets: T_pi = T_d T_sigma with d the least element of pi S (Dipper-James
1986) and T_sigma absorbed as a scalar, so one pass folds the element onto
the coset representatives and one pass spreads each over its coset;
a_element and b_element enumerate.
Products run in raw kernels on dicts perm -> {(a, b, c): coeff}, merged in
place, on the numerators of each denominator class of the coefficients;
that raw format and its helpers live in linear.
A product reduces its shorter factor to braid words through the
anti-automorphism T_pi -> T_(pi^-1) (Geck-Pfeiffer, *Characters of finite
Coxeter groups and Iwahori-Hecke algebras*).
"""

from __future__ import annotations

from functools import cache
from math import factorial, prod
from operator import itemgetter

from .linear import FormalSum, join_raw, split_raw
from .partitions import Partition, hook_content_product, transpose_permutation
from .perms import Perm, all_perms, identity, inverse, inversions, reduced_word, swap_positions
from .scalars import Scalar

# S_n sums refuse to enumerate beyond this many strands; raise it at your
# own risk (terms grow like n!)
ENUMERATION_CAP = 8

# from_word and annulus.closure_word refuse a braid on more strands than
# this before any work.  annulus.closure costs time quadratic in the strand
# count for every permutation it meets; closure_word closes only the strands
# its letters move, so for it the cap bounds just the A1 factors of the rest.
STRAND_CAP = 1000


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

    def inverse(self) -> "BraidWord":
        return BraidWord(self.strand_count, [-j for j in reversed(self.letters)])

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
    def zero(cls, n: int) -> "HeckeElement":
        return cls._from(n, {})

    @classmethod
    def one(cls, n: int) -> "HeckeElement":
        return cls._from(n, {identity(n): Scalar.one()})

    @classmethod
    def term(cls, n: int, key: Perm, coeff=1) -> "HeckeElement":
        return cls(n, {key: coeff})

    def __eq__(self, other) -> bool:
        if isinstance(other, HeckeElement) and other.n != self.n:
            return False
        return super().__eq__(other)

    def __mul__(self, other):
        if isinstance(other, HeckeElement):
            return mul(self, other)
        return super().__mul__(other)

    def _apply(self, kernel, *args) -> "HeckeElement":
        """kernel(terms, n, *args) on each denominator class, divided back."""
        pieces = ((den, kernel(terms, self.n, *args)) for den, terms in split_raw(self))
        return HeckeElement._from(self.n, join_raw(pieces))

    def right_word(self, letters) -> "HeckeElement":
        """Multiply on the right by a word, refused past ENUMERATION_CAP! terms."""
        return self._apply(_right_word, tuple(letters))

    def _format_key(self, pi: Perm) -> str:
        return "w[" + " ".join(str(p + 1) for p in pi) + "]"

    def __repr__(self) -> str:
        return f"HeckeElement({self.n}, {self.terms!r})"


# the weight per generator of the row sums a_n and the column sums b_n
_ROW_Q = (-1, 0, 1, 1)                                    # x^-1 s, as (ex, ev, es, coeff)
_COL_Q = (-1, 0, -1, -1)                                  # -x^-1 s^-1


def _right_word(terms: dict, n: int, letters) -> dict:
    """Raw kernel: terms times each letter in turn, refused past
    ENUMERATION_CAP! terms.  T_i^e sends T_pi to T_(pi s_i) when that is e
    steps longer, and otherwise to x^(2e) T_(pi s_i) + e x^e z T_pi.  So of
    each pair {r, l = r s_i}, r the one that T_i^e lengthens, the output at r
    is x^(2e) p_l and at l is p_r + e x^e z p_l: each key is written once.
    The input's polynomials are copied before they are kept or changed; after
    the first letter the kernel owns every one and adopts or updates it."""
    owned = False
    for j in letters:
        i = abs(j) - 1
        if j == 0 or i >= n - 1:
            raise ValueError(f"letter {j} out of range for {n} strands")
        up = j > 0
        e = 1 if up else -1
        acc: dict = {}
        for pi, p in terms.items():
            flipped = pi[:i] + (pi[i + 1], pi[i]) + pi[i + 2:]
            if (pi[i] < pi[i + 1]) == up:
                if flipped not in terms:  # otherwise written from flipped
                    acc[flipped] = p if owned else p.copy()
                continue
            acc[flipped] = {(e1 + 2 * e, e2, e3): m for (e1, e2, e3), m in p.items()}
            q = terms.get(flipped)
            q = {} if q is None else q if owned else q.copy()
            for (e1, e2, e3), m in p.items():
                m *= e
                k = (e1 + e, e2, e3 + 1)
                if v := q.get(k, 0) + m:
                    q[k] = v
                else:
                    del q[k]
                k = (e1 + e, e2, e3 - 1)
                if v := q.get(k, 0) - m:
                    q[k] = v
                else:
                    del q[k]
            if q:
                acc[pi] = q
        terms = acc
        owned = True
        _check_support(n, len(terms))
    return terms


def from_word(w: BraidWord) -> HeckeElement:
    """Image of a braid word in the Hecke algebra, refused past STRAND_CAP strands."""
    check_strand_cap(w.strand_count)
    return HeckeElement.one(w.strand_count).right_word(w.letters)


def mul(a: HeckeElement, b: HeckeElement) -> HeckeElement:
    """Product, reduced through the braid words of the shorter factor: rev,
    T_pi -> T_(pi^-1), reverses words and fixes the central coefficients, so
    it is an anti-automorphism, and when b has more terms than a, a b is
    rev(rev(b) rev(a)), which reduces the terms of a to words, not those of b."""
    if a.n != b.n:
        raise ValueError("strand counts differ")
    if len(b.terms) > len(a.terms):
        return _reverse(_right_reduce(_reverse(b), _reverse(a)))
    return _right_reduce(a, b)


def _reverse(h: HeckeElement) -> HeckeElement:
    """The image of h under the anti-automorphism T_pi -> T_(pi^-1)."""
    return HeckeElement._from(h.n, {inverse(pi): c for pi, c in h.terms.items()})


def _right_reduce(a: HeckeElement, b: HeckeElement) -> HeckeElement:
    """a b, a multiplied by the reduced word of each basis term of b: the
    route of mul when b is the shorter factor, and the tests' oracle for
    the reversed route."""
    pieces = ((da * db, _mul(ta, a.n, tb)) for da, ta in split_raw(a) for db, tb in split_raw(b))
    return HeckeElement._from(a.n, join_raw(pieces))


def _mul(terms: dict, n: int, rhos: dict) -> dict:
    acc: dict = {}
    for rho, q in rhos.items():
        for pi, p in _right_word(terms, n, [i + 1 for i in reduced_word(rho)]).items():
            r = acc.setdefault(pi, {})
            for (a, b, c), k in q.items():
                for (e1, e2, e3), m in p.items():
                    e = (e1 + a, e2 + b, e3 + c)
                    if v := r.get(e, 0) + m * k:
                        r[e] = v
                    else:
                        del r[e]
    return acc


def tensor(a: HeckeElement, b: HeckeElement) -> HeckeElement:
    """Juxtaposition: b's strands are appended after a's."""
    n = a.n + b.n
    acc: dict[Perm, Scalar] = {}
    for pi, c1 in a.terms.items():
        for rho, c2 in b.terms.items():
            key = pi + tuple(r + a.n for r in rho)
            acc[key] = c1 * c2
    return HeckeElement._from(n, acc)


def _check_support(n: int, count: int) -> None:
    """Refuse a Hecke element of count terms past ENUMERATION_CAP! of them,
    which no product on ENUMERATION_CAP or fewer strands reaches."""
    cap = factorial(ENUMERATION_CAP)
    if count > cap:
        raise ValueError(f"a Hecke element on {n} strands reached {count} terms, "
                         f"over the cap of {ENUMERATION_CAP}! = {cap}")


def check_strand_cap(n: int) -> None:
    """Refuse a braid on more than STRAND_CAP strands."""
    if n > STRAND_CAP:
        raise ValueError(f"a braid on {n} strands is over the cap of {STRAND_CAP}")


def check_enumeration_cap(n: int) -> None:
    """Refuse a sum over S_n, or a block of one, past ENUMERATION_CAP strands."""
    if n > ENUMERATION_CAP:
        raise ValueError(
            f"enumeration over {n} strands exceeds the cap {ENUMERATION_CAP}; "
            "raise hecke.ENUMERATION_CAP to force it"
        )


def _enumerated_sum(n: int, q) -> HeckeElement:
    """Sum of all basis braids T_pi weighted by q^length(pi), q as (ex, ev, es, coeff)."""
    if n < 1:
        raise ValueError("need at least one strand")
    check_enumeration_cap(n)
    a, b, c, k = q
    terms = {}
    for pi in all_perms(n):
        l = inversions(pi)
        terms[pi] = Scalar.monomial(a * l, b * l, c * l, k ** l)
    return HeckeElement._from(n, terms)


def a_element(n: int) -> HeckeElement:
    """Sum of all basis braids weighted by (x^-1 s)^length, by enumeration."""
    return _enumerated_sum(n, _ROW_Q)


def b_element(n: int) -> HeckeElement:
    """Sum of all basis braids weighted by (-x^-1 s^-1)^length, by enumeration."""
    return _enumerated_sum(n, _COL_Q)


@cache
def _symmetric_group(r: int) -> tuple:
    """Each tau in S_r as (itemgetter(*tau), l(tau)), built by inserting the
    largest value into each element of S_(r-1): at slot j of a tuple of v
    values it passes the v - j after it.  r >= 2, so every getter returns a
    tuple; both weights and every block offset share the table."""
    perms = [((), 0)]
    for v in range(r):
        perms = [(tau[:j] + (v,) + tau[j:], l + v - j) for tau, l in perms for j in range(v + 1)]
    return tuple((itemgetter(*tau), l) for tau, l in perms)


def _right_young(terms: dict, n: int, blocks, offset: int, q) -> dict:
    """Raw kernel: terms times the Young-subgroup sum A = sum_tau q^l(tau) T_tau
    over the subgroup S of consecutive strand blocks from offset, by cosets.

    T_pi = T_d T_sigma, where d is pi sorted within each block, the least
    element of pi S, and sigma in S has l(sigma) inversions within the
    blocks; T_sigma A = (q x^2)^l(sigma) A and T_d T_tau = T_(d tau).  So
    h A = sum_d g_d sum_tau q^l(tau) T_(d tau) with
    g_d = sum_sigma (q x^2)^l(sigma) h_(d sigma): one pass over h folds it
    onto the g_d, and the output has exactly len(g) * prod r! terms, refused
    past ENUMERATION_CAP! before any S_r table or output term is built.
    The g_d are then spread over their cosets one block at a time, each
    new polynomial adopted at tau = 1.  One-strand blocks are skipped."""
    spans = []
    for r in blocks:
        if r > 1:
            if offset < 0 or offset + r > n:
                raise ValueError(f"a block of {r} strands at offset {offset} does not fit {n} strands")
            spans.append((offset, offset + r))
        offset += r
    a, b, c, k = q
    folded: dict = {}
    for pi, p in terms.items():
        d, l = pi, 0
        for lo, hi in spans:
            block = pi[lo:hi]
            l += inversions(block)
            d = d[:lo] + tuple(sorted(block)) + d[hi:]
        sa, sb, sc, m = (a + 2) * l, b * l, c * l, k ** l
        g = folded.get(d)
        if g is None:
            folded[d] = {(e1 + sa, e2 + sb, e3 + sc): v * m for (e1, e2, e3), v in p.items()}
            continue
        for (e1, e2, e3), t in p.items():
            e = (e1 + sa, e2 + sb, e3 + sc)
            if v := g.get(e, 0) + t * m:
                g[e] = v
            else:
                del g[e]
        if not g:
            del folded[d]
    _check_support(n, len(folded) * prod(factorial(hi - lo) for lo, hi in spans))
    if not folded:
        return folded  # the count bounds no S_r table for a zero element
    for lo, hi in spans:
        shifts = [(a * l, b * l, c * l, k ** l) for l in range((hi - lo) * (hi - lo - 1) // 2 + 1)]
        spread = {}
        for d, p in folded.items():
            head, block, tail = d[:lo], d[lo:hi], d[hi:]
            for get, l in _symmetric_group(hi - lo):
                sa, sb, sc, m = shifts[l]
                spread[head + get(block) + tail] = {(e1 + sa, e2 + sb, e3 + sc): v * m
                                                    for (e1, e2, e3), v in p.items()} if l else p
        folded = spread
    return folded


def right_e_lambda(h: HeckeElement, lam: Partition, offset: int) -> HeckeElement:
    """h times e_lambda on strands offset+1 .. offset+|lam|: the row sum, the
    letters of T_w, the column sum and the letters of T_w^-1."""
    check_enumeration_cap(max(lam.parts[0], len(lam.parts)))
    # Basis labels are position-to-strand maps, so the braid whose strands
    # carry row cell i to column cell pi(i) is labelled by the inverse.
    word = [offset + i + 1 for i in reduced_word(inverse(transpose_permutation(lam)))]

    def kernel(terms: dict, n: int) -> dict:
        terms = _right_word(_right_young(terms, n, lam.parts, offset, _ROW_Q), n, word)
        terms = _right_young(terms, n, lam.transpose().parts, offset, _COL_Q)
        return _right_word(terms, n, [-j for j in reversed(word)])

    return h._apply(kernel)


@cache
def e_lambda(lam: Partition) -> HeckeElement:
    """The quasi-idempotent a_row T_w b_col T_w^-1 of Aiston-Morton, with
    e^2 = alpha * e: a_row and b_col are the row and column Young-subgroup
    sums, applied by cosets (_right_young), not enumerated and multiplied."""
    if lam.size < 1:
        raise ValueError("partition must be nonempty")
    return right_e_lambda(HeckeElement.one(lam.size), lam, 0)


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

