"""The ring of formal diagram combinations and its polynomial presentation.

DiagramVector is the free module on partitions with the induced
multiplication; CPoly is the polynomial ring on column generators c_k, a
linear.Polynomial like the annulus ring.  The two sides are identified by
phi, which sends c_k to the single column with k cells; its image of a
monomial is memoised per whole monomial, as annulus.theta's is.  d gives
the single-row elements through the alternating recurrence, and psi the
power-sum analogues, in both presentations.
"""

from __future__ import annotations

from functools import cache
from itertools import islice

from .linear import FormalSum, Polynomial, add_term, linear_map, multiset_text
from .partitions import EMPTY, Partition, lr_product, partitions_of
from .scalars import Scalar


class DiagramVector(FormalSum):
    """Scalar combination of partitions; the product of basis diagrams
    is their induced (Littlewood-Richardson) expansion."""

    __slots__ = ()
    _unit_key = EMPTY
    _print_reverse = True

    def _mul_keys(self, k1, k2):
        return lr_product(k1, k2)

    def _format_key(self, key):
        return str(key)


class CPoly(Polynomial):
    """Polynomial in the column generators c_k, printed lowest index first."""

    __slots__ = ()

    def _format_key(self, key):
        return multiset_text(key, "c", ascending=True)


def gen(k: int) -> CPoly:
    """The generator c_k; c_0 is the unit."""
    if k < 0:
        raise ValueError("column index must be nonnegative")
    if k == 0:
        return CPoly.one()
    return CPoly.term((k,))


@cache
def _column_product(key: tuple[int, ...]) -> DiagramVector:
    """Image of the monomial with index multiset `key` under phi: its
    columns multiplied on from the last, memoised per whole key."""
    out = DiagramVector.one()
    for k in reversed(key):
        out = out * DiagramVector.term(Partition((1,) * k))
    return out


def phi(p: CPoly) -> DiagramVector:
    """Replace each c_k by the column (1^k) and multiply out."""
    return linear_map(p, _column_product, DiagramVector)


@cache
def _phi_inverse_partition(lam: Partition) -> CPoly:
    if lam.size == 0:
        return CPoly.one()
    cols = tuple(lam.transpose().parts)
    expansion = _column_product(cols)
    assert expansion.coeff(lam) == 1
    out = CPoly.term(cols)
    for mu, c in expansion.terms.items():
        if mu == lam:
            continue
        # every correction lies strictly below lam, so this recursion
        # bottoms out
        assert mu < lam
        out = out - _phi_inverse_partition(mu) * c
    return out


def phi_inverse(v: DiagramVector) -> CPoly:
    """Inverse of phi, by back substitution along the column monomials."""
    return linear_map(v, _phi_inverse_partition, CPoly)


@cache
def d(l: int) -> CPoly:
    """The single-row element of length l, as a polynomial in the c_k.

    d_0 = 1 and d_m = sum_{k=1}^{m} (-1)^(k-1) c_k d_{m-k}; under phi
    this lands on the one-row partition (m).
    """
    if l < 0:
        raise ValueError("row length must be nonnegative")
    if l == 0:
        return CPoly.one()
    acc = CPoly.zero()
    sign = 1
    for k in range(1, l + 1):
        piece = gen(k) * d(l - k)
        acc = acc + piece if sign > 0 else acc - piece
        sign = -sign
    return acc


# psi(m) has one c-monomial per partition of m; past this many terms it is
# refused before any is built.  It admits m <= 32: p(32) = 8,349 terms take
# about 2 s, and the time and memory grow faster than the count.
PSI_TERM_CAP = 10_000


def _over_term_cap(m: int) -> bool:
    """Whether m has more than PSI_TERM_CAP partitions.  The count stops at
    the first one over the cap, so a huge m costs no more than m = 33."""
    return sum(1 for _ in islice(partitions_of(m), PSI_TERM_CAP + 1)) > PSI_TERM_CAP


def psi(m: int) -> tuple[CPoly, DiagramVector]:
    """The degree-m power sum in both presentations.

    Returns (sum_{k=1}^m (-1)^(k-1) k c_k d_{m-k},
             sum_{k=1}^m (-1)^(k-1) [hook with k rows, m-k+1 columns]);
    phi carries the first onto the second.
    """
    if m < 1:
        raise ValueError("power sum index must be positive")
    if _over_term_cap(m):
        raise ValueError("psi_%d has one term per partition of %d, more than the cap of %d"
                         % (m, m, PSI_TERM_CAP))
    cp = CPoly.zero()
    dv_terms: dict[Partition, Scalar] = {}
    sign = 1
    for k in range(1, m + 1):
        piece = (gen(k) * d(m - k)).scale(k)
        cp = cp + piece if sign > 0 else cp - piece
        add_term(dv_terms, Partition.hook(k, m - k + 1), Scalar(sign))
        sign = -sign
    return cp, DiagramVector._from(dv_terms)
