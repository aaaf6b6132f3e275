"""The skein of the annulus (positive winding part).

Monomials in the winding generators A_m form the basis; closure carries
Hecke elements here.  The closure of a single braid diagram is computed
by descending resolution: walk the closed diagram component by
component, switch or smooth the first crossing whose first visit passes
under, and evaluate the resulting descending diagrams, where every
component is an unknotted curve contributing its winding generator times
a framing monomial.  This keeps closure a skein invariant; in particular
conjugate braid words close to the same element, which a lookup by cycle
type alone would not survive.

On top of the closure sit the normalized idempotent closures Q, the
column isomorphism theta from the diagram ring, the triangular change of
basis back from Q-monomials to the winding basis, and the planar
evaluation.
"""

from __future__ import annotations

from .diagram_ring import CPoly, DiagramVector, gen, phi_inverse
from .hecke import _XINVZ, _XZ, BraidWord, HeckeElement, alpha, e_lambda
from .linear import FormalSum, linear_map, multiset_text
from .partitions import Partition
from .perms import Perm, cycles, reduced_word
from .scalars import Scalar, delta


class AnnulusElement(FormalSum):
    """Scalar combination of monomials in the winding generators; a key
    is the descending tuple of winding numbers, () for the unit."""

    __slots__ = ()
    _unit_key = ()
    _print_reverse = True

    def _mul_keys(self, k1, k2):
        return {tuple(sorted(k1 + k2, reverse=True)): 1}

    def _format_key(self, key):
        return multiset_text(key, "A", ascending=False)

    def degree(self) -> int:
        """Weighted degree; raises on inhomogeneous input."""
        degs = {sum(k) for k in self.terms}
        if not degs:
            return 0
        if len(degs) > 1:
            raise ValueError(f"inhomogeneous element, degrees {sorted(degs)}")
        return degs.pop()


def a_gen(m: int) -> AnnulusElement:
    """The single winding-m generator."""
    if m < 1:
        raise ValueError("winding index must be positive")
    return AnnulusElement.term((m,))


def _strand_data(n: int, letters):
    """Simulate the word top to bottom.

    Returns (entrants, endpos): entrants[t] is the pair of strands
    crossing at letter t, left one first; endpos[s] the bottom position
    of the strand that started at top position s.
    """
    pos = list(range(n))
    entrants = []
    for j in letters:
        i = abs(j) - 1
        u, w = pos[i], pos[i + 1]
        entrants.append((u, w))
        pos[i], pos[i + 1] = w, u
    endpos = [0] * n
    for p, s in enumerate(pos):
        endpos[s] = p
    return entrants, endpos


_resolve_cache: dict[tuple[int, tuple[int, ...]], AnnulusElement] = {}


def resolve_word(n: int, letters) -> AnnulusElement:
    """Closure of a braid word in the annulus, by descending resolution."""
    letters = tuple(letters)
    out = _resolve_cache.get((n, letters))
    if out is not None:
        return out
    entrants, endpos = _strand_data(n, letters)
    comps = cycles(endpos)
    rank = {}
    for comp in comps:
        for s in comp:
            rank[s] = len(rank)
    # first crossing, in traversal order, whose first visit goes under
    bad = None
    for t, j in enumerate(letters):
        u, w = entrants[t]
        over = u if j > 0 else w
        first = u if rank[u] < rank[w] else w
        if first != over:
            visit = (rank[first], t)
            if bad is None or visit < bad[0]:
                bad = (visit, t)
    if bad is None:
        comp_of = {}
        for ci, comp in enumerate(comps):
            for s in comp:
                comp_of[s] = ci
        writhe = [0] * len(comps)
        for t, j in enumerate(letters):
            u, w = entrants[t]
            if comp_of[u] == comp_of[w]:
                writhe[comp_of[u]] += 1 if j > 0 else -1
        e = sum(writhe[ci] - (len(comp) - 1) for ci, comp in enumerate(comps))
        key = tuple(sorted((len(comp) for comp in comps), reverse=True))
        out = AnnulusElement.term(key, Scalar.monomial(e, -e, 0))
    else:
        t = bad[1]
        j = letters[t]
        switched = letters[:t] + (-j,) + letters[t + 1 :]
        smoothed = letters[:t] + letters[t + 1 :]
        # switching makes this crossing descend without moving any strand,
        # so the first bad visit moves strictly later and the recursion
        # bottoms out
        if j > 0:
            out = resolve_word(n, switched).scale(Scalar.monomial(2, 0, 0)) + resolve_word(
                n, smoothed
            ).scale(_XZ)
        else:
            out = resolve_word(n, switched).scale(Scalar.monomial(-2, 0, 0)) - resolve_word(
                n, smoothed
            ).scale(_XINVZ)
    _resolve_cache[(n, letters)] = out
    return out


_ppb_closure_cache: dict[Perm, AnnulusElement] = {}


def _closure_basis(pi: Perm) -> AnnulusElement:
    out = _ppb_closure_cache.get(pi)
    if out is None:
        word = tuple(i + 1 for i in reduced_word(pi))
        out = resolve_word(len(pi), word)
        _ppb_closure_cache[pi] = out
    return out


def closure(h: HeckeElement) -> AnnulusElement:
    """Close a Hecke element around the annulus."""
    return linear_map(h, _closure_basis, AnnulusElement)


def closure_word(w: BraidWord) -> AnnulusElement:
    """Closure of a braid word directly, bypassing the basis expansion."""
    return resolve_word(w.strand_count, w.letters)


_q_cache: dict[Partition, AnnulusElement] = {}


def Q(lam: Partition) -> AnnulusElement:
    """Normalized closure of the quasi-idempotent for lam."""
    out = _q_cache.get(lam)
    if out is None:
        if lam.size == 0:
            out = AnnulusElement.one()
        else:
            out = closure(e_lambda(lam)).scale(Scalar.one() / alpha(lam))
        _q_cache[lam] = out
    return out


def q_hook(k: int, l: int) -> AnnulusElement:
    """Q of the hook with k rows and l columns."""
    return Q(Partition.hook(k, l))


_theta_key_cache: dict[tuple[int, ...], AnnulusElement] = {(): AnnulusElement.one()}


def _theta_key(key: tuple[int, ...]) -> AnnulusElement:
    """theta of one column monomial: from the longest memoised suffix of
    key, multiply the columns back on and memoise the whole key."""
    out = _theta_key_cache.get(key)
    if out is not None:
        return out
    start = 1
    while key[start:] not in _theta_key_cache:
        start += 1
    out = _theta_key_cache[key[start:]]
    for i in range(start - 1, -1, -1):
        out = out * Q(Partition((1,) * key[i]))
    _theta_key_cache[key] = out
    return out


def theta(p) -> AnnulusElement:
    """The column isomorphism: c_k goes to Q of the k-cell column,
    extended multiplicatively.  Accepts CPoly or DiagramVector."""
    if isinstance(p, DiagramVector):
        p = phi_inverse(p)
    return linear_map(p, _theta_key, AnnulusElement)


_a_in_q_cache: dict[int, CPoly] = {}


def a_in_Q_basis(n: int) -> CPoly:
    """Express the winding generator A_n in the column generators, so
    that theta of the result is exactly A_n.

    Triangular: Q of the n-cell column contains A_n with an invertible
    leading coefficient; everything else involves smaller winding
    numbers only.
    """
    if n < 1:
        raise ValueError("winding index must be positive")
    out = _a_in_q_cache.get(n)
    if out is not None:
        return out
    qn = _theta_key((n,))
    lead = qn.coeff((n,))
    acc = gen(n)
    for key, c in qn.terms.items():
        if key == (n,):
            continue
        correction = CPoly.one()
        for m in key:
            correction = correction * a_in_Q_basis(m)
        acc = acc - correction * c
    out = acc.scale(Scalar.one() / lead)
    _a_in_q_cache[n] = out
    return out


def epsilon_plane(e: AnnulusElement) -> Scalar:
    """Evaluate an annulus element in the plane.

    Ring homomorphism determined by the value of a single winding-m
    curve: delta times the curl monomial to the power m-1.
    """
    d = delta()
    acc = Scalar.zero()
    for key, c in e.terms.items():
        exp = sum(key) - len(key)
        acc = acc + c * d ** len(key) * Scalar.monomial(exp, -exp, 0)
    return acc
