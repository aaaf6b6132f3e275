"""The skein of the annulus (positive winding part).

Monomials in the winding generators A_m form the basis.  A braid word
closes through its image in the Hecke algebra, where closure is a trace,
fixed by its values on the permutation braids T_pi (Geck-Pfeiffer,
*Characters of finite Coxeter groups and Iwahori-Hecke algebras*, 3.2,
8.2).  If pi has length n - (number of cycles), it is a product of
distinct generators and T_pi closes to the product of A_k over its cycle
lengths k.  Otherwise some u reached from pi by length-preserving cyclic
shifts u -> s_i u s_i, which keep the closure, has s_i u s_i two shorter,
and T_i^2 = xz T_i + x^2 gives cl(u) = xz cl(u s_i) + x^2 cl(s_i u s_i).
closure pushes raw polynomial coefficients down these steps, longest
permutations first; the step from each permutation is memoised.
decorated_closure closes a braid coloured by a partition: the satellite
with one idempotent per closed component of the cabled braid.

On top of the closure sit the normalized idempotent closures Q, the
column isomorphism theta from the diagram ring, and the planar
evaluation epsilon_plane, a ring homomorphism taken as one sum over the
keys: k curls winding w times in all give delta^k (x v^-1)^(w - k).
AnnulusElement is a linear.Polynomial, as the column ring is, and theta
memoises its image of each whole column monomial, as diagram_ring.phi
does.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from math import comb, prod

from .diagram_ring import DiagramVector, phi_inverse
from .hecke import (
    BraidWord,
    HeckeElement,
    alpha,
    cable_word,
    check_enumeration_cap,
    check_strand_cap,
    e_lambda,
    from_word,
    right_e_lambda,
)
from .linear import Polynomial, join_raw, linear_map, multiset_text, split_raw
from .partitions import Partition, partitions_of
from .perms import Perm, cycles, inversions, swap_positions
from .scalars import DELTA, Scalar, scalar_sum


class AnnulusElement(Polynomial):
    """Polynomial in the winding generators A_m, printed highest winding
    first; a key is the descending tuple of winding numbers."""

    __slots__ = ()
    _print_reverse = True

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


@cache
def _closure_step(pi: Perm):
    """(length, key, None, None) when pi has minimal length in its conjugacy
    class, key the winding key of its cycle type.  Otherwise (length, None,
    u s_i, s_i u s_i) for the first u and i, breadth first in the
    cyclic-shift class of pi, with s_i u s_i two shorter (Geck-Pfeiffer
    3.2.9): T_u = T_i T_v T_i for v = s_i u s_i, and T_i^2 = xz T_i + x^2."""
    length = inversions(pi)
    cyc = cycles(pi)
    if length == len(pi) - len(cyc):
        return length, tuple(sorted(map(len, cyc), reverse=True)), None, None
    visited, seen = [pi], {pi}
    for u in visited:
        for i in range(len(pi) - 1):
            w = swap_positions(u, i)
            a, b = w.index(i), w.index(i + 1)
            # u s_i is one longer than u on an ascent at i, and s_i u s_i one
            # longer than u s_i when the value i comes first in u s_i
            steps_up = (u[i] < u[i + 1]) + (a < b)
            if steps_up < 2:
                v = list(w)
                v[a], v[b] = i + 1, i
                v = tuple(v)
                if not steps_up:
                    return length, None, w, v
                if v not in seen:
                    seen.add(v)
                    visited.append(v)


def _push_down(terms: dict) -> dict:
    """Raw closure of {perm: polynomial}: each coefficient moves to shorter
    permutations, longest first, until it reaches a winding key.  The input's
    polynomials are copied once; every later one is owned, so a level's
    polynomials are updated in place and a minimal one is adopted."""
    levels = [{} for _ in range(1 + max((_closure_step(pi)[0] for pi in terms), default=-1))]
    for pi, p in terms.items():
        levels[_closure_step(pi)[0]][pi] = p.copy()
    out: dict = {}
    for length in range(len(levels) - 1, -1, -1):
        for pi, p in levels[length].items():
            _, key, shorter, shortest = _closure_step(pi)
            if key is not None:
                q = out.setdefault(key, p)
                if q is not p:
                    for e, m in p.items():
                        if v := q.get(e, 0) + m:
                            q[e] = v
                        else:
                            del q[e]
                continue
            q = levels[length - 1].setdefault(shorter, {})
            r = levels[length - 2].setdefault(shortest, {})
            for (e1, e2, e3), m in p.items():
                e = (e1 + 1, e2, e3 + 1)
                if v := q.get(e, 0) + m:
                    q[e] = v
                else:
                    del q[e]
                e = (e1 + 1, e2, e3 - 1)
                if v := q.get(e, 0) - m:
                    q[e] = v
                else:
                    del q[e]
                e = (e1 + 2, e2, e3)
                if v := r.get(e, 0) + m:
                    r[e] = v
                else:
                    del r[e]
    return out


def closure(h: HeckeElement) -> AnnulusElement:
    """Close a Hecke element around the annulus."""
    return AnnulusElement._from(join_raw((den, _push_down(terms)) for den, terms in split_raw(h)))


def closure_word(w: BraidWord) -> AnnulusElement:
    """Closure of a braid word, refused past STRAND_CAP strands.  A strand
    no letter moves closes to A1 on its own, so the word closes through its
    Hecke image on the strands it moves, renumbered in order, and A1 is
    appended to every key once for each other strand."""
    check_strand_cap(w.strand_count)
    gens = {abs(j) for j in w.letters}
    rank = {s: r for r, s in enumerate(sorted(gens | {g + 1 for g in gens}), 1)}
    moved = HeckeElement.one(len(rank)).right_word([rank[j] if j > 0 else -rank[-j] for j in w.letters])
    free = (1,) * (w.strand_count - len(rank))
    return AnnulusElement._from({key + free: c for key, c in closure(moved).terms.items()})


def decorated_closure(w: BraidWord, lam: Partition) -> AnnulusElement:
    """Closure of w with every component coloured by Q(lam): the satellite
    of w with pattern e_lambda / alpha(lam).  w is cabled by |lam|, and the
    cable is multiplied by e_lambda on one |lam|-strand bundle per component,
    the bundle of the least strand of each cycle of w's permutation.  An
    idempotent slides around its closed component and e_lambda^2 =
    alpha(lam) e_lambda (Aiston-Morton 1998), so one bundle per component
    closes to the same element as e_lambda on every bundle, divided by
    alpha(lam) once per component.  A colour with a row or column past
    ENUMERATION_CAP is refused before the cable is built."""
    k = lam.size
    if k < 1:
        raise ValueError("decoration partition must be nonempty")
    check_enumeration_cap(max(lam.parts[0], len(lam.parts)))
    h = from_word(cable_word(w, k))
    components = cycles(w.permutation())
    for cycle in components:
        h = right_e_lambda(h, lam, cycle[0] * k)
    return closure(h).scale(Scalar.one() / alpha(lam) ** len(components))


@cache
def closed_idempotent(lam: Partition) -> AnnulusElement:
    """Closure of the quasi-idempotent e_lambda, alpha(lam) times Q(lam)."""
    return closure(e_lambda(lam))


@cache
def Q(lam: Partition) -> AnnulusElement:
    """Normalized closure of the quasi-idempotent for lam."""
    if lam.size == 0:
        return AnnulusElement.one()
    return closed_idempotent(lam).scale(Scalar.one() / alpha(lam))


def q_hook(k: int, l: int) -> AnnulusElement:
    """Q of the hook with k rows and l columns."""
    return Q(Partition.hook(k, l))


# theta of a column monomial multiplies Q of its columns c2, c3, ...
# together.  A monomial that _theta_size puts over THETA_SIZE_CAP is
# refused before any product is taken.  One unit costs about 2 us, so the
# cap admits about 2 s: c3^20 and c4^7 run, c3^21 and c4^8 are refused.
THETA_SIZE_CAP = 1_000_000


def _theta_size(key: tuple[int, ...]) -> int:
    """Estimated work in theta of the column monomial key (descending).

    key holds no c1 column, which theta appends without a product.  The
    product has at most the fewer of the annulus monomials in the box its
    columns span (A_j, j >= 2, at most sum k // j times) and the multisets
    of one of the p(k) terms of Q(1^k) per column.  Each of its
    coefficients costs about the square of the summed s-degree k(k-1)/2 of
    the columns.  A column over ENUMERATION_CAP cells is refused here as Q
    would refuse it.
    """
    check_enumeration_cap(key[0])
    counts = Counter(key)
    box = prod(1 + sum(m * (k // j) for k, m in counts.items()) for j in range(2, max(counts) + 1))
    multisets = prod(comb(m + sum(1 for _ in partitions_of(k)) - 1, m) for k, m in counts.items())
    degree = sum(m * k * (k - 1) // 2 for k, m in counts.items())
    return min(box, multisets) * degree ** 2


@cache
def _theta_key(key: tuple[int, ...]) -> AnnulusElement:
    """theta of one column monomial, memoised per whole key.  Q(1) = A1, so
    the trailing run of c1 columns is appended to every winding key of the
    product of Q over the other columns, multiplied on from the last."""
    cols = key[:len(key) - key.count(1)]
    if cols and (size := _theta_size(cols)) > THETA_SIZE_CAP:
        raise ValueError("theta of %s has estimated size %d, over the cap of %d"
                         % (multiset_text(key, "c", ascending=True), size, THETA_SIZE_CAP))
    out = AnnulusElement.one()
    for k in reversed(cols):
        out = out * Q(Partition((1,) * k))
    run = key[len(cols):]
    return AnnulusElement._from({w + run: c for w, c in out.terms.items()})


def theta(p) -> AnnulusElement:
    """The column isomorphism: c_k goes to Q of the k-cell column,
    extended multiplicatively.  Accepts CPoly or DiagramVector."""
    if isinstance(p, DiagramVector):
        p = phi_inverse(p)
    return linear_map(p, _theta_key, AnnulusElement)


def epsilon_plane(e: AnnulusElement) -> Scalar:
    """Evaluate an annulus element in the plane.

    Ring homomorphism determined by the value of a single winding-m
    curve: delta times the curl monomial to the power m-1, so a key of k
    curls winding w times in all goes to delta^k (x v^-1)^(w - k).
    """
    terms = []
    for key, c in e.terms.items():
        exp = sum(key) - len(key)
        terms.append(c * DELTA ** len(key) * Scalar.monomial(exp, -exp, 0))
    return scalar_sum(terms)
