"""Power sums of cycle closures, generating series, torus knots,
and the linear solver for cable-pattern decompositions.

The central object is the combination P(m) of m-string cycle closures whose
normalized image realizes the m-th Adams operation on the first column
generator.  Everything here is exact.  A generating series is the element
that sums its coefficients, graded by weighted degree: products are
ordinary ring products cut back to the order, and two series are compared
by the least degree at which they differ.  Every cycle braid is closed
through the memoised cycle_closure, and P is memoised on top of it, so a
session closes each cycle braid once.  The coloured patterns of
cable_counterexample are annulus.decorated_closure satellites, with one
idempotent per closed component.
"""

import math
from functools import cache

from .annulus import AnnulusElement, closure_word, decorated_closure, epsilon_plane, Q, theta
from .diagram_ring import CPoly, d, gen, psi
from .hecke import BraidWord
from .linear import Polynomial
from .partitions import Partition, hook_framing_root
from .scalars import ONE_LP, Z_LP, LaurentPoly, Scalar, exact_quo, quantum_int, slices, specialize_sln, unslice


def a_braid(i: int, j: int) -> BraidWord:
    """Cycle braid on i+j+1 strands: i positive then j negative crossings
    carried by one strand descending through all the others.

    >>> str(a_braid(1, 1))
    '1 -2'
    >>> a_braid(0, 0).strand_count
    1
    """
    if i < 0 or j < 0:
        raise ValueError("crossing counts must be nonnegative")
    letters = list(range(1, i + 1))
    letters += [-t for t in range(i + 1, i + j + 1)]
    return BraidWord(i + j + 1, letters)


@cache
def cycle_closure(i: int, j: int) -> AnnulusElement:
    """Closure of the cycle braid a_braid(i, j); the all-positive one is A_(i+1).

    >>> str(cycle_closure(2, 0))
    'A3'
    """
    return closure_word(a_braid(i, j))


@cache
def P(m: int) -> AnnulusElement:
    """Alternating-weight sum of the m-string cycle closures.

    The x-weight pairs x^(m-1) with the all-negative cycle and x^(1-m) with
    the all-positive one.

    >>> str(P(2))
    '2*x^-1*A2 - (s - s^-1)*A1^2'
    """
    if m < 1:
        raise ValueError("m must be positive")
    acc = AnnulusElement.zero()
    for i in range(m):
        acc = acc + cycle_closure(i, m - 1 - i).scale(Scalar.monomial(m - 1 - 2 * i, 0, 0))
    return acc


def power_sum_image(m: int) -> AnnulusElement:
    """Image in the annulus of the m-th Newton power sum, scaled by [m]."""
    return theta(psi(m)[0]).scale(Scalar(quantum_int(m)))


# A generating series a_0 + a_1 X + ... + a_(n-1) X^(n-1) is held as the
# element a_0 + a_1 + ... + a_(n-1).  Each a_i is homogeneous of weighted
# degree i + shift, so a key of weighted degree w sits at X^(w - shift).  The
# shift is 0 for C and D and 1 for psi, the derivatives (reweight) and the
# cycle-closure series.  Series multiply as elements; the product is cut back to order.


def truncate(e: Polynomial, n: int) -> Polynomial:
    """The part of e of weighted degree at most n."""
    return e._like({k: c for k, c in e.terms.items() if sum(k) <= n})


def substitute(e: Polynomial, a: Scalar, shift: int) -> Polynomial:
    """Replace X by aX in the series e: weighted degree w picks up a^(w - shift)."""
    return e._like({k: c * a ** (sum(k) - shift) for k, c in e.terms.items()})


def reweight(e: Polynomial, weight) -> Polynomial:
    """e with its part of weighted degree w scaled by weight(w): the series
    derivative of series_c(order + 1) or series_d(order + 1), shift 1, for
    weight(w) = w, and its quantum derivative for weight(w) = [w].  The
    terms of weight 0 drop out."""
    out = {}
    for k, c in e.terms.items():
        w = weight(sum(k))
        if w:
            out[k] = c * w
    return e._like(out)


def first_difference(e: Polynomial, f: Polynomial, shift: int) -> int | None:
    """Least X-degree at which the series e and f disagree, or None."""
    degrees = [sum(k) for k in (e - f).terms]
    return min(degrees) - shift if degrees else None


def series_c(order: int) -> CPoly:
    """Alternating generating series of the column generators, shift 0:
    1 - c1 X + c2 X^2 - ..."""
    return sum((gen(k).scale((-1) ** k) for k in range(order)), CPoly.zero())


def series_d(order: int) -> CPoly:
    """Reciprocal of series_c, shift 0: 1 + d1 X + d2 X^2 + ..."""
    return sum((d(l) for l in range(order)), CPoly.zero())


def series_power_sums(order: int) -> CPoly:
    """Newton power sums as column polynomials, shift 1: psi_m(c_1) at X^(m-1)."""
    return sum((psi(m)[0] for m in range(1, order + 1)), CPoly.zero())


def series_plus(order: int) -> AnnulusElement:
    """Positive cycle closures, shift 1: A_m at X^(m-1)."""
    return sum((cycle_closure(m - 1, 0) for m in range(1, order + 1)), AnnulusElement.zero())


def series_minus(order: int) -> AnnulusElement:
    """Negative cycle closures, shift 1: at X^(m-1) the one on m strands."""
    return sum((cycle_closure(0, m - 1) for m in range(1, order + 1)), AnnulusElement.zero())


def positive_cycle_expansion(m: int) -> AnnulusElement:
    """A_m written through the images of the mixed products c_k d_{m-k}."""
    acc = AnnulusElement.zero()
    for k in range(1, m + 1):
        coeff = Scalar.monomial(0, 0, m - k) * Scalar(quantum_int(k))
        if k % 2 == 0:
            coeff = -coeff
        acc = acc + theta(gen(k) * d(m - k)).scale(coeff)
    return acc.scale(Scalar.monomial(m - 1, 0, 0))


def negative_cycle_expansion(m: int) -> AnnulusElement:
    """The mirror expansion for the all-negative cycle closure."""
    acc = AnnulusElement.zero()
    for k in range(m):
        coeff = Scalar.monomial(0, 0, k) * Scalar(quantum_int(m - k))
        if k % 2 == 1:
            coeff = -coeff
        acc = acc + theta(gen(k) * d(m - k)).scale(coeff)
    return acc.scale(Scalar.monomial(1 - m, 0, 0))


def torus_braid(m: int, p: int) -> BraidWord:
    """The (m, p) torus braid: p repetitions of the full positive pass."""
    if m < 1 or p < 1:
        raise ValueError("m and p must be positive")
    return BraidWord(m, list(range(1, m)) * p)


def rosso_jones(m: int, p: int) -> AnnulusElement:
    """Hook expansion of the framed (m, p) torus-knot satellite with the
    fundamental colour.  Signs alternate across the m hooks of m cells and
    each hook carries the p-th power of its framing root.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if p < 1:
        raise ValueError("p must be positive")
    if math.gcd(m, p) != 1:
        raise ValueError("m and p must be coprime")
    acc = AnnulusElement.zero()
    for k in range(1, m + 1):
        mono = hook_framing_root(k, m - k + 1) ** p
        if k % 2 == 0:
            mono = -mono
        acc = acc + Q(Partition.hook(k, m - k + 1)).scale(mono)
    return acc


# Caps on the planar Rosso-Jones sum of the (m, p) torus knot (_torus_knot),
# checked before any work.  With k = min(m, p) and top = max(m, p), it sums
# k hooks of k cells.  Building the hook numerators costs about O(k^6):
# k = 12 takes about 0.05 s, k = 16 about 0.3 s and k = 20 about 1.2 s.
# The value has about top k^2 terms, and the k - 1 divisions that bring it
# over Z walk each of them, so top k^3 counts the work: about 1 s per
# million, 0.6 s for (2, 100001) and 2.7 s for (3, 100000).
TORUS_HOOK_CAP = 20
TORUS_WORK_CAP = 2_000_000


def _cell_factor(c: int) -> LaurentPoly:
    """v^-1 s^c - v s^-c, the planar factor of a cell of content c."""
    return LaurentPoly({(0, -1, c): 1, (0, 1, -c): -1})


@cache
def _hook_numerators(k: int) -> tuple[LaurentPoly, ...]:
    """Entry j - 1, for j = 1..k, is the numerator of epsilon_plane(Q) of the
    hook with j rows and k cells over the common denominator Z^k [k]!.

    epsilon_plane(Q(lam)) is the product over the cells of lam of
    (v^-1 s^c - v s^-c) / (s^h - s^-h), for content c and hook length h.
    The hook lengths of the hook with j rows are k, 1..k-j and 1..j-1, so
    its denominator Z^k [k] [k-j]! [j-1]! goes into Z^k [k]! the q-binomial
    [k-1, j-1] times."""
    # row n of the q-binomials [n, i] = s^-i [n-1, i] + s^(n-i) [n-1, i-1]
    row = [ONE_LP]
    for n in range(1, k):
        row = [(row[i].mul_monomial(0, 0, -i) if i < n else LaurentPoly.zero())
               + (row[i - 1].mul_monomial(0, 0, n - i) if i else LaurentPoly.zero())
               for i in range(n + 1)]
    arm = [ONE_LP]  # arm[a]: the cells of contents 0..a-1
    leg = [ONE_LP]  # leg[b]: the cells of contents -1..-b
    for a in range(k):
        arm.append(arm[-1] * _cell_factor(a))
        leg.append(leg[-1] * _cell_factor(-a - 1))
    return tuple(row[j - 1] * arm[k - j + 1] * leg[j - 1] for j in range(1, k + 1))


def _over_s_binomial(num: LaurentPoly, i: int) -> LaurentPoly:
    """num / (s^i - s^-i), which must divide it: each (x, v)-slice is
    divided exactly by s^(2i) - 1, and the quotient raised by s^i."""
    binomial = [-1] + [0] * (2 * i - 1) + [1]
    packs = []
    for ab, coe, lo in slices(num):
        q = exact_quo(coe, binomial)
        if q is None:
            raise ArithmeticError("s^%d - s^-%d does not divide the numerator" % (i, i))
        packs.append((ab, q, lo + i))
    return unslice(packs)


def _torus_knot(m: int, p: int) -> Scalar:
    """epsilon_plane of the closed (m, p) torus braid for coprime m, p.

    With k = min(m, p) and top = max(m, p) this is the planar image of
    rosso_jones(k, top): x^((k-1) top) sum_j (-1)^(j-1) s^(top (k-2j+1))
    epsilon_plane(Q) of the hook with j rows, all over Z^k [k]!.  The
    (m, p) and (p, m) braids close to one knot with writhes p(m-1) and
    m(p-1), so for p < m the (p, m) value is framed by (x v^-1)^(m-p).  A
    knot's value is delta times a Laurent polynomial, so Z^(k-1) [k]! =
    prod_(i=2..k) (s^i - s^-i) divides the summed numerator: it is divided
    out one binomial at a time, which leaves the one division by Z."""
    k, top = min(m, p), max(m, p)
    if k > TORUS_HOOK_CAP:
        raise ValueError("the (%d, %d) torus knot sums hooks of %d cells, over the cap of %d"
                         % (m, p, k, TORUS_HOOK_CAP))
    if top * k**3 > TORUS_WORK_CAP:
        raise ValueError("the (%d, %d) torus knot has estimated work %d, over the cap of %d"
                         % (m, p, top * k**3, TORUS_WORK_CAP))
    num = LaurentPoly.zero()
    for j, hook in enumerate(_hook_numerators(k), 1):
        num = num + hook.mul_monomial((m - 1) * p, k - m, top * (k - 2 * j + 1), (-1) ** (j - 1))
    for i in range(2, k + 1):
        num = _over_s_binomial(num, i)
    return Scalar(num, Z_LP)


def torus_invariant(m: int, p: int, sl: int | None = None, normalize: bool = False):
    """Planar evaluation of the closed (m, p) torus braid: by the planar
    Rosso-Jones sum for a knot (_torus_knot), and by closing the braid for a
    link.

    With normalize, the writhe correction (x v^-1)^(-p(m-1)) is applied so the
    value is the unframed invariant.  With sl=N the result is specialized to a
    one-variable fraction.
    """
    if m >= 1 and p >= 1 and math.gcd(m, p) == 1:
        value = _torus_knot(m, p)
    else:
        value = epsilon_plane(closure_word(torus_braid(m, p)))
    if normalize:
        w = p * (m - 1)
        value = value * Scalar.monomial(-w, w, 0)
    if sl is not None:
        return specialize_sln(value, sl)
    return value


class PatternSystem:
    """Target element and candidate patterns, all homogeneous of one weighted
    degree; the question is whether the target is a scalar combination of the
    patterns."""

    __slots__ = ("target", "patterns")

    def __init__(self, target: AnnulusElement, patterns):
        patterns = list(patterns)
        if not patterns:
            raise ValueError("at least one pattern is required")
        degrees = {e.degree() for e in [target, *patterns] if not e.is_zero()}
        if len(degrees) > 1:
            raise ValueError("target and patterns must share one weighted degree")
        self.target = target
        self.patterns = patterns


class Solution:
    """Consistent outcome: values for each pattern coefficient, with any
    undetermined indices listed in free (their values are reported as 0)."""

    __slots__ = ("values", "free")

    def __init__(self, values, free=()):
        self.values = tuple(values)
        self.free = tuple(free)

    def __eq__(self, other):
        if not isinstance(other, Solution):
            return NotImplemented
        return self.values == other.values and self.free == other.free

    __hash__ = None

    def __str__(self):
        vals = ", ".join(str(v) for v in self.values)
        if self.free:
            return "solution [%s] with free unknowns %s" % (vals, list(self.free))
        return "solution [%s]" % vals


class Inconsistent:
    """Certificate of failure: two equation subsets force different values of
    the same unknown.  Equations are labelled by their A-monomial keys."""

    __slots__ = ("unknown", "first", "second")

    def __init__(self, unknown, first, second):
        self.unknown = unknown
        self.first = first
        self.second = second

    def __str__(self):
        (keys1, v1), (keys2, v2) = self.first, self.second
        def name(keys):
            return "{" + ", ".join(str(AnnulusElement.term(k)) for k in keys) + "}"
        return "inconsistent: unknown %d is %s from %s but %s from %s" % (
            self.unknown, v1, name(keys1), v2, name(keys2))


def _eliminate(rows, nunk):
    """Row reduction keeping original equation labels.  Returns the pivot
    rows (normalized and reduced), the free column indices, and the leftover
    rows after full reduction."""
    work = [(list(cs), r, tag) for cs, r, tag in rows]
    pivots = []
    free = []
    for col in range(nunk):
        hit = next((i for i, (cs, _, _) in enumerate(work) if not cs[col].is_zero()), None)
        if hit is None:
            free.append(col)
            continue
        cs, r, tag = work.pop(hit)
        inv = Scalar.one() / cs[col]
        cs = [c * inv for c in cs]
        r = r * inv
        reduced = []
        for ocs, orr, otag in work:
            f = ocs[col]
            if not f.is_zero():
                ocs = [a - f * b for a, b in zip(ocs, cs)]
                orr = orr - f * r
            reduced.append((ocs, orr, otag))
        work = reduced
        pivots.append((col, cs, r, tag))
    return pivots, free, work


def _back_substitute(pivots, nunk):
    values = [Scalar.zero() for _ in range(nunk)]
    for col, cs, r, _ in reversed(pivots):
        acc = r
        for c in range(col + 1, nunk):
            if not cs[c].is_zero():
                acc = acc - cs[c] * values[c]
        values[col] = acc
    return values


def solve_pattern(system: PatternSystem):
    """Decide whether the target lies in the scalar span of the patterns.

    Equations come from comparing coefficients of each A-monomial.  A
    consistent system yields the combination (free unknowns reported at
    zero); otherwise the certificate exhibits two equation subsets that force
    different values of one unknown.
    """
    patterns = system.patterns
    nunk = len(patterns)
    keys = sorted({k for e in [system.target, *patterns] for k in e.terms}, reverse=True)
    rows = [([p.coeff(key) for p in patterns], system.target.coeff(key), key) for key in keys]
    pivots, free, leftover = _eliminate(rows, nunk)
    values = _back_substitute(pivots, nunk)
    violated = next((tag for cs, r, tag in leftover if not r.is_zero()), None)
    if violated is None:
        return Solution(values, tuple(free))
    pivot_tags = tuple(tag for _, _, _, tag in pivots)
    pivot_cols = {col for col, _, _, _ in pivots}
    row_by_tag = {tag: (cs, r) for cs, r, tag in rows}
    for j in range(len(pivots)):
        tags2 = list(pivot_tags)
        tags2[j] = violated
        sub = [(list(row_by_tag[t][0]), row_by_tag[t][1], t) for t in tags2]
        p2, _, left2 = _eliminate(sub, nunk)
        if len(p2) != len(pivots) or {col for col, _, _, _ in p2} != pivot_cols:
            continue
        if any(not r.is_zero() for _, r, _ in left2):
            continue
        values2 = _back_substitute(p2, nunk)
        for i in range(nunk):
            if values[i] != values2[i]:
                return Inconsistent(i, (pivot_tags, values[i]), (tuple(tags2), values2[i]))
    # No swap works only when the violated equation has no pattern support:
    # it alone contradicts any assignment.
    return Inconsistent(0, (pivot_tags, values[0]), ((violated,), None))


def cable_counterexample(colour: Partition = Partition((1, 1))) -> PatternSystem:
    """The weighted-degree-4 system asking whether the Adams square of the
    second column generator is a combination of the two 1-crossing connected
    2-cables with the given colour."""
    target = Q(Partition((4,))) - Q(Partition((2, 1, 1))) + Q(Partition((2, 2)))
    pats = [
        decorated_closure(BraidWord(2, (1,)), colour),
        decorated_closure(BraidWord(2, (-1,)), colour),
    ]
    return PatternSystem(target, pats)
