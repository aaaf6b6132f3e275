"""Power sums of cycle closures, generating-series identities, torus knots,
and the linear solver for cable-pattern decompositions.

The central object is the combination P(m) of m-string cycle closures whose
normalized image realizes the m-th Adams operation on the first column
generator.  Everything here is exact; series are truncated at an explicit
order and compared coefficient by coefficient.
"""

import math
from functools import cache

from .annulus import AnnulusElement, closure, closure_word, epsilon_plane, Q, theta
from .diagram_ring import CPoly, d, gen, psi
from .hecke import BraidWord, decorate
from .partitions import Partition, hook_framing_root
from .scalars import Scalar, Z, quantum_int, specialize_sln


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
        term = closure_word(a_braid(i, m - 1 - i))
        acc = acc + term.scale(Scalar.monomial(m - 1 - 2 * i, 0, 0))
    return acc


def power_sum_image(m: int) -> AnnulusElement:
    """Image in the annulus of the m-th Newton power sum, scaled by [m]."""
    return theta(psi(m)[0]).scale(Scalar(quantum_int(m)))


def negative_cycle(j: int) -> AnnulusElement:
    """Closure of the all-negative cycle braid on j strands."""
    return closure_word(a_braid(0, j - 1))


def power_sum_recursion_holds(m: int) -> bool:
    # Switch-and-smooth recursion: P_m in terms of P_k and negative cycles.
    rhs = negative_cycle(m).scale(Scalar.monomial(m - 1, 0, 0, m))
    for k in range(1, m):
        piece = P(k) * negative_cycle(m - k)
        rhs = rhs + piece.scale(Z * Scalar.monomial(m - 1 - k, 0, 0))
    return P(m) == rhs


class GradedSeries:
    """Truncated formal power series with coefficients in CPoly or
    AnnulusElement.  The coefficient list is indexed by degree; operations
    truncate to the shortest operand, so every stored coefficient is exact.
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        coeffs = list(coeffs)
        for c in coeffs:
            if not isinstance(c, ring):
                raise TypeError("coefficient outside the declared ring")
        self.ring = ring
        self.coeffs = coeffs

    def order(self) -> int:
        return len(self.coeffs)

    def coeff(self, i: int):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.ring.zero()

    def __eq__(self, other):
        if not isinstance(other, GradedSeries):
            return NotImplemented
        return self.ring is other.ring and self.coeffs == other.coeffs

    __hash__ = None

    def __add__(self, other):
        n = min(len(self.coeffs), len(other.coeffs))
        return GradedSeries(self.ring, [self.coeffs[i] + other.coeffs[i] for i in range(n)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return GradedSeries(self.ring, [-c for c in self.coeffs])

    def __mul__(self, other):
        n = min(len(self.coeffs), len(other.coeffs))
        out = []
        for k in range(n):
            acc = self.ring.zero()
            for i in range(k + 1):
                acc = acc + self.coeffs[i] * other.coeffs[k - i]
            out.append(acc)
        return GradedSeries(self.ring, out)

    def scale(self, c):
        return GradedSeries(self.ring, [t.scale(c) for t in self.coeffs])

    def substitute(self, a: Scalar):
        """Replace the series variable by a times it: degree i picks up a^i."""
        out = []
        power = Scalar.one()
        for c in self.coeffs:
            out.append(c.scale(power))
            power = power * a
        return GradedSeries(self.ring, out)

    def map(self, fn, ring):
        return GradedSeries(ring, [fn(c) for c in self.coeffs])

    def first_difference(self, other):
        """Smallest degree where the two series disagree, or None."""
        n = min(self.order(), other.order())
        for i in range(n):
            if self.coeffs[i] != other.coeffs[i]:
                return i
        return None

    def __str__(self):
        parts = ["(%s)*X^%d" % (c, i) for i, c in enumerate(self.coeffs) if not c.is_zero()]
        return " + ".join(parts) if parts else "0"


def series_c(order: int) -> GradedSeries:
    """Alternating generating series of the column generators: 1 - c1 X + c2 X^2 - ..."""
    return GradedSeries(CPoly, [gen(k).scale((-1) ** k) for k in range(order)])


def series_d(order: int) -> GradedSeries:
    """Reciprocal of series_c: 1 + d1 X + d2 X^2 + ..."""
    return GradedSeries(CPoly, [d(l) for l in range(order)])


def series_c_deriv(order: int) -> GradedSeries:
    return GradedSeries(CPoly, [gen(k + 1).scale((-1) ** (k + 1) * (k + 1)) for k in range(order)])


def series_d_deriv(order: int) -> GradedSeries:
    return GradedSeries(CPoly, [d(l + 1).scale(l + 1) for l in range(order)])


def series_c_qderiv(order: int) -> GradedSeries:
    """Quantum derivative of series_c: coefficient (-1)^k [k] c_k at degree k-1."""
    out = []
    for i in range(order):
        k = i + 1
        q = Scalar(quantum_int(k))
        out.append(gen(k).scale(-q if k % 2 else q))
    return GradedSeries(CPoly, out)


def series_d_qderiv(order: int) -> GradedSeries:
    """Quantum derivative of series_d: coefficient [l] d_l at degree l-1."""
    return GradedSeries(CPoly, [d(i + 1).scale(Scalar(quantum_int(i + 1))) for i in range(order)])


def series_power_sums(order: int) -> GradedSeries:
    """Newton power sums as column polynomials: psi_m(c_1) at degree m-1."""
    return GradedSeries(CPoly, [psi(m)[0] for m in range(1, order + 1)])


def series_plus(order: int) -> GradedSeries:
    """Positive cycle closures: A_m at degree m-1."""
    return GradedSeries(AnnulusElement, [closure_word(a_braid(i, 0)) for i in range(order)])


def series_minus(order: int) -> GradedSeries:
    """Negative cycle closures at degree m-1."""
    return GradedSeries(AnnulusElement, [negative_cycle(m) for m in range(1, order + 1)])


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


def series_identities(order: int):
    """Check the cycle-closure expansions and series factorizations through
    the given order.  Returns a list of (label, ok, detail) rows; detail
    names the first failing degree when a check fails.
    """
    if order < 1:
        raise ValueError("order must be positive")
    rows = []

    def series_row(label, lhs, rhs):
        bad = lhs.first_difference(rhs)
        rows.append((label, bad is None, None if bad is None else "first mismatch at degree %d" % bad))

    bad = None
    for m in range(1, order + 1):
        if closure_word(a_braid(m - 1, 0)) != positive_cycle_expansion(m):
            bad = m
            break
    rows.append(("positive-cycle-expansion", bad is None, None if bad is None else "fails at m=%d" % bad))

    bad = None
    for m in range(1, order + 1):
        if negative_cycle(m) != negative_cycle_expansion(m):
            bad = m
            break
    rows.append(("negative-cycle-expansion", bad is None, None if bad is None else "fails at m=%d" % bad))

    x = Scalar.monomial(1, 0, 0)
    xinv = Scalar.monomial(-1, 0, 0)
    xs = Scalar.monomial(1, 0, 1)
    xinv_s = Scalar.monomial(-1, 0, 1)
    xinv_sinv = Scalar.monomial(-1, 0, -1)

    plus = series_plus(order)
    minus = series_minus(order)
    series_row(
        "plus-factorization",
        plus,
        -(series_c_qderiv(order).substitute(x) * series_d(order).substitute(xs)).map(theta, AnnulusElement),
    )
    series_row(
        "minus-factorization",
        minus,
        (series_c(order).substitute(xinv_s) * series_d_qderiv(order).substitute(xinv)).map(theta, AnnulusElement),
    )
    series_row(
        "minus-factorization-mirror",
        minus,
        -(series_c_qderiv(order).substitute(xinv) * series_d(order).substitute(xinv_sinv)).map(theta, AnnulusElement),
    )

    psi_series = series_power_sums(order)
    series_row("power-sum-log-derivative", psi_series, -(series_c_deriv(order) * series_d(order)))
    series_row("power-sum-reciprocal-derivative", psi_series, series_d_deriv(order) * series_c(order))
    return rows


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


def torus_invariant(m: int, p: int, sl: int | None = None, normalize: bool = False):
    """Planar evaluation of the closed (m, p) torus braid.

    With normalize, the writhe correction (x v^-1)^(-p(m-1)) is applied so the
    value is the unframed invariant.  With sl=N the result is specialized to a
    one-variable fraction.
    """
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
        closure(decorate(BraidWord(2, (1,)), colour)),
        closure(decorate(BraidWord(2, (-1,)), colour)),
    ]
    return PatternSystem(target, pats)
