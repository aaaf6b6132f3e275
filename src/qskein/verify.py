"""Named verification suites behind the `verify` subcommand.

Each suite recomputes a family of identities from scratch and reports one
(ok, "tag params") row per checked instance.  Suites and default size caps:

  ring         8   reciprocal series, hook splitting, product laws
  hecke        5   basis round-trip, braid relations, eigenvalues,
                   row/column decompositions, closure moves
  idempotents  5   e^2 = alpha e, orthogonality one size down
  hook         6   column leads, hook products, theta images
  series       6   cycle expansions, factorizations, power-sum recursion
  xbiff        6   power sums against the skein side
  rosso-jones  4   torus closures against the hook expansion
  cd           3   chord-diagram cover tallies
  pattern      2   the decorated-pattern solver outcomes

Caps above the defaults are allowed but untested territory; runtime grows
factorially with the Hecke caps, as e_lambda has up to n! terms.
"""

import random
from fractions import Fraction

from .adams_skein import (
    Inconsistent,
    P,
    PatternSystem,
    Solution,
    cable_counterexample,
    cycle_closure,
    first_difference,
    negative_cycle_expansion,
    positive_cycle_expansion,
    power_sum_image,
    reweight,
    rosso_jones,
    series_c,
    series_d,
    series_minus,
    series_plus,
    series_power_sums,
    solve_pattern,
    substitute,
    torus_braid,
    torus_invariant,
    truncate,
)
from .annulus import AnnulusElement, Q, closed_idempotent, closure_word, epsilon_plane, q_hook, theta
from .chords import CROSSING, PARALLEL, all_diagrams, psi_chords
from .diagram_ring import CPoly, DiagramVector, d, gen, phi, phi_inverse
from .hecke import (
    BraidWord,
    HeckeElement,
    a_element,
    alpha,
    b_element,
    e_lambda,
    from_word,
    mul,
    right_e_lambda,
    tensor,
)
from .partitions import (
    Partition,
    all_partitions_up_to,
    hook_content_closed,
    hook_content_product,
    lr_product,
    partitions_of,
)
from .perms import all_perms, reduced_word
from .scalars import Scalar, Z, delta, h_expand, quantum_factorial, quantum_int, specialize_sln

# monomials of x and s that the series factorizations and the Hecke rows share
X = Scalar.monomial(1, 0, 0)
XINV = Scalar.monomial(-1, 0, 0)
XS = Scalar.monomial(1, 0, 1)
XINV_S = Scalar.monomial(-1, 0, 1)
XINV_SINV = Scalar.monomial(-1, 0, -1)


def _suite_xbiff(cap):
    rows = []
    for m in range(1, cap + 1):
        rows.append((P(m) == power_sum_image(m), "xbiff m=%d" % m))
    return rows


def _suite_idempotents(cap):
    rows = []
    for n in range(1, cap + 1):
        for lam in partitions_of(n):
            e = e_lambda(lam)
            ok = right_e_lambda(e, lam, 0) == e.scale(alpha(lam))
            rows.append((ok, "idempotents lam=%s" % lam))
    for n in range(2, cap):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                if not lam < mu:
                    continue
                ok = right_e_lambda(e_lambda(lam), mu, 0).is_zero()
                ok = ok and right_e_lambda(e_lambda(mu), lam, 0).is_zero()
                rows.append((ok, "idempotents orthogonal %s,%s" % (lam, mu)))
    return rows


def _suite_hook(cap):
    rows = []

    lead_plain = []
    lead_factorial = []
    for k in range(1, cap + 1):
        got = Q(Partition((1,) * k)).coeff((k,))
        sign = Scalar.monomial(-(k - 1), 0, 0, (-1) ** (k - 1))
        lead_plain.append(got == sign / Scalar(quantum_int(k)))
        lead_factorial.append(got == sign / Scalar(quantum_factorial(k)))
        rows.append((lead_plain[-1], "hook column-lead k=%d" % k))
    if all(lead_plain):
        resolved = "[k]"
    elif all(lead_factorial):
        resolved = "[k]!"
    else:
        resolved = "neither"
    rows.append((resolved != "neither", "hook column-lead denominator=%s" % resolved))

    for k in range(1, cap):
        for l in range(1, cap + 1 - k):
            ok = q_hook(k + 1, l) + q_hook(k, l + 1) == q_hook(k, 1) * q_hook(1, l)
            rows.append((ok, "hook sum-split k=%d l=%d" % (k, l)))

    def closed_hook(k, l):
        return closed_idempotent(Partition.hook(k, l))

    for k in range(1, cap):
        for l in range(1, cap + 1 - k):
            lhs = closed_hook(k + 1, l).scale(Scalar.monomial(0, 0, l) * Scalar(quantum_int(l)))
            lhs = lhs + closed_hook(k, l + 1).scale(Scalar.monomial(0, 0, -k) * Scalar(quantum_int(k)))
            rhs = (closed_hook(1, l) * closed_hook(k, 1)).scale(
                Scalar.monomial(0, 0, l - k) * Scalar(quantum_int(l + k))
            )
            rows.append((lhs == rhs, "hook weighted-split k=%d l=%d" % (k, l)))

    for m in range(1, cap + 1):
        acc = AnnulusElement.zero()
        for k in range(m + 1):
            term = Q(Partition((1,) * k)) * Q(Partition((m - k,)))
            acc = acc + (-term if k % 2 else term)
        rows.append((acc.is_zero(), "hook reciprocal m=%d" % m))

    for l in range(1, cap + 1):
        rows.append((theta(d(l)) == Q(Partition((l,))), "hook row-image l=%d" % l))

    for k in range(1, cap):
        for l in range(1, cap + 1 - k):
            ok = theta(DiagramVector.term(Partition.hook(k, l))) == q_hook(k, l)
            rows.append((ok, "hook hook-image k=%d l=%d" % (k, l)))

    for lam in all_partitions_up_to(max(cap - 1, 1)):
        if lam.size == 0:
            continue
        ok = theta(DiagramVector.term(lam)) == Q(lam)
        rows.append((ok, "hook diagram-image lam=%s" % lam))
    return rows


def _suite_series(cap):
    positive = [cycle_closure(m - 1, 0) == positive_cycle_expansion(m) for m in range(1, cap + 1)]
    negative = [cycle_closure(0, m - 1) == negative_cycle_expansion(m) for m in range(1, cap + 1)]
    rows = [(ok, "series positive-cycle m=%d" % m) for m, ok in enumerate(positive, 1)]
    rows += [(ok, "series negative-cycle m=%d" % m) for m, ok in enumerate(negative, 1)]

    def row(label, bad, detail):
        rows.append((bad is None, "series " + label + ("" if bad is None else " (%s)" % (detail % bad))))

    # the series identities hold through X^(order-1); every series compared
    # below has shift 1, and a product of a shift-1 and a shift-0 series is
    # cut at weighted degree order
    order = max(cap - 1, 1)
    for label, oks in (("positive-cycle-expansion", positive), ("negative-cycle-expansion", negative)):
        row(label, next((m for m, ok in enumerate(oks[:order], 1) if not ok), None), "fails at m=%d")

    def series_row(label, lhs, rhs):
        row(label, first_difference(lhs, rhs, 1), "first mismatch at degree %d")

    def product(a, b):
        return truncate(a * b, order)

    C, Cq = series_c(order), reweight(series_c(order + 1), quantum_int)
    D, Dq = series_d(order), reweight(series_d(order + 1), quantum_int)
    plus = series_plus(order)
    minus = series_minus(order)
    series_row("plus-factorization", plus, -theta(product(substitute(Cq, X, 1), substitute(D, XS, 0))))
    series_row("minus-factorization", minus, theta(product(substitute(C, XINV_S, 0), substitute(Dq, XINV, 1))))
    series_row(
        "minus-factorization-mirror",
        minus,
        -theta(product(substitute(Cq, XINV, 1), substitute(D, XINV_SINV, 0))),
    )

    psi_series = series_power_sums(order)
    Cd = reweight(series_c(order + 1), lambda w: w)
    Dd = reweight(series_d(order + 1), lambda w: w)
    series_row("power-sum-log-derivative", psi_series, -product(Cd, D))
    series_row("power-sum-reciprocal-derivative", psi_series, product(Dd, C))

    for m in range(1, cap + 1):
        # switch-and-smooth recursion: P(m) through P(k) and the negative cycles
        rhs = cycle_closure(0, m - 1).scale(Scalar.monomial(m - 1, 0, 0, m))
        for k in range(1, m):
            rhs = rhs + (P(k) * cycle_closure(0, m - k - 1)).scale(Z * Scalar.monomial(m - 1 - k, 0, 0))
        rows.append((P(m) == rhs, "series power-sum-recursion m=%d" % m))
    return rows


ROSSO_JONES_PAIRS = ((2, 1), (3, 1), (4, 1), (2, 3), (2, 5), (3, 2), (3, 4), (4, 3))


def _suite_rosso_jones(cap):
    rows = []
    for m, p in ROSSO_JONES_PAIRS:
        if m > cap:
            continue
        got = closure_word(torus_braid(m, p))
        want = rosso_jones(m, p).scale(Scalar.monomial(-p, p, 0))
        rows.append((got == want, "rosso-jones m=%d p=%d" % (m, p)))

    trefoil = torus_invariant(2, 3, normalize=True)
    want = delta() * (
        Scalar.monomial(0, 2, 0, 2) - Scalar.monomial(0, 4, 0) + Scalar.monomial(0, 2, 0) * Z * Z
    )
    rows.append((trefoil == want, "rosso-jones trefoil-value"))

    series = h_expand(specialize_sln(trefoil, 2), 2, 4)
    rows.append((series[0] == Fraction(2), "rosso-jones trefoil-h-constant"))
    return rows


def _suite_ring(cap):
    rows = []
    for m in range(1, cap + 1):
        acc = CPoly.zero()
        for k in range(m + 1):
            term = gen(k) * d(m - k)
            acc = acc + (-term if k % 2 else term)
        rows.append((acc.is_zero(), "ring reciprocal m=%d" % m))

    for k in range(1, cap):
        for l in range(1, cap + 1 - k):
            want = DiagramVector.term(Partition.hook(k + 1, l)) + DiagramVector.term(Partition.hook(k, l + 1))
            rows.append((phi(gen(k) * d(l)) == want, "ring hook-split k=%d l=%d" % (k, l)))

    psum = series_power_sums(cap)
    c_deriv = reweight(series_c(cap + 1), lambda w: w)
    d_deriv = reweight(series_d(cap + 1), lambda w: w)
    ok = first_difference(psum, -truncate(c_deriv * series_d(cap), cap), 1) is None
    rows.append((ok, "ring power-sum-log-derivative order=%d" % cap))
    ok = first_difference(psum, truncate(d_deriv * series_c(cap), cap), 1) is None
    rows.append((ok, "ring power-sum-reciprocal-derivative order=%d" % cap))

    for n in range(1, min(cap, 6) + 1):
        ok = all(
            phi(phi_inverse(DiagramVector.term(lam))) == DiagramVector.term(lam)
            for lam in partitions_of(n)
        )
        rows.append((ok, "ring basis-roundtrip n=%d" % n))

    for n in range(2, cap + 1):
        ok = True
        for a in range(1, n):
            for lam in partitions_of(a):
                for mu in partitions_of(n - a):
                    if lr_product(lam, mu) != lr_product(mu, lam):
                        ok = False
                    if any(nu.size != n for nu in lr_product(lam, mu)):
                        ok = False
        rows.append((ok, "ring product-symmetry n=%d" % n))

    for n in range(3, min(cap, 6) + 1):
        ok = True
        for a in range(1, n - 1):
            for b in range(1, n - a):
                c = n - a - b
                if c < 1:
                    continue
                for lam in partitions_of(a):
                    for mu in partitions_of(b):
                        for nu in partitions_of(c):
                            x, y, z = (DiagramVector.term(p) for p in (lam, mu, nu))
                            if (x * y) * z != x * (y * z):
                                ok = False
        rows.append((ok, "ring product-associativity n=%d" % n))

    for k in range(1, cap):
        for l in range(1, cap + 1 - k):
            ok = hook_content_product(Partition.hook(k, l)) == hook_content_closed(k, l)
            rows.append((ok, "ring hook-content k=%d l=%d" % (k, l)))
    return rows


def _suite_hecke(cap):
    rows = []
    neg_xsinv = Scalar.monomial(1, 0, -1, -1)

    for n in range(2, cap + 1):
        ok = all(
            from_word(BraidWord(n, [i + 1 for i in reduced_word(pi)])) == HeckeElement(n, {pi: Scalar.one()})
            for pi in all_perms(n)
        )
        rows.append((ok, "hecke basis-roundtrip n=%d" % n))

    for n in range(2, cap + 1):
        ok = True
        for i in range(1, n - 1):
            lhs = from_word(BraidWord(n, (i, i + 1, i)))
            rhs = from_word(BraidWord(n, (i + 1, i, i + 1)))
            ok = ok and lhs == rhs
        for i in range(1, n - 1):
            for j in range(i + 2, n):
                ok = ok and from_word(BraidWord(n, (i, j))) == from_word(BraidWord(n, (j, i)))
        for i in range(1, n):
            lhs = from_word(BraidWord(n, (i,))).scale(XINV) - from_word(BraidWord(n, (-i,))).scale(X)
            ok = ok and lhs == HeckeElement.one(n).scale(Z)
        rows.append((ok, "hecke braid-relations n=%d" % n))

    for n in range(1, cap + 1):
        a = a_element(n)
        b = b_element(n)
        ok = True
        for i in range(1, n):
            sigma = from_word(BraidWord(n, (i,)))
            ok = ok and a.right_word([i]) == a.scale(XS)
            ok = ok and mul(sigma, a) == a.scale(XS)
            ok = ok and b.right_word([i]) == b.scale(neg_xsinv)
            ok = ok and mul(sigma, b) == b.scale(neg_xsinv)
        rows.append((ok, "hecke absorb n=%d" % n))

    # a_l and b_k from one size down, with q = x^-1 s for rows and -x^-1 s^-1 for columns
    for label, element, q in (("row-decomposition l", a_element, XINV_S),
                              ("column-decomposition k", b_element, -XINV_SINV)):
        for l in range(2, cap + 1):
            emb = tensor(element(l - 1), element(1))
            acc = emb
            for i in range(l - 1):
                acc = acc + emb.right_word(list(range(l - 1, l - i - 2, -1))).scale(q ** (i + 1))
            rows.append((acc == element(l), "hecke %s=%d" % (label, l)))

    rng = random.Random(1203)
    for n in range(2, cap + 1):
        ok = True
        for _ in range(3):
            w = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(3, 6))]
            g = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(1, 3))]
            conj = g + w + [-j for j in reversed(g)]
            ok = ok and closure_word(BraidWord(n, conj)) == closure_word(BraidWord(n, w))
        rows.append((ok, "hecke closure-conjugation n=%d" % n))

    curl = Scalar.monomial(1, -1, 0)
    for n in range(2, cap + 1):
        ok = True
        for _ in range(3):
            w = [rng.choice((1, -1)) * rng.randint(1, max(n - 2, 1)) for _ in range(rng.randint(0, 4))]
            if n == 2:
                w = []
            base = epsilon_plane(closure_word(BraidWord(n - 1, w)))
            up = epsilon_plane(closure_word(BraidWord(n, w + [n - 1])))
            down = epsilon_plane(closure_word(BraidWord(n, w + [-(n - 1)])))
            ok = ok and up == base * curl and down == base / curl
        rows.append((ok, "hecke markov-stabilization n=%d" % n))
    return rows


def _suite_cd(cap):
    rows = []
    tally = psi_chords(CROSSING, 2)
    ok = tally == {CROSSING: 8, PARALLEL: 8}
    rows.append((ok, "cd crossing-tally m=2"))

    for n in range(1, cap + 1):
        diagrams = all_diagrams(n)
        for m in range(1, cap + 1):
            ok = all(sum(psi_chords(dgm, m).values()) == m ** (2 * n) for dgm in diagrams)
            rows.append((ok, "cd cover-count n=%d m=%d" % (n, m)))

    for n in range(1, cap + 1):
        ok = True
        for dgm in all_diagrams(n):
            for r in range(2 * n):
                if dgm.rotated(r) != dgm:
                    ok = False
        rows.append((ok, "cd rotation-classes n=%d" % n))
    return rows


def _suite_pattern(cap):
    rows = []
    base = cable_counterexample()
    for label, patterns in (("forward", base.patterns), ("reversed", list(reversed(base.patterns)))):
        out = solve_pattern(PatternSystem(base.target, patterns))
        ok = isinstance(out, Inconsistent) and set(out.first[0]) != set(out.second[0])
        rows.append((ok, "pattern inconsistent-%s" % label))

    m = max(cap, 2)
    system = PatternSystem(P(m), [cycle_closure(i, m - 1 - i) for i in range(m)])
    out = solve_pattern(system)
    want = [Scalar.monomial(m - 1 - 2 * i, 0, 0) for i in range(m)]
    ok = isinstance(out, Solution) and list(out.values) == want
    rows.append((ok, "pattern exact-multiple m=%d" % m))
    return rows


# tag: (suite, default size cap), in the order "all" runs them
_SUITES = {
    "ring": (_suite_ring, 8),
    "hecke": (_suite_hecke, 5),
    "idempotents": (_suite_idempotents, 5),
    "hook": (_suite_hook, 6),
    "series": (_suite_series, 6),
    "xbiff": (_suite_xbiff, 6),
    "rosso-jones": (_suite_rosso_jones, 4),
    "cd": (_suite_cd, 3),
    "pattern": (_suite_pattern, 2),
}
DEFAULT_MAX = {tag: cap for tag, (_, cap) in _SUITES.items()}
SUITE_ORDER = list(_SUITES)


def suite_names():
    return SUITE_ORDER + ["all"]


def run_suite(name: str, max_size: int | None = None):
    """Run one suite (or "all") and return its (ok, text) rows."""
    if name == "all":
        rows = []
        for tag in SUITE_ORDER:
            rows.extend(run_suite(tag, max_size))
        return rows
    if name not in _SUITES:
        raise ValueError("unknown suite %r; choose from %s" % (name, ", ".join(suite_names())))
    suite, cap = _SUITES[name]
    cap = cap if max_size is None else max_size
    if cap < 1:
        raise ValueError("size cap must be positive")
    return suite(cap)
