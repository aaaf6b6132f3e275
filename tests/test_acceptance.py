"""Acceptance checks: the headline identities the package must reproduce.

Each test states one claim and verifies it by exact symbolic equality, so
`pytest -v tests/test_acceptance.py` prints one pass/fail line per claim.
"""

import random
from fractions import Fraction

from qskein.adams_skein import (
    Inconsistent,
    P,
    PatternSystem,
    cable_counterexample,
    cycle_closure,
    negative_cycle_expansion,
    positive_cycle_expansion,
    rosso_jones,
    solve_pattern,
    torus_braid,
    torus_invariant,
)
from qskein.annulus import AnnulusElement, Q, closed_idempotent, closure_word, epsilon_plane, q_hook, theta
from qskein.chords import CROSSING, PARALLEL, all_diagrams, psi_chords
from qskein.diagram_ring import CPoly, DiagramVector, d, gen, phi, phi_inverse, psi
from qskein.hecke import (
    BraidWord,
    HeckeElement,
    a_element,
    alpha,
    b_element,
    e_lambda,
    from_word,
    mul,
    tensor,
)
from qskein.partitions import Partition, all_partitions_up_to, lr_product, partitions_of
from qskein.perms import all_perms, reduced_word
from qskein.scalars import Scalar, Z, delta, h_expand, quantum_int, specialize_sln
from qskein.verify import run_suite


def report(num, label):
    print("acceptance %2d: %s ok" % (num, label))


def test_01_power_sums_match_adams_image():
    # alternating cycle closures against [m] times the annulus image of the
    # m-th Adams operation applied to c1
    for m in range(1, 7):
        want = theta(psi(m)[0]).scale(Scalar(quantum_int(m)))
        assert P(m) == want, m
    report(1, "power sums match Adams image through m=6")


def test_02_idempotents_square_and_annihilate():
    for n in range(1, 6):
        for lam in partitions_of(n):
            e = e_lambda(lam)
            assert mul(e, e) == e.scale(alpha(lam)), lam
    for n in range(2, 5):
        parts = list(partitions_of(n))
        for i, lam in enumerate(parts):
            for mu in parts[i + 1:]:
                zero = HeckeElement(n, {})
                assert mul(e_lambda(lam), e_lambda(mu)) == zero, (lam, mu)
                assert mul(e_lambda(mu), e_lambda(lam)) == zero, (mu, lam)
    report(2, "idempotents square to alpha and annihilate each other")


def test_03_column_leading_coefficient():
    for k in range(1, 7):
        got = Q(Partition((1,) * k)).coeff((k,))
        want = Scalar.monomial(-(k - 1), 0, 0, (-1) ** (k - 1)) / Scalar(quantum_int(k))
        assert got == want, k
    report(3, "deepest-winding coefficient of the column is (-1/x)^(k-1)/[k]")


def test_04_hook_splitting_identities():
    for k in range(1, 6):
        for l in range(1, 7 - k):
            assert q_hook(k + 1, l) + q_hook(k, l + 1) == q_hook(k, 1) * q_hook(1, l), (k, l)

    # the independent route to the closure of e_lambda, checked against the
    # memo that the hook suite reads
    def closed_hook(k, l):
        h = Partition.hook(k, l)
        closed = Q(h).scale(alpha(h))
        assert closed == closed_idempotent(h), h
        return closed

    for k in range(1, 6):
        for l in range(1, 7 - k):
            lhs = closed_hook(k + 1, l).scale(Scalar.monomial(0, 0, l) * Scalar(quantum_int(l)))
            lhs = lhs + closed_hook(k, l + 1).scale(
                Scalar.monomial(0, 0, -k) * Scalar(quantum_int(k)))
            rhs = (closed_hook(1, l) * closed_hook(k, 1)).scale(
                Scalar.monomial(0, 0, l - k) * Scalar(quantum_int(l + k)))
            assert lhs == rhs, (k, l)

    def q_col(k):
        return AnnulusElement.one() if k == 0 else Q(Partition((1,) * k))

    def q_row(l):
        return AnnulusElement.one() if l == 0 else Q(Partition((l,)))

    for m in range(1, 7):
        acc = AnnulusElement.zero()
        for k in range(m + 1):
            term = q_col(k) * q_row(m - k)
            acc = acc + (-term if k % 2 else term)
        assert acc.is_zero(), m
    report(4, "hook splitting, weighted splitting, and reciprocal rows/columns")


def test_05_theta_sends_diagrams_to_decorations():
    for l in range(1, 7):
        assert theta(d(l)) == Q(Partition((l,))), l
    for k in range(1, 6):
        for l in range(1, 7 - k):
            assert theta(DiagramVector.term(Partition.hook(k, l))) == q_hook(k, l), (k, l)
    for lam in all_partitions_up_to(5):
        if lam.size:
            assert theta(DiagramVector.term(lam)) == Q(lam), lam
    report(5, "theta carries diagram classes to their annulus decorations")


def test_06_cycle_expansions_and_series_factorizations():
    for m in range(1, 7):
        assert cycle_closure(m - 1, 0) == positive_cycle_expansion(m), m
        assert cycle_closure(0, m - 1) == negative_cycle_expansion(m), m
    # the series suite at cap 6 checks the factorizations through X^4
    rows = [(ok, text) for ok, text in run_suite("series", 6) if "=" not in text]
    assert len(rows) == 7
    assert all(ok for ok, _ in rows), rows
    report(6, "cycle closures expand as stated and the series factorize")


def test_07_torus_knots_match_hook_expansion():
    pairs = ((2, 1), (3, 1), (4, 1), (2, 3), (2, 5), (3, 2), (3, 4), (4, 3))
    for m, p in pairs:
        got = closure_word(torus_braid(m, p))
        assert got == rosso_jones(m, p).scale(Scalar.monomial(-p, p, 0)), (m, p)
    trefoil = torus_invariant(2, 3, normalize=True)
    want = delta() * (
        Scalar.monomial(0, 2, 0, 2) - Scalar.monomial(0, 4, 0) + Scalar.monomial(0, 2, 0) * Z * Z)
    assert trefoil == want
    assert h_expand(specialize_sln(torus_invariant(2, 3, normalize=True), 2), 2, 1)[0] == Fraction(2)
    report(7, "torus closures agree with the hook-basis closed form")


def test_08_diagram_ring_relations():
    for m in range(1, 9):
        acc = CPoly.zero()
        for k in range(m + 1):
            term = gen(k) * d(m - k)
            acc = acc + (-term if k % 2 else term)
        assert acc.is_zero(), m
    for k in range(1, 8):
        for l in range(1, 9 - k):
            want = DiagramVector.term(Partition.hook(k + 1, l)) + DiagramVector.term(
                Partition.hook(k, l + 1))
            assert phi(gen(k) * d(l)) == want, (k, l)
    for n in range(2, 9):
        for a in range(1, n):
            for lam in partitions_of(a):
                for mu in partitions_of(n - a):
                    prod = lr_product(lam, mu)
                    assert prod == lr_product(mu, lam), (lam, mu)
                    assert all(nu.size == n for nu in prod), (lam, mu)
    for n in range(3, 7):
        for a in range(1, n - 1):
            for b in range(1, n - a):
                c = n - a - b
                if c < 1:
                    continue
                for lam in partitions_of(a):
                    for mu in partitions_of(b):
                        for nu in partitions_of(c):
                            left = {}
                            for rho, m1 in lr_product(lam, mu).items():
                                for tau, m2 in lr_product(rho, nu).items():
                                    left[tau] = left.get(tau, 0) + m1 * m2
                            right = {}
                            for rho, m1 in lr_product(mu, nu).items():
                                for tau, m2 in lr_product(lam, rho).items():
                                    right[tau] = right.get(tau, 0) + m1 * m2
                            left = {k: v for k, v in left.items() if v}
                            right = {k: v for k, v in right.items() if v}
                            assert left == right, (lam, mu, nu)
    report(8, "reciprocal generators, hook products, and product laws")


def test_09_chord_lift_tallies():
    assert psi_chords(CROSSING, 2) == {CROSSING: 8, PARALLEL: 8}
    for n in range(1, 4):
        for m in range(1, 4):
            for dg in all_diagrams(n):
                assert sum(psi_chords(dg, m).values()) == m ** (2 * n), (dg, m)
    report(9, "cover lifts tally 8+8 for the crossing and m^(2n) overall")


def test_10_cable_system_is_inconsistent():
    system = cable_counterexample()
    out = solve_pattern(system)
    assert isinstance(out, Inconsistent)
    assert str(out) == (
        "inconsistent: unknown 0 is 0 from {A4, A3*A1} but "
        "(4*x^-4*s^4 + 2*x^-4*s^2)/(3*s^6 + 3*s^4 + s^2 + 1) from {A2^2, A3*A1}")
    flipped = PatternSystem(system.target, list(reversed(system.patterns)))
    assert isinstance(solve_pattern(flipped), Inconsistent)
    report(10, "the 2-cable pattern system certifies its own inconsistency")


def test_11_hecke_structure():
    for n in range(2, 6):
        for pi in all_perms(n):
            word = BraidWord(n, [i + 1 for i in reduced_word(pi)])
            assert from_word(word) == HeckeElement(n, {pi: Scalar.one()}), pi

    x = Scalar.monomial(1, 0, 0)
    xinv = Scalar.monomial(-1, 0, 0)
    for n in range(2, 6):
        for i in range(1, n - 1):
            assert from_word(BraidWord(n, (i, i + 1, i))) == from_word(
                BraidWord(n, (i + 1, i, i + 1)))
            for j in range(i + 2, n):
                assert from_word(BraidWord(n, (i, j))) == from_word(BraidWord(n, (j, i)))
        for i in range(1, n):
            lhs = from_word(BraidWord(n, (i,))).scale(xinv) - from_word(
                BraidWord(n, (-i,))).scale(x)
            assert lhs == HeckeElement.one(n).scale(Z)

    xs = Scalar.monomial(1, 0, 1)
    neg_xsinv = Scalar.monomial(1, 0, -1, -1)
    for n in range(1, 6):
        a, b = a_element(n), b_element(n)
        for i in range(1, n):
            sigma = from_word(BraidWord(n, (i,)))
            assert a.right_word([i]) == a.scale(xs) and mul(sigma, a) == a.scale(xs), (n, i)
            assert b.right_word([i]) == b.scale(neg_xsinv), (n, i)
            assert mul(sigma, b) == b.scale(neg_xsinv), (n, i)

    for l in range(2, 6):
        emb = tensor(a_element(l - 1), a_element(1))
        acc, coeff = emb, Scalar.one()
        for i in range(l - 1):
            coeff = coeff * xinv * Scalar.monomial(0, 0, 1)
            acc = acc + emb.right_word(list(range(l - 1, l - i - 2, -1))).scale(coeff)
        assert acc == a_element(l), l
    for k in range(2, 6):
        emb = tensor(b_element(k - 1), b_element(1))
        acc, coeff = emb, Scalar.one()
        for i in range(k - 1):
            coeff = coeff * xinv * Scalar.monomial(0, 0, -1, -1)
            acc = acc + emb.right_word(list(range(k - 1, k - i - 2, -1))).scale(coeff)
        assert acc == b_element(k), k

    rng = random.Random(1203)
    for n in range(2, 6):
        for _ in range(3):
            w = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(3, 6))]
            g = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(1, 3))]
            conj = g + w + [-j for j in reversed(g)]
            assert closure_word(BraidWord(n, conj)) == closure_word(BraidWord(n, w)), (n, w, g)

    curl = Scalar.monomial(1, -1, 0)
    for n in range(2, 6):
        for _ in range(3):
            w = [rng.choice((1, -1)) * rng.randint(1, max(n - 2, 1)) for _ in range(rng.randint(0, 4))]
            if n == 2:
                w = []
            base = epsilon_plane(closure_word(BraidWord(n - 1, w)))
            up = epsilon_plane(closure_word(BraidWord(n, w + [n - 1])))
            down = epsilon_plane(closure_word(BraidWord(n, w + [-(n - 1)])))
            assert up == base * curl and down == base / curl, (n, w)
    report(11, "linear-quotient structure: basis, relations, eigenvalues, moves")
