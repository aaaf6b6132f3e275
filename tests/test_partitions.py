"""Partition combinatorics, checked against an independent tableau counter.

The product oracle below enumerates skew semistandard fillings whose reverse
reading word is a lattice word, which is a different algorithm from the
horizontal-strip chain construction in the package; agreement over all small
pairs pins the product down completely.  A copy of the earlier construction,
which expanded every chain of strips and filtered the finished fillings,
is a second oracle; a closed form and two symmetries check the product
without any tableaux.  Every horizontal strip, filtered by the lattice
condition, is the oracle of the bounded strip enumeration one strip at a
time.
"""

from math import comb, factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qskein.partitions
from qskein.parsing import parse_partition
from qskein.partitions import (
    EMPTY,
    HOOK_CONTENT_CAP,
    Partition,
    _hook_content_size,
    _lr_cached,
    _lr_strips,
    all_partitions_up_to,
    framing_factor,
    hook_content_closed,
    hook_content_product,
    hook_framing_root,
    lr_product,
    partitions_of,
    row_column_imbalance,
    transpose_permutation,
)
from qskein.perms import identity, inverse
from qskein.scalars import LaurentPoly, quantum_int


def compose(p, q):
    """(p then q): i -> q[p[i]]."""
    return tuple(q[p[i]] for i in range(len(p)))


def count_lattice_tableaux(nu: Partition, lam: Partition, mu: Partition) -> int:
    """Skew fillings of nu/lam with content mu: rows weakly increase, columns
    strictly increase, and the right-to-left row-by-row reading word keeps
    every prefix count of i at least the count of i+1."""
    rows = len(nu.parts)
    inner = tuple(lam.parts) + (0,) * (rows - len(lam.parts))
    if any(inner[r] > nu.parts[r] for r in range(rows)):
        return 0
    cells = [
        (r, c)
        for r in range(rows)
        for c in range(nu.parts[r] - 1, inner[r] - 1, -1)
    ]
    entries = len(mu.parts)
    remaining = list(mu.parts)
    prefix = [0] * (entries + 1)
    grid: dict = {}

    def place(i: int) -> int:
        if i == len(cells):
            return 1
        r, c = cells[i]
        total = 0
        for e in range(1, entries + 1):
            if not remaining[e - 1]:
                continue
            if e > 1 and prefix[e - 1] <= prefix[e]:
                continue
            right = grid.get((r, c + 1))
            if right is not None and e > right:
                continue
            above = grid.get((r - 1, c))
            if above is not None and above >= e:
                continue
            grid[(r, c)] = e
            remaining[e - 1] -= 1
            prefix[e] += 1
            total += place(i + 1)
            prefix[e] -= 1
            remaining[e - 1] += 1
            del grid[(r, c)]
        return total

    return place(0)


def lr_oracle(lam: Partition, mu: Partition) -> dict:
    out = {}
    for nu in partitions_of(lam.size + mu.size):
        n = count_lattice_tableaux(nu, lam, mu)
        if n:
            out[nu] = n
    return out


def test_partition_basics():
    lam = Partition((4, 2, 1))
    assert lam.size == 7
    assert str(lam) == "(4,2,1)"
    assert str(EMPTY) == "(0)"
    assert parse_partition("4,2,1") == lam
    assert lam.transpose() == Partition((3, 2, 1, 1))
    assert lam.transpose().transpose() == lam
    assert Partition.hook(3, 2) == Partition((2, 1, 1))
    assert Partition.hook(1, 4) == Partition((4,))
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, -1))


def test_cells_hooks_contents():
    lam = Partition((2, 1))
    assert lam.cells() == [(0, 0), (0, 1), (1, 0)]


def test_partition_counts():
    sizes = [len(list(partitions_of(n))) for n in range(9)]
    assert sizes == [1, 1, 2, 3, 5, 7, 11, 15, 22]
    assert len(list(all_partitions_up_to(5))) == sum(sizes[:6])


def test_transpose_permutation_pins():
    assert transpose_permutation(Partition((1,))) == (0,)
    assert transpose_permutation(Partition((2, 1))) == (0, 2, 1)
    # cell 2 -> 4, 4 -> 7, 7 -> 3, 3 -> 6, 6 -> 5, 5 -> 2 in 1-based numbering
    assert transpose_permutation(Partition((4, 2, 1))) == (0, 3, 5, 6, 1, 4, 2)


def test_transpose_permutation_inverse_property():
    for lam in all_partitions_up_to(6):
        if lam.size == 0:
            continue
        pi = transpose_permutation(lam)
        assert transpose_permutation(lam.transpose()) == inverse(pi)
        assert compose(pi, inverse(pi)) == identity(lam.size)


def test_lr_pins():
    one = Partition((1,))
    assert lr_product(one, one) == {Partition((2,)): 1, Partition((1, 1)): 1}
    assert lr_product(Partition((2,)), one) == {Partition((3,)): 1, Partition((2, 1)): 1}
    assert lr_product(Partition((2,)), Partition((2,))) == {
        Partition((4,)): 1,
        Partition((3, 1)): 1,
        Partition((2, 2)): 1,
    }
    assert lr_product(Partition((2, 1)), Partition((2, 1)))[Partition((3, 2, 1))] == 2
    assert lr_product(EMPTY, Partition((2, 1))) == {Partition((2, 1)): 1}


def test_lr_matches_tableau_oracle():
    for total in range(2, 8):
        for a in range(1, total):
            for lam in partitions_of(a):
                for mu in partitions_of(total - a):
                    assert lr_product(lam, mu) == lr_oracle(lam, mu), (lam, mu)


def test_lr_degree_preserved():
    for lam in all_partitions_up_to(4):
        for mu in all_partitions_up_to(4):
            for nu in lr_product(lam, mu):
                assert nu.size == lam.size + mu.size


def test_hook_content_values():
    assert hook_content_product(Partition((1,))) == LaurentPoly.one()
    assert hook_content_product(Partition((2,))) == quantum_int(2).mul_monomial(0, 0, 1)
    assert hook_content_product(Partition((1, 1))) == quantum_int(2).mul_monomial(0, 0, -1)
    assert hook_content_product(Partition((2, 1))) == quantum_int(3)
    for k in range(1, 7):
        for l in range(1, 8 - k):
            assert hook_content_product(Partition.hook(k, l)) == hook_content_closed(k, l)
    # transposing mirrors the content exponent: s -> s^-1
    for lam in all_partitions_up_to(5):
        if lam.size:
            mirrored = {(a, b, -c): k for (a, b, c), k in hook_content_product(lam).terms.items()}
            assert hook_content_product(lam.transpose()) == LaurentPoly(mirrored)


def test_hook_content_size_bounds_the_product():
    for lam in all_partitions_up_to(8):
        hooks = [_hook_length(lam, r, c) for r, c in lam.cells()]
        terms = 1 + sum(hooks) - lam.size
        assert _hook_content_size(lam) == terms * sum(hooks), lam
        assert len(hook_content_product(lam).terms) <= terms, lam


def test_hook_content_cap_refuses_before_the_product(monkeypatch):
    assert _hook_content_size(Partition((50, 50))) <= HOOK_CONTENT_CAP < _hook_content_size(Partition((60, 60)))

    def no_product(h):
        raise AssertionError("multiplied past the cap")

    monkeypatch.setattr(qskein.partitions, "quantum_int", no_product)
    for parts in ((100, 100), (300, 300, 300), (60, 60), (100,), (1,) * 100, (10**9,)):
        with pytest.raises(ValueError, match=r"estimated size \d+, over the cap of 8000000$"):
            hook_content_product(Partition(parts))


def test_lr_strip_cap_counts_placements_as_they_are_tried(monkeypatch):
    # (2,1) x (2,1) places 12 strips: 4 strips of two boxes on (2,1), then
    # the 2 single boxes that keep each result a lattice word
    lam = Partition((2, 1))
    want = lr_product(lam, lam)
    monkeypatch.setattr(qskein.partitions, "LR_STRIP_CAP", 12)
    _lr_cached.cache_clear()
    assert lr_product(lam, lam) == want
    monkeypatch.setattr(qskein.partitions, "LR_STRIP_CAP", 11)
    _lr_cached.cache_clear()
    with pytest.raises(ValueError, match=r"^the product \(2,1\) x \(2,1\) tried 12 strip placements, "
                                         r"over the cap of 11$"):
        lr_product(lam, lam)
    # a placement on a shape of 20 rows counts as 2: one box on a column
    # of 20 goes to the first row or to a new last row
    column = Partition((1,) * 20)
    monkeypatch.setattr(qskein.partitions, "LR_STRIP_CAP", 4)
    _lr_cached.cache_clear()
    assert lr_product(column, Partition((1,))) == {Partition((2,) + (1,) * 19): 1, Partition((1,) * 21): 1}
    monkeypatch.setattr(qskein.partitions, "LR_STRIP_CAP", 3)
    _lr_cached.cache_clear()
    with pytest.raises(ValueError, match=r" tried 4 strip placements, over the cap of 3$"):
        lr_product(column, Partition((1,)))


def horizontal_strips(shape, size):
    """All ways to add `size` boxes to `shape`, no two in one column, as
    (new_shape, added): the enumeration the strips were drawn from before
    the lattice and feasibility bounds, kept as their oracle."""
    rows = len(shape)
    old = shape + (0,)

    def rec(r, remaining, acc):
        if r > rows:
            if remaining == 0:
                yield tuple(p for p in acc if p), tuple(p - q for p, q in zip(acc, old))
            return
        hi = old[r] + remaining if r == 0 else min(old[r] + remaining, shape[r - 1])
        for new in range(old[r], hi + 1):
            acc.append(new)
            yield from rec(r + 1, remaining - (new - old[r]), acc)
            acc.pop()

    yield from rec(0, size, [])


def is_lattice(last, added):
    """Whether the labels t-1 (last[r] boxes in row r) and t (added[r]) read
    as a lattice word row by row, top to bottom, each row right to left:
    through each row the t's may not outnumber the t-1's of the rows above."""
    above = seen = 0
    for r, a in enumerate(added):
        seen += a
        if seen > above:
            return False
        above += last[r] if r < len(last) else 0
    return True


@st.composite
def strip_cases(draw):
    shape = draw(st.sampled_from(list(all_partitions_up_to(9)))).parts
    size = draw(st.integers(0, 6))
    if draw(st.booleans()):
        return shape, size, None
    if draw(st.booleans()):
        # the strip that grew shape, as in a product
        earlier = draw(st.sampled_from([p for p in all_partitions_up_to(8) if p.size <= sum(shape)]))
        grown = [(s, a) for s, a in horizontal_strips(earlier.parts, sum(shape) - earlier.size) if s == shape]
        if grown:
            return shape, size, grown[0][1]
    return shape, size, tuple(draw(st.lists(st.integers(0, 4), max_size=len(shape) + 2)))


@settings(max_examples=400, deadline=None)
@given(strip_cases())
def test_live_strips_are_the_oracle_strips_that_pass_the_lattice_check(case):
    shape, size, last = case
    want = [(s, a) for s, a in horizontal_strips(shape, size) if last is None or is_lattice(last, a)]
    assert list(_lr_strips(shape, size, last)) == want


def test_framing_factors():
    assert framing_factor(Partition((1,))) == LaurentPoly.monomial(1, -1, 0)
    assert framing_factor(Partition((2,))) == LaurentPoly.monomial(4, -2, 2)
    assert row_column_imbalance(Partition((2,))) == 2
    for m in (1, 2, 3):
        assert hook_framing_root(1, m) == LaurentPoly.monomial(m, -1, m - 1)
    # the root really is an m-th root of the hook's framing factor
    for k in range(1, 4):
        for l in range(1, 4):
            m = k + l - 1
            root = hook_framing_root(k, l)
            acc = LaurentPoly.one()
            for _ in range(m):
                acc = acc * root
            assert acc == framing_factor(Partition.hook(k, l))


def partitions_of_recursive(n, max_part=None):
    """The recursive generator partitions_of replaced, as its oracle."""
    if n == 0:
        yield Partition(())
        return
    cap = n if max_part is None else min(n, max_part)
    for first in range(cap, 0, -1):
        for rest in partitions_of_recursive(n - first, first):
            yield Partition((first,) + rest.parts)


def test_partitions_of_matches_the_recursive_order():
    for n in range(13):
        assert list(partitions_of(n)) == list(partitions_of_recursive(n)), n


def _strips_filtered(shape, size):
    rows = len(shape)

    def rec(r, remaining, acc):
        if r > rows:
            if remaining == 0:
                yield tuple(p for p in acc if p)
            return
        old = shape[r] if r < rows else 0
        hi = old + remaining if r == 0 else min(old + remaining, shape[r - 1])
        for new in range(old, hi + 1):
            acc.append(new)
            yield from rec(r + 1, remaining - (new - old), acc)
            acc.pop()

    for new_shape in rec(0, size, []):
        added = []
        for r, p in enumerate(new_shape):
            old = shape[r] if r < rows else 0
            for c in range(old, p):
                added.append((r, c))
        yield new_shape, added


def _is_strict(shape, labels, nlabels):
    cells = [(r, c) for r, p in enumerate(shape) for c in range(p)]
    labelled = list(labels.items())
    for (r, c) in cells:
        counts = [0] * (nlabels + 1)
        for (lr, lc), lab in labelled:
            if lr <= r and lc >= c:
                counts[lab] += 1
        for i in range(1, nlabels):
            if counts[i] < counts[i + 1]:
                return False
    return True


def lr_enumerate_then_filter(lam, mu):
    """The earlier construction: every chain of horizontal strips with every
    labelling, and the counting condition checked on the finished fillings."""
    states = [(lam.parts, {})]
    for t, strip in enumerate(mu.parts, start=1):
        nxt = []
        for shape, labels in states:
            for new_shape, added in _strips_filtered(shape, strip):
                new_labels = dict(labels)
                for cell in added:
                    new_labels[cell] = t
                nxt.append((new_shape, new_labels))
        states = nxt
    counts = {}
    for shape, labels in states:
        if _is_strict(shape, labels, len(mu.parts)):
            counts[shape] = counts.get(shape, 0) + 1
    return {Partition(shape): c for shape, c in sorted(counts.items(), reverse=True)}


def pairs_up_to(total):
    for n in range(total + 1):
        for a in range(n + 1):
            for lam in partitions_of(a):
                for mu in partitions_of(n - a):
                    yield lam, mu


def test_lr_matches_the_enumerate_then_filter_construction():
    for lam, mu in pairs_up_to(9):
        want = lr_enumerate_then_filter(lam, mu)
        got = lr_product(lam, mu)
        assert got == want, (lam, mu)
        assert list(got) == list(want), (lam, mu)


def standard_tableaux(lam):
    """f^lam by the hook length formula."""
    return factorial(lam.size) // prod(_hook_length(lam, r, c) for r, c in lam.cells())


def _hook_length(lam, r, c):
    """Arm + leg + 1 of the cell (r, c)."""
    return lam.parts[r] + lam.transpose().parts[c] - r - c - 1


@st.composite
def pairs_of_partitions(draw, cells=14):
    a = draw(st.integers(0, cells))
    b = draw(st.integers(0, cells - a))
    return (draw(st.sampled_from(list(partitions_of(a)))),
            draw(st.sampled_from(list(partitions_of(b)))))


@settings(max_examples=150, deadline=None)
@given(pairs_of_partitions())
def test_lr_counts_standard_tableaux(pair):
    # the product of the two characters, restricted from the symmetric group
    # on |lam| + |mu| letters, has dimension C(n, |lam|) f^lam f^mu
    lam, mu = pair
    total = sum(c * standard_tableaux(nu) for nu, c in lr_product(lam, mu).items())
    assert total == comb(lam.size + mu.size, lam.size) * standard_tableaux(lam) * standard_tableaux(mu)


def test_lr_symmetries():
    for lam, mu in pairs_up_to(9):
        product = lr_product(lam, mu)
        assert lr_product(mu, lam) == product, (lam, mu)
        transposed = lr_product(lam.transpose(), mu.transpose())
        assert transposed == {nu.transpose(): c for nu, c in product.items()}, (lam, mu)


def test_lr_returns_a_fresh_dict():
    lam, mu = Partition((2, 1)), Partition((1,))
    first = lr_product(lam, mu)
    want = dict(first)
    first[Partition((3, 1))] = 99
    first[Partition((9,))] = 1
    assert lr_product(lam, mu) == want


@settings(max_examples=200, deadline=None)
@given(pairs_of_partitions(cells=20))
def test_lr_shapes_are_valid_partitions(pair):
    lam, mu = pair
    # the product builds its shapes without the constructor's checks
    for nu in lr_product(lam, mu):
        assert type(nu) is Partition and all(type(p) is int for p in nu.parts)
        assert Partition(nu.parts) == nu and Partition(nu.parts).parts == nu.parts
