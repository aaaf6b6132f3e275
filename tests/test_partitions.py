"""Partition combinatorics, checked against an independent tableau counter.

The product oracle below enumerates skew semistandard fillings whose reverse
reading word is a lattice word, which is a different algorithm from the
horizontal-strip chain construction in the package; agreement over all small
pairs pins the product down completely.
"""

import pytest

from qskein.parsing import parse_partition
from qskein.partitions import (
    EMPTY,
    Partition,
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
from qskein.perms import compose, identity, inverse
from qskein.scalars import LaurentPoly, quantum_int


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
    assert [lam.hook_length(r, c) for r, c in lam.cells()] == [3, 1, 1]
    assert [lam.content(r, c) for r, c in lam.cells()] == [0, 1, -1]


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
    # transposing mirrors the content exponent
    for lam in all_partitions_up_to(5):
        if lam.size:
            p = hook_content_product(lam)
            assert hook_content_product(lam.transpose()) == p.invert_variables()


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
