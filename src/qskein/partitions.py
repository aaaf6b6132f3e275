"""Partitions, Young diagrams, and the combinatorics built on them.

A Partition wraps a weakly decreasing tuple of positive integers; rows and
columns of the diagram are 0-indexed internally.  The module provides the
transpose permutation of the row-major cell numbering, Littlewood
Richardson products by explicit strip expansion, the hook content scalar
attached to each diagram, and the framing factors of decorated loops.
"""

from __future__ import annotations

from functools import cache

from .perms import Perm
from .scalars import LaurentPoly, quantum_int, quantum_factorial


class Partition:
    """A partition of a nonnegative integer, e.g. Partition((4, 2, 1))."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(int(p) for p in parts if int(p) != 0)
        if any(p < 0 for p in parts):
            raise ValueError(f"negative part in {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts must be weakly decreasing: {parts}")
        self.parts = parts

    @classmethod
    def hook(cls, k: int, l: int) -> "Partition":
        """The hook with first column of k cells and first row of l cells."""
        if k < 1 or l < 1:
            raise ValueError("hook needs k, l >= 1")
        return cls((l,) + (1,) * (k - 1))

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __lt__(self, other: "Partition") -> bool:
        return self.parts < other.parts

    def transpose(self) -> "Partition":
        if not self.parts:
            return Partition(())
        cols = [sum(1 for p in self.parts if p > c) for c in range(self.parts[0])]
        return Partition(tuple(cols))

    def cells(self) -> list[tuple[int, int]]:
        """Cells (row, col) in row-major order, 0-indexed."""
        return [(r, c) for r, p in enumerate(self.parts) for c in range(p)]

    def hook_length(self, r: int, c: int) -> int:
        """Arm + leg + 1 of the cell (r, c)."""
        tr = self.transpose().parts
        return self.parts[r] + tr[c] - r - c - 1

    def content(self, r: int, c: int) -> int:
        return c - r

    def row_lengths_squared(self) -> int:
        return sum(p * p for p in self.parts)

    def __str__(self) -> str:
        if not self.parts:
            return "(0)"
        return "(" + ",".join(str(p) for p in self.parts) + ")"

    def __repr__(self) -> str:
        return f"Partition({self.parts!r})"


EMPTY = Partition(())


def partitions_of(n: int, max_part: int | None = None):
    """All partitions of n, largest part first, in lexicographic descending order."""
    if n == 0:
        yield Partition(())
        return
    cap = n if max_part is None else min(n, max_part)
    for first in range(cap, 0, -1):
        for rest in partitions_of(n - first, first):
            yield Partition((first,) + rest.parts)


def all_partitions_up_to(n: int):
    for m in range(n + 1):
        yield from partitions_of(m)


def transpose_permutation(lam: Partition) -> Perm:
    """Where transposition sends each cell of the row-major numbering.

    Number the cells of lam row by row, and the cells of the transposed
    diagram the same way.  The returned permutation maps the number of a
    cell to the number of its image (r, c) -> (c, r), 0-indexed.
    """
    target_index = {}
    for i, (r, c) in enumerate(lam.transpose().cells()):
        target_index[(r, c)] = i
    return tuple(target_index[(c, r)] for (r, c) in lam.cells())


# ---------------------------------------------------------------------------
# Littlewood Richardson products by strip expansion


def _horizontal_strips(shape: tuple[int, ...], size: int):
    """All ways to add `size` boxes to `shape`, no two in the same column.

    Yields (new_shape, added_cells).  Row r of the new shape may not extend
    past row r-1 of the old shape, which is exactly the no-two-in-a-column
    condition; it also forces weak decrease and limits new rows to one.
    """
    rows = len(shape)

    def rec(r: int, remaining: int, acc: list[int]):
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


def _is_strict(shape: tuple[int, ...], labels: dict[tuple[int, int], int], nlabels: int) -> bool:
    """The expansion counting condition, checked at every cell of the result.

    For a cell, n_i counts the cells labelled i above and to the right of
    it, the cell itself included; the expansion is strict when n_1 >= n_2
    >= ... at every cell.
    """
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


@cache
def _lr_cached(lam_parts: tuple[int, ...], mu_parts: tuple[int, ...]) -> tuple:
    states = [(lam_parts, {})]
    for t, strip in enumerate(mu_parts, start=1):
        nxt = []
        for shape, labels in states:
            for new_shape, added in _horizontal_strips(shape, strip):
                new_labels = dict(labels)
                for cell in added:
                    new_labels[cell] = t
                nxt.append((new_shape, new_labels))
        states = nxt
    counts: dict[tuple[int, ...], int] = {}
    nlabels = len(mu_parts)
    for shape, labels in states:
        if _is_strict(shape, labels, nlabels):
            counts[shape] = counts.get(shape, 0) + 1
    return tuple(sorted(counts.items(), reverse=True))


def lr_product(lam: Partition, mu: Partition) -> dict[Partition, int]:
    """Expand the product of two diagrams as a sum of diagrams.

    Boxes of mu are added to lam one row of labels at a time: first mu_1
    boxes labelled 1, no two in one column, then mu_2 boxes labelled 2, and
    so on, keeping a legal diagram at every stage; only strict expansions
    are kept.  The coefficients are the Littlewood Richardson numbers.
    """
    return {Partition(shape): c for shape, c in _lr_cached(lam.parts, mu.parts)}


# ---------------------------------------------------------------------------
# scalars attached to a diagram


def hook_content_product(lam: Partition) -> LaurentPoly:
    """Product over cells of s^content [hook length].

    This is the eigenvalue of the quasi-idempotent attached to lam: the
    square of the symmetrizer is this scalar times the symmetrizer.
    """
    out = LaurentPoly.one()
    tr = lam.transpose().parts
    for (r, c) in lam.cells():
        hook = lam.parts[r] + tr[c] - r - c - 1
        out = out * quantum_int(hook).mul_monomial(0, 0, c - r)
    return out


def hook_content_closed(k: int, l: int) -> LaurentPoly:
    """Closed form for a hook: s^((l(l-1)-k(k-1))/2) [k+l-1] [k-1]! [l-1]!."""
    e2 = l * (l - 1) - k * (k - 1)
    if e2 % 2:
        raise ArithmeticError("hook content exponent is always even")
    p = quantum_int(k + l - 1) * quantum_factorial(k - 1) * quantum_factorial(l - 1)
    return p.mul_monomial(0, 0, e2 // 2)


def row_column_imbalance(lam: Partition) -> int:
    """Sum of squared row lengths minus sum of squared column lengths."""
    return lam.row_lengths_squared() - lam.transpose().row_lengths_squared()


def framing_factor(lam: Partition) -> LaurentPoly:
    """Scalar picked up by a decorated loop under one positive twist.

    Equals x^(n^2) v^(-n) s^(imbalance) for a decoration with n cells.
    """
    n = lam.size
    return LaurentPoly.monomial(n * n, -n, row_column_imbalance(lam))


def hook_framing_root(k: int, l: int) -> LaurentPoly:
    """The canonical m-th root of the framing factor of a hook, m = k+l-1.

    For the hook with column k and row l this is x^m v^-1 s^(m-2k+1).
    """
    m = k + l - 1
    return LaurentPoly.monomial(m, -1, m - 2 * k + 1)
