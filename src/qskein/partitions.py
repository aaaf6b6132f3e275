"""Partitions, Young diagrams, and the combinatorics built on them.

A Partition wraps a weakly decreasing tuple of positive integers; rows and
columns of the diagram are 0-indexed internally.  The module provides the
transpose permutation of the row-major cell numbering, Littlewood
Richardson products, the hook content scalar attached to each diagram, and
the framing factors of decorated loops.  The products add the rows of one
diagram to the other as horizontal strips, each filled row by row between
a lattice bound and a feasibility bound, so that only strips of Littlewood
Richardson tableaux are ever built (Fulton, *Young Tableaux*, section 5;
Macdonald, *Symmetric Functions and Hall Polynomials*, I.9).
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate, compress
from operator import add, sub

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

    def __str__(self) -> str:
        if not self.parts:
            return "(0)"
        return "(" + ",".join(str(p) for p in self.parts) + ")"

    def __repr__(self) -> str:
        return f"Partition({self.parts!r})"


EMPTY = Partition(())


def _built(parts: tuple[int, ...]) -> Partition:
    """The Partition of a tuple this module built, known to be positive and
    weakly decreasing, made without checking it again."""
    shape = object.__new__(Partition)
    shape.parts = parts
    return shape


def partitions_of(n: int):
    """All partitions of n, largest part first, in lexicographic descending order.

    The first is (n).  Each after it is the one before it with its trailing
    1s and its last larger part p taken off and their boxes dealt out again
    greedily in parts of p - 1.
    """
    if n == 0:
        yield Partition(())
        return
    parts, top, rest = [], n, n
    while top > 0:
        parts += [top] * (rest // top) + ([rest % top] if rest % top else [])
        yield Partition(parts)
        rest = 0
        while parts and parts[-1] == 1:
            rest += parts.pop()
        if not parts:
            return
        top = parts[-1] - 1
        rest += parts.pop()


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
# Littlewood Richardson products by strips placed only where they can live


def _lr_strips(shape: tuple[int, ...], size: int, last: tuple[int, ...] | None):
    """Every way to add `size` boxes to `shape`, no two in one column, whose
    labels read as a lattice word after those of the strip `last` (last[r]
    boxes in row r; None for no bound), as (new_shape, added), added[r] the
    boxes put in row r, ascending in row 0, then row 1, and so on.

    The strip is filled depth first, row by row.  Row r may not pass row
    r-1 of the old shape, so only the first row and the rows shorter than
    the one above take boxes.  Lattice bound: through row r the new boxes
    may not outnumber those of `last` in the rows above r.  Feasibility
    bound: row r takes at least what the rows below it cannot hold.  When
    `last` grew `shape` and has at least `size` boxes, as in a product,
    every partial strip built completes.
    """
    rows = len(shape)
    old = shape + (0,)
    gaps = tuple(map(sub, shape, old[1:]))
    corners = (0, *compress(range(1, rows + 1), gaps))
    room = [size, *filter(None, gaps)]
    below = list(accumulate(reversed(room[1:]), initial=0))[::-1]
    # owed[k]: boxes that must go below corner k, since through its row the
    # lattice bound lets the strip hold only size - owed[k]
    if last is None:
        owed = [0] * len(corners)
    else:
        above = list(accumulate((last + (0,) * rows)[:rows], initial=0))
        owed = [size - above[r] if above[r] < size else 0 for r in corners]
    added, top = [0] * (rows + 1), [0] * len(corners)
    k, rest, end = 0, size, len(corners)
    while True:
        while k < end:
            lo, hi = rest - below[k], rest - owed[k]
            if lo < 0:
                lo = 0
            if hi > room[k]:
                hi = room[k]
            if lo > hi:
                break
            added[corners[k]], top[k] = lo, hi
            rest -= lo
            k += 1
        if k == end:
            grown = tuple(map(add, old, added))
            yield (grown if grown[-1] else grown[:-1]), tuple(added)
        k -= 1
        while k >= 0 and added[corners[k]] == top[k]:
            rest += added[corners[k]]
            k -= 1
        if k < 0:
            return
        added[corners[k]] += 1
        rest -= 1
        k += 1


# A product that places more strips than this, counted as they are placed,
# is refused.  Every placement is kept for the next strip, and one costs
# 3-16 us on shapes of a few rows, so the cap admits about 2 s:
# (6,5,4,3,2,1) times itself places 198,806 strips and runs in 1.5 s, and
# (7,6,5,4,3,2,1) or (1000000000) times itself is refused within 1 s.
# Building, hashing and keeping a new shape cost time and memory per row,
# so a placement on a shape of r rows counts as 1 + r // 20 placements.
LR_STRIP_CAP = 200_000


@cache
def _lr_cached(lam_parts: tuple[int, ...], mu_parts: tuple[int, ...]) -> dict[Partition, int]:
    # a filling is kept as (shape, boxes of its last strip per row): the
    # lattice condition between labels t-1 and t is final once strip t is
    # placed, so only the last strip bounds the next, and fillings that
    # agree on both are counted together; every placement made is kept, so
    # the cap bounds both the time and the states held
    states = {(lam_parts, None): 1}
    tried = 0
    for strip in mu_parts:
        nxt: dict = {}
        for (shape, last), n in states.items():
            weight = 1 + len(shape) // 20
            for key in _lr_strips(shape, strip, last):
                tried += weight
                if tried > LR_STRIP_CAP:
                    raise ValueError(f"the product {Partition(lam_parts)} x {Partition(mu_parts)} tried "
                                     f"{tried} strip placements, over the cap of {LR_STRIP_CAP}")
                nxt[key] = nxt.get(key, 0) + n
        states = nxt
    counts: dict[tuple[int, ...], int] = {}
    for (shape, _), n in states.items():
        counts[shape] = counts.get(shape, 0) + n
    return {_built(shape): counts[shape] for shape in sorted(counts, reverse=True)}


def lr_product(lam: Partition, mu: Partition) -> dict[Partition, int]:
    """Expand the product of two diagrams as a sum of diagrams.

    Boxes of mu are added to lam one row of labels at a time: first mu_1
    boxes labelled 1, no two in one column, then mu_2 boxes labelled 2, and
    so on, keeping a legal diagram at every stage.  Each strip is filled
    row by row, top to bottom, and a row takes only counts that keep the
    labels t-1 and t a lattice word through it (rows top to bottom, each
    right to left) and that leave no more boxes than the rows below can
    hold.  So every strip built is part of a Littlewood Richardson tableau,
    and the count of those for each shape is the Littlewood Richardson
    number (Fulton, *Young Tableaux*, section 5; Macdonald, *Symmetric
    Functions and Hall Polynomials*, I.9).  A product is refused past
    LR_STRIP_CAP placements.  Each call returns a new dict.

    >>> lr_product(Partition((2, 1)), Partition((2, 1)))  # doctest: +NORMALIZE_WHITESPACE
    {Partition((4, 2)): 1, Partition((4, 1, 1)): 1, Partition((3, 3)): 1,
     Partition((3, 2, 1)): 2, Partition((3, 1, 1, 1)): 1, Partition((2, 2, 2)): 1,
     Partition((2, 2, 1, 1)): 1}
    """
    return dict(_lr_cached(lam.parts, mu.parts))


# ---------------------------------------------------------------------------
# scalars attached to a diagram


# hook_content_product multiplies one quantum integer per cell.  A diagram
# that _hook_content_size puts over this cap is refused before any product.
# One unit costs about 0.25 us, so the cap admits about 2 s: (50,50) runs,
# (60,60) and (100) are refused.
HOOK_CONTENT_CAP = 8_000_000


def _hook_content_size(lam: Partition) -> int:
    """Estimated work in hook_content_product(lam), read off the rows alone.

    [h] has h terms, so the product has at most 1 + sum(h - 1) terms, and
    each cell multiplies it by its [h]: the work is at most that count times
    sum h.  The arms sum to sum C(lam_r, 2) and the legs to sum r lam_r.
    """
    hook_sum = lam.size + sum(p * (p - 1) // 2 + r * p for r, p in enumerate(lam.parts))
    return (1 + hook_sum - lam.size) * hook_sum


def hook_content_product(lam: Partition) -> LaurentPoly:
    """Product over cells of s^content [hook length].

    This is the eigenvalue of the quasi-idempotent attached to lam: the
    square of the symmetrizer is this scalar times the symmetrizer.
    """
    size = _hook_content_size(lam)
    if size > HOOK_CONTENT_CAP:
        raise ValueError(f"the hook-content product of {lam} has estimated size {size}, "
                         f"over the cap of {HOOK_CONTENT_CAP}")
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
    return sum(p * p for p in lam.parts) - sum(p * p for p in lam.transpose().parts)


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
