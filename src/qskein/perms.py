"""Permutations in one-line notation, as tuples.

perm[i] is the image of i, everything 0-indexed.  Right multiplication by
the adjacent transposition s_i swaps the entries at positions i and i+1.
"""

from __future__ import annotations

from itertools import permutations as _permutations

Perm = tuple[int, ...]


def identity(n: int) -> Perm:
    return tuple(range(n))


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def inversions(p: Perm) -> int:
    n = len(p)
    return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])


def swap_positions(p: Perm, i: int) -> Perm:
    return p[:i] + (p[i + 1], p[i]) + p[i + 2:]


def cycles(p: Perm) -> list[tuple[int, ...]]:
    """Cycle decomposition, ordered by least element; each cycle starts at
    its least element."""
    seen = [False] * len(p)
    out = []
    for i in range(len(p)):
        if seen[i]:
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = p[j]
        out.append(tuple(cyc))
    return out


def reduced_word(p: Perm) -> tuple[int, ...]:
    """A reduced word (i_1, ..., i_k) with p = s_{i_1} ... s_{i_k}.

    Generated by insertion sort on the one-line notation, always swapping at
    the leftmost descent, so the word is canonical for each permutation.
    """
    work = list(p)
    rev = []
    n = len(work)
    done = False
    while not done:
        done = True
        for i in range(n - 1):
            if work[i] > work[i + 1]:
                work[i], work[i + 1] = work[i + 1], work[i]
                rev.append(i)
                done = False
                break
    return tuple(reversed(rev))


def all_perms(n: int):
    return _permutations(range(n))
