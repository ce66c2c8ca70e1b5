"""Combinatorics of the exterior algebra on an (n+1)-dimensional space.

Degree-i basis elements are strictly increasing index subsets of {0,...,n},
enumerated in lexicographic order of the sorted tuple.  Multiplication acts
on the left; the sign of e_j wedged onto a subset S counts the elements of S
below j.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb

from .matrix import DenseMatrix, zeros_array


@lru_cache(maxsize=None)
def basis_subsets(n: int, i: int):
    """All C(n+1, i) index subsets of {0..n} of size i, in lex order."""
    if i < 0 or i > n + 1:
        return ()
    return tuple(combinations(range(n + 1), i))


@lru_cache(maxsize=None)
def subset_position(n: int, i: int):
    """Inverse lookup: subset tuple -> position in ``basis_subsets(n, i)``."""
    return {s: k for k, s in enumerate(basis_subsets(n, i))}


def left_mult_sign(j: int, S, n: int | None = None):
    """Left multiplication of e_j onto the basis subset S.

    Returns ``None`` when j is already in S (the product vanishes), otherwise
    ``(sign, S | {j})`` with sign ``(-1)**#{s in S : s < j}``.
    """
    if n is not None and not (0 <= j <= n):
        raise ValueError(f"generator index {j} out of range [0, {n}]")
    if j < 0:
        raise ValueError(f"generator index {j} is negative")
    if any(a >= b for a, b in zip(S, S[1:])):
        raise ValueError(f"subset {S} is not strictly increasing")
    if j in S:
        return None
    below = sum(1 for s in S if s < j)
    sign = -1 if below % 2 else 1
    return sign, tuple(sorted((*S, j)))


def generator_action(j: int, i: int, n: int, field) -> DenseMatrix:
    """Matrix of e_j : wedge^i V -> wedge^(i+1) V in the canonical bases.

    For i > n the target is zero and an empty matrix is returned.
    """
    if not (0 <= j <= n):
        raise ValueError(f"generator index {j} out of range [0, {n}]")
    if i < 0:
        raise ValueError(f"degree {i} is negative")
    src = basis_subsets(n, i)
    if i > n:
        return DenseMatrix.zeros(field, 0, len(src))
    tgt_pos = subset_position(n, i + 1)
    grid = zeros_array(field, (comb(n + 1, i + 1), len(src)))
    for col, S in enumerate(src):
        hit = left_mult_sign(j, S)
        if hit is not None:
            sign, T = hit
            grid[tgt_pos[T], col] = sign
    return DenseMatrix.from_numpy(field, grid)


def vector_action(v, i: int, n: int, field) -> DenseMatrix:
    """Matrix of left multiplication by ``v = sum v_j e_j`` on wedge^i V."""
    if len(v) != n + 1:
        raise ValueError(f"vector has {len(v)} coordinates, expected {n + 1}")
    v = [field(x) for x in v]
    src = basis_subsets(n, i)
    if i > n:
        return DenseMatrix.zeros(field, 0, len(src))
    tgt_pos = subset_position(n, i + 1)
    grid = zeros_array(field, (comb(n + 1, i + 1), len(src)))
    for col, S in enumerate(src):
        for j in range(n + 1):
            hit = left_mult_sign(j, S)
            if hit is not None:
                sign, T = hit
                grid[tgt_pos[T], col] += sign * v[j]
    return DenseMatrix.from_numpy(field, grid)
