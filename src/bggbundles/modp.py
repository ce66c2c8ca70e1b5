"""numpy kernels for exact dense linear algebra over F_p.

Over F_p all arrays are ``int64`` with entries reduced into ``[0, p)``.  The
kernels are exact only for p < PRIME_BOUND = 2**20.  The largest intermediate
is the random scan's fiber evaluation, a sum of n+1 products of two residues,
at most (n+1)(p-1)**2 < (n+1) * 2**40, which stays below 2**63 for any
n+1 < 2**23; the elimination steps need only (p-1)**2 + p.  The bound also
caps the inverse table a scan allocates at 8 MiB.  ``fields.PrimeField``
refuses larger primes and ``inverse_table`` raises on them.  A
``DenseMatrix`` product sums k products of residues, at most k(p-1)**2, so it
is exact only while k(p-1)**2 < 2**63 (k < 2**23 at any p below the bound);
beyond that ``DenseMatrix.__matmul__`` raises ``OverflowError`` instead of
wrapping.

``echelon`` is the package's one Gauss-Jordan loop: ``rank``, ``rref`` and
``DenseMatrix.rref`` over Q (``p=None``) call it.  The others are
``matrix._rank_bareiss`` and ``batch_rank``, which ranks many small matrices
at once and serves only the random scan; the enumeration of P^n(F_q) it once
made cheap lives in ``tests/scan_oracle.py``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

PRIME_BOUND = 1 << 20


@lru_cache(maxsize=8)
def inverse_table(p: int) -> np.ndarray:
    """Read-only table of multiplicative inverses mod p (index 0 unused, set
    to 0), built once per prime and cached."""
    if p >= PRIME_BOUND:
        raise ValueError(f"p = {p} is not below the exactness bound {PRIME_BOUND}")
    # t[i] = i^(p-2) mod p by squaring; every product is below (p-1)^2 < 2^40.
    base = np.arange(p, dtype=np.int64)
    t = np.ones(p, dtype=np.int64)
    e = max(p - 2, 0)
    while e:
        if e & 1:
            t *= base
            t %= p
        base *= base
        base %= p
        e >>= 1
    t[:1] = 0
    t.flags.writeable = False
    return t


def reduced(a, p: int) -> np.ndarray:
    """A writable int64 copy of ``a`` with its entries reduced into [0, p)."""
    a = np.array(a, dtype=np.int64)
    if a.size and (a.min() < 0 or a.max() >= p):
        a %= p
    return a


def echelon(a: np.ndarray, p: int | None, full: bool = False) -> list:
    """Row-reduce ``a`` in place by Gauss-Jordan elimination; return the pivot
    columns.

    Over F_p ``a`` is ``int64`` with entries in ``[0, p)``; with ``p=None`` it
    is an ``object`` array of ``Fraction``s over Q.  Each pivot is the first
    nonzero entry of its column at or below the current row, so the result
    is deterministic.  The pivot row is scaled to 1 and the pivot column
    cleared in the rows below it, which leaves a row echelon form, or with
    ``full`` in every other row, which leaves the reduced row echelon form.
    Entries left of column c are zero in the pivot row at column c, so only
    columns ``c:`` are touched.
    """
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        if p is None:
            a[r, c:] = a[r, c:] / a[r, c]
        else:
            a[r, c:] = a[r, c:] * pow(int(a[r, c]), p - 2, p) % p
        if full:
            others = np.nonzero(a[:, c])[0]
            others = others[others != r]
        else:
            others = r + 1 + np.nonzero(a[r + 1:, c])[0]
        if others.size:
            update = a[others, c:] - a[others, c, None] * a[r, c:]
            a[others, c:] = update if p is None else np.remainder(update, p, out=update)
            del update  # freed before the next pivot's temporaries are made
        pivots.append(c)
        r += 1
    return pivots


def rank(a: np.ndarray, p: int) -> int:
    """Rank of ``a`` over F_p.  ``a`` is copied; elimination below pivots only."""
    return len(echelon(reduced(a, p), p))


def rref(a: np.ndarray, p: int):
    """Reduced row echelon form over F_p.

    Returns ``(R, pivots)`` where zero rows are kept (same shape as input).
    """
    a = reduced(a, p)
    return a, echelon(a, p, full=True)


def batch_rank(mats: np.ndarray, p: int) -> np.ndarray:
    """Ranks of a stack of matrices over F_p.

    ``mats`` has shape ``(k, rows, cols)`` and is consumed (eliminated in
    place on a copy).  Uses a Gauss-Jordan sweep over columns with per-matrix
    pivot bookkeeping, fully vectorized over the batch axis.
    """
    a = reduced(mats, p)
    k, rows, cols = a.shape
    if k == 0 or rows == 0 or cols == 0:
        return np.zeros(k, dtype=np.int64)
    inv_table = inverse_table(p)
    used = np.zeros((k, rows), dtype=bool)
    out = np.zeros(k, dtype=np.int64)
    ar = np.arange(k)
    for c in range(cols):
        colvals = a[:, :, c]
        cand = (colvals != 0) & ~used
        has = cand.any(axis=1)
        if not has.any():
            continue
        piv = cand.argmax(axis=1)
        pv = colvals[ar, piv]
        pinv = inv_table[pv % p]
        factor = colvals * pinv[:, None] % p
        factor[ar, piv] = 0
        factor[~has] = 0
        pivrows = a[ar, piv]
        a -= factor[:, :, None] * pivrows[:, None, :]
        a %= p
        used[ar[has], piv[has]] = True
        out += has
    return out
