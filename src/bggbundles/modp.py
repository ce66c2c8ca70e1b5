"""numpy kernels for exact linear algebra over F_p, and over Q the same dense
elimination loop.

Over F_p all arrays are ``int64`` with entries reduced into ``[0, p)``,
except the random scan's fibers.  The kernels are exact only for p <
PRIME_BOUND = 2**20, so that a product of two residues is below 2**40; the
elimination steps need only (p-1)**2 + p.  The bound also caps the inverse
table a scan allocates at 8 MiB.  ``fields.PrimeField`` refuses larger
primes and ``inverse_table`` raises on them.  The random scan's fibers,
sums of n+1 products of residues, are one float64 product
(``bgg._fibers``), exact while (n+1)(p-1)**2 < 2**53, which holds for any
n < 2**13; they reach ``batch_rank`` unreduced.  ``batch_rank`` delays
reduction: an entry takes at most one subtraction of a product below
(p-1)**2 per column and is reduced only as a pivot, so entries below 2**53
stay below 2**53 + cols*(p-1)**2 < 2**63 for any cols < 2**23; it reduces
larger input first.  A ``DenseMatrix`` product sums k products of
residues, at most k(p-1)**2, so it is exact only while k(p-1)**2 < 2**63
(k < 2**23 at any p below the bound); beyond that
``DenseMatrix.__matmul__`` raises ``OverflowError`` instead of wrapping.

The package has one elimination loop.  ``echelon`` is the dense
Gauss-Jordan loop on numpy rows, over both fields: ``rank``, ``rref``,
``DenseMatrix.rank`` and ``DenseMatrix.rref`` over Q (``p=None``) call it,
and so do the strand ranks of the faithfulness certificate, the only ranks
the cohomology tables need (``sheafcoh.CohomologyCalculator``).  The one
other kernel is ``batch_rank``, which ranks many small matrices at once and
serves only the random scan; the enumeration of P^n(F_q) it once made cheap
lives in ``tests/scan_oracle.py``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

PRIME_BOUND = 1 << 20
BATCH_SLICE = 2048  # matrices ``batch_rank`` eliminates at a time


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

    ``mats`` has shape ``(k, rows, cols)`` and any integer entries; it is not
    modified.  The stack is ranked ``BATCH_SLICE`` matrices at a time, each
    slice copied with its columns as contiguous rows.  A sweep over the
    columns picks in every matrix the first row not yet a pivot that is
    nonzero mod p there, and subtracts it from the other such rows, in the
    columns right of the pivot only; pivot rows are left alone.  Reduction
    is delayed: only the pivot column and the pivot row are taken mod p at
    each step, so an entry takes at most one subtraction of a product below
    (p-1)^2 per column.  An entry that starts below 2^53 in absolute value,
    as the random scan's unreduced float64 fibers do, therefore stays below
    2^53 + cols*(p-1)^2 < 2^63 for any cols < 2^23 at p < PRIME_BOUND.  A
    slice with an entry outside that start bound is reduced mod p first;
    ``cols`` beyond it, where even reduced entries could wrap, raises
    ``ValueError``.
    """
    mats = np.asarray(mats)
    k, rows, cols = mats.shape
    out = np.zeros(k, dtype=np.int64)
    if k == 0 or rows == 0 or cols == 0:
        return out
    if cols * (p - 1) ** 2 >= (1 << 63) - (1 << 53):
        raise ValueError(f"{cols} columns at p = {p} could overflow int64")
    inv_table = inverse_table(p)
    for start in range(0, k, BATCH_SLICE):
        a = np.array(mats[start:start + BATCH_SLICE].transpose(0, 2, 1), dtype=np.int64)
        if a.min() <= -(1 << 53) or a.max() >= 1 << 53:
            a %= p
        m = a.shape[0]
        ar = np.arange(m)
        free = np.ones((m, rows), dtype=np.int64)  # 0 on the pivot rows
        rank = out[start:start + BATCH_SLICE]
        for c in range(cols):
            col = a[:, c] % p
            col *= free
            piv = (col != 0).argmax(axis=1)
            pv = col[ar, piv]
            has = pv != 0
            if c + 1 < cols:
                pivrow = a[ar, c + 1:, piv] % p
                col *= inv_table[pv][:, None]  # inv_table[0] = 0: no pivot, no update
                col %= p
                col[ar, piv] = 0
                a[:, c + 1:] -= pivrow[:, :, None] * col[:, None, :]
            free[ar[has], piv[has]] = 0
            rank += has
    return out
