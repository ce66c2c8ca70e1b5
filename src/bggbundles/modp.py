"""numpy kernels for exact dense linear algebra over F_p.

All arrays are ``int64`` with entries reduced into ``[0, p)``.  The kernels
are exact only for p < PRIME_BOUND = 2**20.  The largest intermediate is the
point scans' fiber evaluation, a sum of n+1 products of two residues, at most
(n+1)(p-1)**2 < (n+1) * 2**40, which stays below 2**63 for any n+1 < 2**23;
the elimination steps need only (p-1)**2 + p.  The bound also caps the
inverse table a scan allocates at 8 MiB.  ``fields.PrimeField`` refuses
larger primes and ``inverse_table`` raises on them.  A ``DenseMatrix``
product sums k products of residues, at most k(p-1)**2, so it is exact only
while k(p-1)**2 < 2**63 (k < 2**23 at any p below the bound); beyond that
``DenseMatrix.__matmul__`` raises ``OverflowError`` instead of wrapping.
The batch kernel reduces many small matrices at once; it is what makes
exhaustive point scans over P^n(F_q) cheap.
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


def rank(a: np.ndarray, p: int) -> int:
    """Rank of ``a`` over F_p.  ``a`` is copied; elimination below pivots only."""
    a = reduced(a, p)
    rows, cols = a.shape
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
        inv = pow(int(a[r, c]), p - 2, p)
        a[r, c:] = a[r, c:] * inv % p
        factors = a[r + 1 :, c]
        nzf = np.nonzero(factors)[0]
        if nzf.size:
            rows_idx = r + 1 + nzf
            a[rows_idx, c:] = (a[rows_idx, c:] - factors[nzf, None] * a[r, c:]) % p
        r += 1
    return r


def rref(a: np.ndarray, p: int):
    """Reduced row echelon form over F_p.

    Returns ``(R, pivots)`` where zero rows are kept (same shape as input).
    Pivot choice is the first nonzero entry in column order, so the output is
    deterministic.
    """
    a = reduced(a, p)
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
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = a[r] * inv % p
        others = np.nonzero(a[:, c])[0]
        others = others[others != r]
        if others.size:
            a[others] = (a[others] - a[others, c][:, None] * a[r][None, :]) % p
        pivots.append(c)
        r += 1
    return a, pivots


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
