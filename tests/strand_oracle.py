"""The ranked rows of the cohomology tables, kept as test oracles.

``CohomologyCalculator`` ranks neither row.  It reads the H^0 row off its
term dimensions, which holds because a certified complex resolves its
cokernel bundle, and the H^n row off Koszul binomials and the faithfulness
certificate's Hilbert function.  Here both rows are ranked instead, strand
by strand, by ``sparse_rank``, a sparse elimination on the strands'
nonzeros.  ``bottom_homology`` is the H^0 row: the homology at a position is
the term dimension minus the ranks of the strands into and out of it, each
ranked by ``bottom_strand_rank`` in the orientation that row once used, the
transpose with its columns reversed.  ``top_rank`` is the rank of the H^n
row's map that ``CohomologyCalculator._costrand_rank`` reads off, ranked by
``top_strand_rank`` in index order.
"""

from fractions import Fraction

import numpy as np

from bggbundles.fields import PrimeField
from bggbundles.sheafcoh import _transpose_forms, monomials, strand_entries


def sparse_rank(rows, cols, vals, p: int | None) -> int:
    """Rank of the matrix with entries ``vals`` at ``(rows, cols)``, over F_p,
    or over Q with ``p=None``.

    Entries at a repeated position are summed.  Values may be integers of any
    size (reduced mod p here) or, over Q, also ``Fraction``s; unless they
    come as an integer array they are kept as Python objects, so none is
    rounded or wrapped.  One numpy pass groups the entries by row, sums
    repeated positions, reduces them mod p and drops zeros.  The rows are
    then taken in index order, each a ``{col: value}`` dict of Python
    scalars, and reduced against the pivot rows found so far, which are kept
    by leading (smallest) column and scaled to a leading 1 (stored without
    it).  A row that reaches zero is dependent; otherwise it becomes a pivot
    row.  The order sets the cost, not the rank, so the caller picks the
    orientation it passes.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if p is None or not isinstance(vals, np.ndarray) or vals.dtype.kind != "i":
        vals = np.array(vals, dtype=object)
    if p is not None:
        vals = vals % p
    if not vals.size:
        return 0
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    new = np.empty(len(rows), dtype=bool)
    new[0] = True
    new[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    starts = np.flatnonzero(new)
    vals = np.add.reduceat(vals, starts)
    if p is not None:
        vals %= p
    nonzero = vals != 0
    keep = starts[nonzero]
    rows, cols, vals = rows[keep], cols[keep], vals[nonzero].tolist()
    if p is None:
        vals = [Fraction(v) for v in vals]
    bounds = [0, *(np.flatnonzero(rows[1:] != rows[:-1]) + 1).tolist(), len(vals)]
    cols = cols.tolist()
    pivots = {}
    for a, b in zip(bounds, bounds[1:]):
        row = dict(zip(cols[a:b], vals[a:b]))
        while row:
            c = min(row)
            lead = row.pop(c)
            tail = pivots.get(c)
            if tail is None:
                inv = 1 / lead if p is None else pow(lead, p - 2, p)
                pivots[c] = {j: v * inv if p is None else v * inv % p
                             for j, v in row.items()}
                break
            for j, v in tail.items():
                x = row.get(j, 0) - lead * v
                if p is not None:
                    x %= p
                if x:
                    row[j] = x
                else:
                    del row[j]
    return len(pivots)


def bottom_strand_rank(D, d: int) -> int:
    """Rank of the degree-d strand of ``D``: ``sparse_rank`` on the
    strand's transpose with its columns reversed, so each row is one source
    basis vector and pivots on its last nonzero target position."""
    if d < 0:
        return 0
    rows, cols, vals = strand_entries(D, d)
    height = len(monomials(D.nvars - 1, d + 1)) * D.nrows
    return sparse_rank(cols, height - 1 - rows, vals, _prime(D))


def bottom_homology(calc, pos: int, t: int) -> int:
    """E2 at (pos, row 0) of ``calc``'s complex, by ranking the H^0-row
    strands into and out of position ``pos`` at twist ``t``."""
    C = calc.C
    c = C.length
    if not (0 <= pos <= c):
        return 0
    dim = calc._bottom_dim(pos, t)
    if dim == 0:
        return 0
    rin = bottom_strand_rank(C.diffs[pos - 1], t + pos - 1) if pos > 0 else 0
    rout = bottom_strand_rank(C.diffs[pos], t + pos) if pos < c else 0
    val = dim - rin - rout
    assert val >= 0
    return val


def _prime(D) -> int | None:
    f = D.field
    return f.p if isinstance(f, PrimeField) else None


def top_strand_rank(D, d: int) -> int:
    """Rank of the degree-d strand of ``D``: ``sparse_rank`` on the strand
    itself, rows in index order."""
    return sparse_rank(*strand_entries(D, d), _prime(D))


def top_rank(calc, i: int, m: int) -> int:
    """Rank of the H^n-row map of ``calc``'s complex from position i at dual
    degree m: the degree-(m-1) strand of the transpose of differential i."""
    return top_strand_rank(_transpose_forms(calc.C.diffs[i]), m - 1) if m >= 1 else 0
