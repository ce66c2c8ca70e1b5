"""The ranked H^0 row of the cohomology tables, kept as a test oracle.

``CohomologyCalculator.bottom_homology`` reads the H^0 row off its term
dimensions, which holds because a certified complex resolves its cokernel
bundle.  ``bottom_homology`` here ranks the row instead: the homology at a
position is the term dimension minus the ranks of the strands into and out
of it.  ``bottom_strand_rank`` ranks a strand in the orientation that row
once used, the transpose with its columns reversed, so that it can be
checked against ``sheafcoh.top_strand_rank``'s index order.
"""

from bggbundles import modp
from bggbundles.sheafcoh import _prime, monomials, strand_entries


def bottom_strand_rank(D, d: int) -> int:
    """Rank of the degree-d strand of ``D``: ``modp.sparse_rank`` on the
    strand's transpose with its columns reversed, so each row is one source
    basis vector and pivots on its last nonzero target position."""
    if d < 0:
        return 0
    rows, cols, vals = strand_entries(D, d)
    height = len(monomials(D.nvars - 1, d + 1)) * D.nrows
    return modp.sparse_rank(cols, height - 1 - rows, vals, _prime(D))


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
