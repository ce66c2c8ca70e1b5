"""Cohomology tables of the cokernel bundle of a linear complex.

Line bundles on P^n have cohomology only in degrees 0 and n, so for a
resolution by sums of line bundles of length at most n the hypercohomology
spectral sequence has two rows and degenerates at the second page.  Only
dimensions are computed, never classes: the top-row maps are transposes of
multiplication maps in the dual degrees, and transposing preserves rank.

Monomial bases are enumerated in graded lexicographic order (within a degree,
lexicographically descending exponent tuples), fixed once so tables are
bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

from .bgg import LinearComplex, MatrixOfLinearForms
from .emod import GradedEModule
from .matrix import DenseMatrix, zeros_array


class CertificationError(RuntimeError):
    """Raised when a homological-dimension check fails; carries (q, t)."""

    def __init__(self, message, q=None, t=None):
        super().__init__(message)
        self.q = q
        self.t = t


def line_coh(n: int, d: int, q: int) -> int:
    """dim H^q(P^n, O(d)): binomials at the bottom and top rows, else zero."""
    if not (0 <= q <= n):
        raise ValueError(f"cohomological degree {q} out of range [0, {n}]")
    if q == 0 and d >= 0:
        return comb(n + d, n)
    if q == n and d <= -n - 1:
        return comb(-d - 1, n)
    return 0


def euler_line(n: int, d: int) -> int:
    """chi(O(d)) as the signed binomial, polynomial in d."""
    num = 1
    for k in range(1, n + 1):
        num *= d + k
    val = Fraction(num, 1)
    for k in range(1, n + 1):
        val /= k
    assert val.denominator == 1
    return int(val)


@lru_cache(maxsize=None)
def monomials(n: int, d: int):
    """Exponent tuples of the degree-d monomials in n+1 variables.

    Graded-lex: within the degree, tuples are sorted lexicographically
    descending, so x_0^d comes first.
    """
    if d < 0:
        return ()
    out = []

    def rec(prefix, remaining, pos):
        if pos == n:
            out.append((*prefix, remaining))
            return
        for e in range(remaining, -1, -1):
            rec((*prefix, e), remaining - e, pos + 1)

    rec((), d, 0)
    return tuple(out)


@lru_cache(maxsize=None)
def monomial_position(n: int, d: int):
    return {m: k for k, m in enumerate(monomials(n, d))}


@lru_cache(maxsize=None)
def bump_positions(n: int, d: int) -> np.ndarray:
    """Read-only ``(S, n+1)`` table: entry (k, j) is the position of x_j
    times the k-th degree-d monomial among the degree-(d+1) monomials."""
    tpos = monomial_position(n, d + 1)
    table = np.array([[tpos[tuple(e + (k == j) for k, e in enumerate(m))]
                       for j in range(n + 1)] for m in monomials(n, d)],
                     dtype=np.int64).reshape(-1, n + 1)
    table.setflags(write=False)
    return table


def strand_map(D, d: int) -> DenseMatrix:
    """Degree-d strand of a linear-form matrix: S_d (x) src -> S_(d+1) (x) tgt.

    The block pairing target monomial m' with source monomial m is slice j
    when m' = x_j * m, and zero when m' is no such multiple; no block gets
    two slices, since x_j * m determines j.  Index flattening within a side
    is (monomial position) * (block dimension) + (module index).
    """
    n = D.nvars - 1
    f = D.field
    src, tgt = len(monomials(n, d)), len(monomials(n, d + 1))
    grid = zeros_array(f, (tgt, D.nrows, src, D.ncols))
    if grid.size:
        bump = bump_positions(n, d)
        cols = np.arange(src)
        for j, s in enumerate(D.slices):
            grid[bump[:, j], :, cols, :] = s.to_numpy()
    return DenseMatrix.from_numpy(f, grid.reshape(tgt * D.nrows, src * D.ncols))


def _transpose_forms(D) -> MatrixOfLinearForms:
    """The slice-wise transpose of a matrix of linear forms."""
    return MatrixOfLinearForms(tuple(s.transpose() for s in D.slices))


def costrand_map(D, m: int) -> DenseMatrix:
    """Dual-row analogue of the strand map: S*_m (x) src -> S*_(m-1) (x) tgt.

    The block pairing target dual monomial m' with source dual monomial mu is
    the sum of the slices j with mu = x_j * m', which makes it the transpose
    of the degree-(m-1) strand of the transposed forms.
    """
    return strand_map(_transpose_forms(D), m - 1).transpose()


@dataclass(frozen=True)
class CohomologyTable:
    """dim H^q(F(t)) for q in [0, n], t in an inclusive twist window."""

    n: int
    t_lo: int
    t_hi: int
    entries: tuple  # entries[q][t - t_lo]

    def entry(self, q: int, t: int) -> int:
        return self.entries[q][t - self.t_lo]

    def to_text(self) -> str:
        """Conventional layout: rows q = n..0, columns t ascending."""
        width = max(len(str(x)) for row in self.entries for x in row)
        width = max(width, *(len(str(t)) for t in range(self.t_lo, self.t_hi + 1)))
        lines = []
        for q in range(self.n, -1, -1):
            cells = " ".join(f"{x:>{width}}" for x in self.entries[q])
            lines.append(f"q={q}: {cells}")
        cells = " ".join(f"{t:>{width}}" for t in range(self.t_lo, self.t_hi + 1))
        lines.append(f"  t: {cells}")
        return "\n".join(lines)


class CohomologyCalculator:
    """Two-row hypercohomology dimensions for one linear complex.

    Strand ranks are cached per (differential, degree); the cache is filled
    by pure computations and only ever read afterwards, so concurrent readers
    are safe.
    """

    def __init__(self, C: LinearComplex):
        if C.length > C.n:
            raise ValueError(f"complex of length {C.length} on P^{C.n} needs more "
                             "than two nonzero cohomology rows")
        self.C = C
        self.n = C.n
        self.dims = [r for _, r in C.terms]
        self._diffs_t = [_transpose_forms(D) for D in C.diffs]
        self._strand_ranks = {}
        self._costrand_ranks = {}

    # -- row terms -----------------------------------------------------------

    def _bottom_dim(self, i: int, t: int) -> int:
        d = t + i
        return self.dims[i] * comb(self.n + d, self.n) if d >= 0 else 0

    def _top_dim(self, i: int, t: int) -> int:
        m = -t - i - self.n - 1
        return self.dims[i] * comb(self.n + m, self.n) if m >= 0 else 0

    def _strand_rank(self, i: int, d: int) -> int:
        if d < 0:
            return 0
        key = (i, d)
        if key not in self._strand_ranks:
            self._strand_ranks[key] = strand_map(self.C.diffs[i], d).rank()
        return self._strand_ranks[key]

    def _costrand_rank(self, i: int, m: int) -> int:
        # costrand_map(D, m) is the transpose of this strand, of equal rank.
        if m < 1:
            return 0
        key = (i, m)
        if key not in self._costrand_ranks:
            self._costrand_ranks[key] = strand_map(self._diffs_t[i], m - 1).rank()
        return self._costrand_ranks[key]

    # -- second-page entries ---------------------------------------------------

    def bottom_homology(self, pos: int, t: int) -> int:
        """E2 at (pos, row 0): homology of the H^0-row complex."""
        c = self.C.length
        if not (0 <= pos <= c):
            return 0
        dim = self._bottom_dim(pos, t)
        if dim == 0:
            return 0
        rin = self._strand_rank(pos - 1, t + pos - 1) if pos > 0 else 0
        rout = self._strand_rank(pos, t + pos) if pos < c else 0
        val = dim - rin - rout
        assert val >= 0
        return val

    def top_homology(self, pos: int, t: int) -> int:
        """E2 at (pos, row n): homology of the H^n-row complex."""
        c = self.C.length
        if not (0 <= pos <= c):
            return 0
        dim = self._top_dim(pos, t)
        if dim == 0:
            return 0
        rin = self._costrand_rank(pos - 1, -t - pos - self.n) if pos > 0 else 0
        rout = self._costrand_rank(pos, -t - pos - self.n - 1) if pos < c else 0
        val = dim - rin - rout
        assert val >= 0
        return val

    def dim_h(self, q: int, t: int) -> int:
        """dim H^q of the cokernel bundle twisted by t."""
        if not (0 <= q <= self.n):
            raise ValueError(f"cohomological degree {q} out of range [0, {self.n}]")
        c = self.C.length
        return self.bottom_homology(c + q, t) + self.top_homology(c + q - self.n, t)

    def euler_column(self, t: int) -> int:
        """Independent signed sum over the resolution terms."""
        c = self.C.length
        return sum((-1) ** (c - i) * self.dims[i] * euler_line(self.n, i + t)
                   for i in range(c + 1))


def cohomology_table(C: LinearComplex, t_lo: int, t_hi: int,
                     calc: CohomologyCalculator | None = None) -> CohomologyTable:
    """Full table of dim H^q(F(t)) on an inclusive window.

    Every column is checked against the Euler characteristic of the
    resolution, and the structural vanishing band (t >= -n, 0 < q < n) is
    asserted rather than assumed.
    """
    if t_hi < t_lo:
        raise ValueError("empty twist window")
    calc = calc or CohomologyCalculator(C)
    n = C.n
    entries = [[0] * (t_hi - t_lo + 1) for _ in range(n + 1)]
    for t in range(t_lo, t_hi + 1):
        col = [calc.dim_h(q, t) for q in range(n + 1)]
        alt = sum((-1) ** q * h for q, h in enumerate(col))
        assert alt == calc.euler_column(t), f"Euler identity fails at twist {t}"
        if t >= -n:
            for q in range(1, n):
                assert col[q] == 0, f"structural vanishing fails at (q={q}, t={t})"
        for q in range(n + 1):
            entries[q][t - t_lo] = col[q]
    return CohomologyTable(n, t_lo, t_hi, tuple(tuple(r) for r in entries))


@dataclass(frozen=True)
class HdCertificate:
    value: int
    nonvanishing: tuple  # (q, t, dimension) witnessing hd > value - 1


def certify_hd(P: GradedEModule, C: LinearComplex,
               calc: CohomologyCalculator | None = None) -> HdCertificate:
    """Certified homological dimension of the cokernel bundle.

    Assumes the caller has verified faithfulness.  With c = l the length of
    the resolution, H^q(F(t)) is the E2 term at position c + q of the bottom
    row plus the one at position c + q - n of the top row.  For
    1 <= q < n - l both positions lie outside [0, l], so the intermediate
    cohomology vanishes at every twist with nothing to compute: that is the
    upper bound.  The matching lower bound is H^(n-l)(F(-n-1)), the top-row
    term at position 0 and twist -n-1, where the complex is
    S*_0 (x) P_0 -> 0; its dimension is dim P_0, read off the term
    dimensions and checked against the module's P_0.
    """
    n = P.n
    l = C.length
    if l < 1:
        raise ValueError("certification needs a resolution of positive length")
    calc = calc or CohomologyCalculator(C)
    got = calc.dim_h(n - l, -n - 1)
    if got != P.piece_dims[0]:
        raise CertificationError(
            f"H^{n - l} at twist {-n - 1} has dimension {got}, "
            f"expected {P.piece_dims[0]}", q=n - l, t=-n - 1)
    return HdCertificate(l, (n - l, -n - 1, got))
