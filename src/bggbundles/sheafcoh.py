"""Cohomology tables of the cokernel bundle of a linear complex.

Line bundles on P^n have cohomology only in degrees 0 and n, so for a
resolution by sums of line bundles of length at most n the hypercohomology
spectral sequence has two rows and degenerates at the second page.  Only
dimensions are computed, never classes, and neither row is ranked strand by
strand.  The H^0 row needs no rank once the complex is known to be a
resolution, which the faithfulness certificate proves: its homology sits at
the last position and is the alternating sum of its term dimensions.  The
H^n row's maps are transposes of multiplication maps in the dual degrees;
for the complex of a module P/L they are u copies of the Koszul complex,
whose ranks are binomial sums, but for one defect at the last map, the
Hilbert function of the certificate's cokernel.  Only that function is
ranked, on the certificate's strands, and only up to its first zero.

Monomial bases are enumerated in graded lexicographic order (within a degree,
lexicographically descending exponent tuples), fixed once so tables are
bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb

import numpy as np

from .anchor import AnchorProblem
from .bgg import LinearComplex, MatrixOfLinearForms, _anchor_restriction
from .emod import GradedEModule, free_truncated
from .extalg import basis_subsets, subset_position
from .matrix import DenseMatrix, Subspace, _reduce, zeros_array


class CertificationError(RuntimeError):
    """Raised when a homological-dimension check fails."""


def euler_line(n: int, d: int) -> int:
    """chi(O(d)) = (d+1)...(d+n)/n!, polynomial in d: C(n+d, n) from d = -n,
    and (-1)^n C(-d-1, n) below."""
    return comb(n + d, n) if d >= -n else (-1) ** n * comb(-d - 1, n)


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


def strand_entries(D, d: int):
    """The nonzero entries of the degree-d strand of a linear-form matrix,
    S_d (x) src -> S_(d+1) (x) tgt, as three arrays ``(rows, cols, vals)``.

    The block pairing target monomial m' with source monomial m is slice j
    when m' = x_j * m, and zero when m' is no such multiple; no block gets
    two slices, since x_j * m determines j, so no position repeats.  Index
    flattening within a side is (monomial position) * (block dimension) +
    (module index).
    """
    n = D.nvars - 1
    src = np.arange(len(monomials(n, d)))[:, None]
    bump = bump_positions(n, d)
    rows, cols, vals = [], [], []
    for j, s in enumerate(D.slices):
        a = s.to_numpy()
        r, c = np.nonzero(a)
        rows.append((bump[:, j, None] * D.nrows + r).ravel())
        cols.append((src * D.ncols + c).ravel())
        vals.append(np.tile(a[r, c], len(src)))
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def strand_map(D, d: int) -> DenseMatrix:
    """The degree-d strand as a dense matrix: ``strand_entries`` scattered
    into zeros."""
    n = D.nvars - 1
    grid = zeros_array(D.field, (len(monomials(n, d + 1)) * D.nrows,
                                 len(monomials(n, d)) * D.ncols))
    rows, cols, vals = strand_entries(D, d)
    grid[rows, cols] = vals
    return DenseMatrix.from_numpy(D.field, grid)


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


def strand_cokernel_dim(Dt, a: int) -> int:
    """Dimension of the cokernel of the degree-(a-1) strand of ``Dt``,
    S_(a-1) (x) src -> S_a (x) tgt.  For ``Dt`` the transpose of an anchor's
    restriction (``bgg._anchor_restriction``) this is the Hilbert function
    h(a) of the faithfulness certificate's cokernel: h(0) = dim L, and the
    degree-a strand is onto exactly when h(a) = 0."""
    return len(monomials(Dt.nvars - 1, a)) * Dt.nrows - strand_map(Dt, a - 1).rank()


def _koszul_rank(n: int, j: int, D: int) -> int:
    """Rank of the Koszul map out of S_(D-j) (x) wedge^j V in total degree
    D >= 1, sum over k >= j of (-1)^(k-j) C(n+1, k) C(n+D-k, n): the Koszul
    complex on n+1 variables is exact in total degree D >= 1 in any
    characteristic, and injective at its left end."""
    return sum((-1) ** (k - j) * comb(n + 1, k) * comb(n + D - k, n)
               for k in range(j, min(n + 1, D) + 1))


@lru_cache(maxsize=None)
def _free_actions(u: int, c: int, n: int, field) -> tuple:
    """The actions of ``free_truncated(u, c, n, field)``, I_u (x) (e_j wedge)
    on U (x) wedge^i for i < c, as one read-only stack of n+1 arrays per i."""
    stacks = tuple(np.stack([a.to_numpy() for a in acts])
                   for acts in free_truncated(u, c, n, field).actions)
    for stack in stacks:
        stack.setflags(write=False)
    return stacks


@lru_cache(maxsize=None)
def _wedge_factors(u: int, c: int, n: int) -> np.ndarray:
    """Row 0: min S, row 1: the position of e_s (x) e_(S - min S) in U (x)
    wedge^(c-1), for each basis vector e_s (x) e_S of U (x) wedge^c in order,
    as e_S = e_(min S) wedge e_(S - min S) with sign +1."""
    pos, w = subset_position(n, c - 1), comb(n + 1, c - 1)
    return np.array([(S[0], s * w + pos[S[1:]]) for s in range(u)
                     for S in basis_subsets(n, c)], dtype=np.int64).T


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
    """Two-row hypercohomology dimensions for one linear complex, which the
    caller has certified to resolve its cokernel bundle F: the faithfulness
    certificate proves 0 -> P_0 (x) O -> ... -> P_c (x) O(c) -> F -> 0 exact.

    The H^0 row is read off its term dimensions.  The sequence degenerates at
    the second page, so E2 at (pos, row 0) is a graded piece of the
    hypercohomology of the complex twisted by t in degree pos, which is
    H^(pos - c)(F(t)), zero for pos < c.  The row is therefore exact below c,
    and its homology at c is the alternating sum of its term dimensions.

    The H^n row is read off Koszul binomials and the certificate's Hilbert
    function (Eisenbud-Floystad-Schreyer 2003).  Its map from position i at
    dual degree m has the rank of the degree-d strand of D_i^T, d = m - 1.
    For C the complex of M = P/L, P = U (x) wedge^(<=c), u = dim U and
    pi : U (x) wedge^c -> M_c the quotient, D_i^T is u copies of the Koszul
    differential for i < c-1, of rank u * kappa(i+1, i+1+d), kappa =
    ``_koszul_rank``.  D_(c-1)^T is the Koszul map K_c on S_d (x) L^perp,
    L^perp = im pi^T, whose kernel is im K_(c+1) n S_d (x) L^perp.  So its
    rank is u * kappa(c, c+d) less the cokernel of im K_(c+1) -> S_d (x)
    L^*, the certificate's degree-d strand: h(d) = ``strand_cokernel_dim``.
    h(0) = dim L, and h is 0 from its first zero on, as that cokernel is
    generated in degree 0.

    At the first rank asked for, the calculator reads pi off D_(c-1) (slice
    min S maps e_s (x) e_(S - min S) to pi(e_s (x) e_S)) and raises
    ``ValueError`` unless C is the complex of P/ker(pi): D_i = I_u (x)
    (e_j wedge) for i < c-1, D_(c-1) = pi (I_u (x) e_j wedge), pi onto.
    h(1), h(2), ... are ranked when first asked for, up to the first zero.
    A cached value is the same whoever computes it, so concurrent readers
    are safe.
    """

    def __init__(self, C: LinearComplex):
        if C.length > C.n:
            raise ValueError(f"complex of length {C.length} on P^{C.n} needs more "
                             "than two nonzero cohomology rows")
        self.C = C
        self.n = C.n
        self.dims = [r for _, r in C.terms]
        self._h = ()  # h(0), h(1), ... up to the first zero

    # -- row terms -----------------------------------------------------------

    def _bottom_dim(self, i: int, t: int) -> int:
        d = t + i
        return self.dims[i] * comb(self.n + d, self.n) if d >= 0 else 0

    def _top_dim(self, i: int, t: int) -> int:
        m = -t - i - self.n - 1
        return self.dims[i] * comb(self.n + m, self.n) if m >= 0 else 0

    @cached_property
    def _pi(self) -> DenseMatrix:
        """pi : U (x) wedge^c -> M_c, once C is checked to be the complex of
        P/ker(pi) (see the class docstring)."""
        C, n, c, u = self.C, self.n, self.C.length, self.dims[0]
        f = C.diffs[0].field
        stacks = [np.stack([s.to_numpy() for s in D.slices]) for D in C.diffs]
        free = _free_actions(u, c, n, f)
        for i in range(c - 1):
            if not np.array_equal(stacks[i], free[i]):
                raise ValueError(f"differential {i} is not I_{u} (x) (e_j wedge)")
        last, koszul = stacks[-1], free[-1]
        if last.shape[::2] != koszul.shape[::2]:
            raise ValueError(f"differential {c - 1} has shape {last.shape}")
        j, col = _wedge_factors(u, c, n)
        pi = DenseMatrix.from_numpy(f, last[j, :, col].T)
        if not np.array_equal(_reduce(f, pi.to_numpy() @ koszul), last):
            raise ValueError(f"differential {c - 1} does not factor through U (x) wedge^{c}")
        if pi.rank() != pi.nrows:
            raise ValueError(f"term {c} is not generated by U (x) wedge^{c}")
        return pi

    def _defect(self, i: int, d: int) -> int:
        """u * kappa(i+1, i+1+d) minus the rank of the degree-d strand of
        D_i^T: h(d) at i = c-1, 0 below."""
        c, pi = self.C.length, self._pi  # C is checked at the first rank asked for
        if i < c - 1:
            return 0
        h = self._h or (pi.ncols - pi.nrows,)
        if len(h) <= d and h[-1]:
            L = AnchorProblem(self.dims[0], comb(self.n + 1, c), Subspace(pi.kernel_basis()))
            Dt = _transpose_forms(_anchor_restriction(L, self.n, c))
            while len(h) <= d and h[-1]:
                h += (strand_cokernel_dim(Dt, len(h)),)
            self._h = h
        return h[d] if d < len(h) else 0

    def _costrand_rank(self, i: int, m: int) -> int:
        # costrand_map(D_i, m) is the transpose of the degree-(m-1) strand of
        # D_i^T, of equal rank.
        if m < 1:
            return 0
        return self.dims[0] * _koszul_rank(self.n, i + 1, i + m) - self._defect(i, m - 1)

    # -- second-page entries ---------------------------------------------------

    def bottom_homology(self, pos: int, t: int) -> int:
        """E2 at (pos, row 0): homology of the H^0-row complex, which is
        exact below position c for a resolution (see the class docstring),
        so it is the alternating sum of the row's terms at c and 0 below."""
        c = self.C.length
        if pos != c:
            return 0
        return sum((-1) ** (c - i) * self._bottom_dim(i, t) for i in range(c + 1))

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
    asserted rather than assumed.  ``C`` must resolve its cokernel bundle,
    as the calculator presupposes.  Neither check can fail: an alternating
    sum of homology is the alternating sum of the terms, whatever the ranks,
    and at t >= -n, H^q for 0 < q < n reads the H^0 row past its last
    position and the empty H^n row.  The asserts guard the bookkeeping that
    places each row's entries.
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
    dimensions and checked against the module's P_0.  That term has no
    incoming map and its outgoing costrand has degree 0, so no rank: it is
    ``dims[0]``, which is dim P_0 when ``C`` is the complex of ``P``.  On such
    a pair the ``cohomology`` check fails only if an assert of the table does.
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
            f"expected {P.piece_dims[0]}")
    return HdCertificate(l, (n - l, -n - 1, got))
