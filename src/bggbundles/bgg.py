"""Linear complexes of twisted free sheaves attached to graded modules.

The complex has terms P_i (x) O(i) and a differential whose entries are
linear forms; slice j of the i-th differential is the action matrix of e_j.
Evaluating the slices at a point of projective space gives the fiber of the
differential, and exactness of the fiber sequences at every point below the
top degree is what makes the cokernel sheaf a vector bundle.

For the bundles built here, M = P/L with P = U (x) wedge^(<=l) the truncated
free module and L a subspace of its top piece U (x) wedge^l, that exactness
comes down to one condition on the anchor L.  Below degree l-1 the complex
is the Koszul complex tensored with U, which is exact at every nonzero point
(Eisenbud-Floystad-Schreyer 2003), so only degree l-1 can fail, and it fails
at v exactly when L n ker(v-wedge : U (x) wedge^l -> U (x) wedge^(l+1)) != 0:
the image of the incoming map is ker(v-wedge) by Koszul exactness, and the
quotient by L loses dim(L n ker(v-wedge)) of its rank.  ``faithfulness_scan``
therefore takes the anchor L, not a complex, and tests this condition on the
N x k matrix of linear forms D = v-wedge|_L (N = p*C(n+1, l+1), k = dim L).

Both scans take an anchor over a prime field F_q; a run reduces a Q anchor
once, by ``certificate_anchor``: its basis rows, cleared of denominators,
mod ``CERTIFICATE_PRIME``.  That can only lower ranks, so a rational point
where L fails reduces to one where the reduction fails; a basis that loses
rank there is not scanned.  The exhaustive scan decides the condition at
every point at once.  The degree-a strand of the transpose of D maps g in
S_(a-1) (x) k^N to h = D^T g in S_a (x) k^k; if it is onto, no point over the
algebraic closure fails.  For suppose D(v) lam = 0 with v != 0.  Every h in
the image has sum_i h_i(v) lam_i = g(v) . D(v) lam = 0, and the image holds
every x^alpha e_i, so v^alpha lam_i = 0 for every degree-a monomial; one of
them is nonzero at v, so lam = 0.  The converse holds only for large a: if L
is faithful over the closure, the cokernel of D^T has finite length and every
high enough strand is onto.  An anchor that fails at some point has no
certificate at any degree, so a scan without an onto strand within
``CERTIFICATE_CELLS`` cells is not ok.  It names no failing point.  An
enumeration of P^n(F_q) would, but it checks only the F_q-rational points,
so it proves nothing about the closure; it is kept as a test oracle.

The random scan is sampled evidence beside that proof.  It draws
``RANDOM_SAMPLES`` distinct seeded points of P^n(F_q), or all of them if
there are fewer, as positions of the enumeration decoded by ``_points_at``
(as uniform normalized rows where the positions would not fit in int64),
and ranks their fibers at once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, lcm

import numpy as np

from . import modp
from .anchor import AnchorProblem
from .emod import GradedEModule, anticommutation_failure
from .extalg import generator_action
from .fields import GF, PrimeField
from .matrix import DenseMatrix, MalformedSubspaceError, ShapeError, Subspace


RANDOM_SAMPLES = 10_000  # points of a random scan, unless P^n(F_q) has fewer
CERTIFICATE_CELLS = 2_000_000  # largest strand an exhaustive scan ranks
CERTIFICATE_PRIME = 1_048_573  # the largest prime below modp.PRIME_BOUND


@dataclass(frozen=True)
class MatrixOfLinearForms:
    """A matrix whose entries are linear forms, stored as coefficient slices."""

    slices: tuple  # n+1 DenseMatrix slices, slice j multiplies x_j

    @property
    def nrows(self):
        return self.slices[0].nrows

    @property
    def ncols(self):
        return self.slices[0].ncols

    @property
    def nvars(self):
        return len(self.slices)

    @property
    def field(self):
        return self.slices[0].field

    def __post_init__(self):
        shapes = {s.shape for s in self.slices}
        if len(shapes) != 1:
            raise ShapeError(f"slices with mixed shapes {shapes}")
        if len({s.field for s in self.slices}) != 1:
            raise ShapeError("slices over mixed fields")


@dataclass(frozen=True)
class LinearComplex:
    """Terms (twist i, rank dim P_i) for i = 0..c and linear-form differentials."""

    n: int
    terms: tuple  # tuple of (twist, rank)
    diffs: tuple  # tuple of MatrixOfLinearForms, diffs[i] : term i -> term i+1

    @property
    def length(self) -> int:
        return len(self.terms) - 1

    def validate(self):
        c = self.length
        if len(self.diffs) != c:
            raise ShapeError("one differential per consecutive term pair")
        for i, d in enumerate(self.diffs):
            if d.ncols != self.terms[i][1] or d.nrows != self.terms[i + 1][1]:
                raise ShapeError(f"differential {i} has shape ({d.nrows}, {d.ncols})")
        # Composite is zero as a matrix of quadratic forms: the symmetrized
        # slice products must vanish.
        for i in range(c - 1):
            bad = anticommutation_failure(self.diffs[i + 1].slices, self.diffs[i].slices)
            if bad:
                raise ShapeError(f"composite of differentials {i},{i + 1} is nonzero "
                                 f"on x_{bad[0]} x_{bad[1]}")
        return self


@dataclass(frozen=True)
class FaithfulnessReport:
    mode: str
    field_desc: str
    points_checked: int | None  # of P^n(F_q); None as a Q anchor's exhaustive scan is recorded
    failures: tuple  # (position among the points scanned, point tuple, degree)
    seed: int | None = None
    # (a, rows, cols) of the onto strand that proves an exhaustive scan, or
    # None when no strand within the cap is onto.
    certificate: tuple | None = None

    @property
    def ok(self) -> bool:
        """No failing point, and a certificate if the scan is exhaustive."""
        return not self.failures and (self.mode != "exhaustive" or self.certificate is not None)


def bgg_complex(P: GradedEModule) -> LinearComplex:
    """The sheafified linear complex of a graded module."""
    terms = tuple((i, d) for i, d in enumerate(P.piece_dims))
    diffs = tuple(MatrixOfLinearForms(tuple(P.actions[i][j] for j in range(P.n + 1)))
                  for i in range(P.top_degree))
    return LinearComplex(P.n, terms, diffs)


def projective_point_count(q: int, n: int) -> int:
    return (q ** (n + 1) - 1) // (q - 1)


def _points_at(q: int, n: int, idx) -> np.ndarray:
    """The points at positions ``idx`` of the enumeration of P^n(F_q), as an
    int64 array of shape (len(idx), n+1): first nonzero coordinate 1, in
    blocks by its position, each block in base-q order of the coordinates
    after it.  Needs |P^n(F_q)| < 2^63."""
    idx = np.asarray(idx, dtype=np.int64)
    starts = np.cumsum([0] + [q ** (n - lead) for lead in range(n)], dtype=np.int64)
    lead = np.searchsorted(starts, idx, side="right") - 1
    # Coordinate j of position t in block ``lead`` is digit n-j of t, which
    # is 0 for j < lead, as t < q^(n-lead).
    pts = (idx - starts[lead])[:, None] // np.array([q ** (n - j) for j in range(n + 1)],
                                                    dtype=np.int64)
    pts %= q
    pts[np.arange(idx.size), lead] = 1
    return pts


def _random_points(q: int, n: int, size: int, seed: int) -> np.ndarray:
    """``size`` distinct seeded points of P^n(F_q), normalized as in
    ``_points_at``, in draw order.

    Let count = |P^n(F_q)|.  If count <= 2*size, the points are those at
    the first ``size`` positions of a seeded permutation of all count.
    Otherwise they are drawn uniformly with replacement: positions while
    count < 2^63, nonzero rows of residues scaled to lead with 1 beyond.  The
    first draw of each point is kept, and twice the shortfall is redrawn
    until the first ``size`` distinct draws are in; nothing with count
    entries is allocated.
    """
    rng = np.random.default_rng(seed)
    count = projective_point_count(q, n)
    if count <= 2 * size:
        return _points_at(q, n, rng.permutation(count)[:size])
    indexed = count < 1 << 63
    row = np.dtype((np.void, 8 * (n + 1)))  # a point's bytes, one sortable scalar

    def draw(k):
        if indexed:
            return rng.integers(0, count, k, dtype=np.int64)
        rows = rng.integers(0, q, (k, n + 1), dtype=np.int64)
        lead = rows[np.arange(k), (rows != 0).argmax(axis=1)]  # 0 on a zero row
        rows *= modp.inverse_table(q)[lead][:, None]
        rows %= q
        return rows[lead != 0].view(row).ravel()

    got = draw(size)
    while True:
        # np.unique sorts stably, so it returns the first draw of each point.
        got = got[np.sort(np.unique(got, return_index=True)[1])[:size]]
        if got.size == size:
            return _points_at(q, n, got) if indexed else got.view(np.int64).reshape(size, n + 1)
        got = np.concatenate([got, draw(2 * (size - got.size))])


def _fibers(pts, forms, q: int) -> np.ndarray:
    """The fibers sum_j pts[:, j] * forms[j], for residues mod q, unreduced,
    as int64.  They are one float64 product, exact while every sum of n+1
    products of residues, at most (n+1)(q-1)^2, stays below 2^53: for any
    n < 2^13 at q below ``modp.PRIME_BOUND``."""
    if pts.shape[1] * (q - 1) ** 2 >= 1 << 53:
        raise OverflowError(f"fibers of {pts.shape[1]} residues mod {q} are not "
                            "exact in float64")
    return np.tensordot(pts.astype(np.float64), forms.astype(np.float64),
                        axes=([1], [0])).astype(np.int64)


def _rank_deficient(pts, forms, q: int, d: int):
    """Indices of the points whose fiber of ``forms`` has rank below d."""
    return np.nonzero(modp.batch_rank(_fibers(pts, forms, q), q) < d)[0]


def _anchor_restriction(anchor: AnchorProblem, n: int, l: int) -> MatrixOfLinearForms:
    """v-wedge on L: the p*C(n+1, l+1) x dim L matrix of linear forms
    sum_j x_j (I_p (x) e_j) basis(L)^T, for L inside U (x) wedge^l of k^(n+1).

    Its fiber at v has rank dim L exactly when L n ker(v-wedge) = 0.
    """
    f, u = anchor.field, anchor.u
    if anchor.w != comb(n + 1, l):
        raise ShapeError(f"an anchor in k^{u} (x) k^{anchor.w} does not lie in "
                         f"U (x) wedge^{l} of k^{n + 1}")
    if anchor.d == 0:  # the free case: no products, D is N x 0 at every point
        return MatrixOfLinearForms((DenseMatrix.zeros(f, u * comb(n + 1, l + 1), 0),)
                                   * (n + 1))
    eye = DenseMatrix.identity(f, u)
    basis_t = anchor.subspace.basis.transpose()
    return MatrixOfLinearForms(tuple(eye.kron(generator_action(j, l, n, f)) @ basis_t
                                     for j in range(n + 1)))


def strand_shapes(n: int, N: int, k: int):
    """The shapes (a, rows, cols) of the strands ``_strand_certificate`` ranks
    for an N x k matrix of linear forms on P^n, by degree: from the first
    degree a = ceil(n*k / (N - k)) whose strand has as many columns as rows,
    to the last of at most ``CERTIFICATE_CELLS`` cells.  None at all when
    N <= k, where no strand can be onto."""
    if N <= k:
        return
    for a in itertools.count(-(-n * k // (N - k))):
        rows, cols = comb(n + a, n) * k, comb(n + a - 1, n) * N
        if rows * cols > CERTIFICATE_CELLS:
            return
        yield a, rows, cols


def certificate_anchor(anchor: AnchorProblem) -> AnchorProblem | None:
    """The anchor whose strands certify ``anchor`` and whose anchoring system
    bounds its Hom: itself over F_q; over Q its basis rows, each cleared of
    denominators, mod ``CERTIFICATE_PRIME``, or None if they lose rank there.
    Row scaling leaves L as it is, and reducing an integer matrix mod p cannot
    raise its rank: onto mod p is onto over Q, and a solution dimension of 1
    mod p is 1 over Q."""
    if isinstance(anchor.field, PrimeField):
        return anchor
    rows = [[x * lcm(*(y.denominator for y in row)) for x in row]
            for row in anchor.subspace.basis.rows()]
    try:
        basis = Subspace(DenseMatrix(GF(CERTIFICATE_PRIME), rows, anchor.u * anchor.w))
    except MalformedSubspaceError:  # the rows lose rank mod the prime
        return None
    return AnchorProblem(anchor.u, anchor.w, basis)


def _strand_certificate(D: MatrixOfLinearForms):
    """``(a, rows, cols)`` for the first degree a whose strand of the
    transposed forms, S_(a-1) (x) k^N -> S_a (x) k^k for the N x k matrix
    ``D``, is onto, or None when none of ``strand_shapes`` is.  An onto strand
    proves that D(v) has rank k at every nonzero v over the algebraic closure.
    """
    from .sheafcoh import _transpose_forms, strand_cokernel_dim  # sheafcoh imports bgg

    Dt = _transpose_forms(D)
    return next(((a, rows, cols)
                 for a, rows, cols in strand_shapes(D.nvars - 1, D.nrows, D.ncols)
                 if strand_cokernel_dim(Dt, a) == 0), None)


def faithfulness_scan(anchor: AnchorProblem, mode: str = "exhaustive", *, n: int,
                      l: int, seed: int = 0) -> FaithfulnessReport:
    """Scan projective points v of P^n for L n ker(v-wedge) != 0, where L is
    ``anchor`` in U (x) wedge^l over F_q: the points where the quotient of
    ``free_truncated(anchor.u, l, n)`` by L is not locally free.  A Q anchor
    is refused: a run scans its reduction, ``certificate_anchor``.

    ``exhaustive`` covers every point over the algebraic closure of F_q by
    the first onto strand of ``_strand_certificate``, recorded in
    ``certificate``, and counts the points of P^n(F_q) as checked.  The
    module docstring proves this sound.  Without an onto strand the scan is
    not ok, and lists no failure.
    ``random`` draws min(``RANDOM_SAMPLES``, |P^n(F_q)|) distinct seeded
    points by ``_random_points`` and ranks their fibers at once.  A failure
    is recorded as (position in the draw, point, l - 1), the degree at which
    the quotient's fiber sequence is not exact.
    """
    if mode not in ("exhaustive", "random"):
        raise ValueError(f"unknown mode {mode!r}")
    f = anchor.field
    if not isinstance(f, PrimeField):
        raise ValueError(f"a scan needs an anchor over a prime field, not {f!r}")
    D = _anchor_restriction(anchor, n, l)
    count = projective_point_count(f.p, n)
    if mode == "exhaustive":
        return FaithfulnessReport(mode, repr(f), count, (), None, _strand_certificate(D))
    count = min(RANDOM_SAMPLES, count)
    forms = np.stack([s.to_numpy() for s in D.slices])
    pts = _random_points(f.p, n, count, seed)
    failures = tuple((int(t), tuple(int(x) for x in pts[t]), l - 1)
                     for t in _rank_deficient(pts, forms, f.p, anchor.d))
    return FaithfulnessReport(mode, repr(f), count, failures, seed)
