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


POINT_BUDGET = 2_000_000  # most points a random scan may test
CERTIFICATE_CELLS = 2_000_000  # largest strand an exhaustive scan ranks
CERTIFICATE_PRIME = 1_048_573  # the largest prime below modp.PRIME_BOUND


class PointBudgetError(ValueError):
    """Raised when a scan would test more points than its budget."""


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
    failures: tuple  # (enumeration index, point tuple, degree)
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


def scan_point_count(q: int, n: int, samples: int) -> int:
    """The points a random scan of P^n(F_q) tests, ``samples`` distinct ones.
    Raises ValueError unless that is at least one, within budget and no more
    than exist."""
    if samples < 1:
        raise ValueError(f"{samples} random samples: a scan needs at least one sample")
    if samples > POINT_BUDGET:
        raise PointBudgetError(f"{samples} samples exceed the point budget {POINT_BUDGET}")
    count = projective_point_count(q, n)
    if samples > count:
        raise ValueError(f"{samples} random samples exceed the {count} points of P^{n}(F_{q})")
    return samples


def _normalized_point_chunks(q: int, n: int, chunk: int):
    """Canonical representatives of P^n(F_q), first nonzero coordinate 1.

    Enumeration is lexicographic within each leading-position block; yielded
    as int64 arrays of shape (k, n+1).
    """
    for lead in range(n + 1):
        free = n - lead
        total = q ** free
        start = 0
        while start < total:
            cnt = min(chunk, total - start)
            idx = np.arange(start, start + cnt, dtype=np.int64)
            pts = np.zeros((cnt, n + 1), dtype=np.int64)
            pts[:, lead] = 1
            for pos in range(free):
                power = q ** (free - 1 - pos)
                pts[:, lead + 1 + pos] = (idx // power) % q
            yield pts
            start += cnt


def _random_point_chunks(q: int, n: int, samples: int, seed: int,
                         chunk: int = 1 << 16):
    """``samples`` distinct seeded points of P^n(F_q), normalized as above,
    in pieces of at most ``chunk`` points.

    Rejection sampling draws the points: a round draws 2*want candidates,
    in blocks of ``chunk`` rows, and keeps the first occurrence of each
    point not drawn before, in block order.  Near the point count it needs
    about q^n/2 rounds for the last point, so after 1000 rounds the rest are
    drawn without replacement from the points not seen yet.  numpy's
    Generator yields the same int64 stream whether drawn at once or in
    blocks, so the piece size does not change which points are drawn, nor
    their order.

    A point's key is W int64 words, each its next k coordinates read as
    base-q digits, k the largest with q^k < 2^63: W = 1 at q = 32003 and
    n = 3, W = 2 at n = 6 or at ``CERTIFICATE_PRIME`` and n = 3.  One
    numeric sort of a block's words finds its distinct points, and the
    least position in each run of equal keys is that point's first.  The
    points seen so far are kept as one sorted array of keys, 8W bytes per
    point, with the words stored big-endian so that the bytewise order of
    ``np.searchsorted`` is the words' order.  A block's keys are looked up
    there rather than sorted with all of them, so that a small block does
    not cost a pass over every point seen.
    """
    inv_table = modp.inverse_table(q)
    rng = np.random.default_rng(seed)
    digits = 1  # coordinates per key word
    while q ** (digits + 1) < 1 << 63:
        digits += 1
    key = np.dtype((np.void, 8 * -(-(n + 1) // digits)))
    seen = np.empty(0, dtype=key)
    collected = 0
    rounds = 0

    def key_words(rows):
        """Each row's key words: its coordinates, ``digits`` at a time, read
        as base-q numbers."""
        words = []
        for start in range(0, n + 1, digits):
            w = rows[:, start].copy()
            for j in range(start + 1, min(start + digits, n + 1)):
                w *= q
                w += rows[:, j]
            words.append(w)
        return words

    def keys(words):
        return np.stack(words, axis=1).astype(">i8").view(key).ravel()

    def unseen(k, pos):
        """Which keys are not in ``seen``, given their insertion positions."""
        hit = pos < seen.size
        hit[hit] = seen[pos[hit]] == k[hit]
        return ~hit

    while collected < samples:
        rounds += 1
        want = samples - collected
        if rounds > 1000:
            rest = np.concatenate(list(_normalized_point_chunks(q, n, 1 << 16)))
            k = keys(key_words(rest))
            rest = rest[unseen(k, np.searchsorted(seen, k))]
            rest = rest[rng.choice(rest.shape[0], want, replace=False)]
            for start in range(0, want, chunk):
                yield rest[start:start + chunk]
            return
        for start in range(0, want * 2, chunk):
            raw = rng.integers(0, q, size=(min(chunk, want * 2 - start), n + 1),
                               dtype=np.int64)
            nonzero = raw != 0
            drawn = nonzero.any(axis=1)
            if not drawn.all():
                raw, nonzero = raw[drawn], nonzero[drawn]
            # Normalize so distinctness means distinct projective points.
            lead = nonzero.argmax(axis=1)
            raw *= inv_table[raw[np.arange(raw.shape[0]), lead]][:, None]
            raw %= q
            # The block's distinct points, sorted, with their first positions:
            # no sort need be stable, as the first is the least position.
            w = key_words(raw)
            order = np.lexsort(w[::-1]) if len(w) > 1 else np.argsort(w[0])
            w = [x[order] for x in w]
            starts = np.ones(order.size, dtype=bool)
            starts[1:] = np.logical_or.reduce([x[1:] != x[:-1] for x in w])
            starts = np.flatnonzero(starts)
            u = keys([x[starts] for x in w])
            first = np.minimum.reduceat(order, starts)
            pos = np.searchsorted(seen, u)
            new = unseen(u, pos)
            keep = np.sort(first[new])[:samples - collected]
            if keep.size:
                new &= first <= keep[-1]
                seen = np.insert(seen, pos[new], u[new])
                collected += keep.size
                yield raw[keep]
            if collected == samples:
                return


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
    """Indices of the points whose fiber of ``forms`` has rank below d.  The
    fibers and ranks die on return, so a scan holds one chunk's at a time."""
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
                      l: int, samples: int = 10000, seed: int = 0,
                      chunk: int = 1 << 16) -> FaithfulnessReport:
    """Scan projective points v of P^n for L n ker(v-wedge) != 0, where L is
    ``anchor`` in U (x) wedge^l over F_q: the points where the quotient of
    ``free_truncated(anchor.u, l, n)`` by L is not locally free.  A Q anchor
    is refused: a run scans its reduction, ``certificate_anchor``.

    ``exhaustive`` covers every point over the algebraic closure of F_q by
    the first onto strand of ``_strand_certificate``, recorded in
    ``certificate``, and counts the points of P^n(F_q) as checked.  The
    module docstring proves this sound.  Without an onto strand the scan is
    not ok, and lists no failure.
    ``random`` samples ``samples`` distinct seeded points of P^n(F_q);
    ``scan_point_count`` refuses counts beyond the points or the budget.  A
    failure is recorded as (enumeration index, point, l - 1), the degree at
    which the quotient's fiber sequence is not exact, and the failures are
    ordered by index regardless of chunking.
    """
    if mode not in ("exhaustive", "random"):
        raise ValueError(f"unknown mode {mode!r}")
    f = anchor.field
    if not isinstance(f, PrimeField):
        raise ValueError(f"a scan needs an anchor over a prime field, not {f!r}")
    D = _anchor_restriction(anchor, n, l)
    if mode == "exhaustive":
        return FaithfulnessReport(mode, repr(f), projective_point_count(f.p, n), (), None,
                                  _strand_certificate(D))
    count = scan_point_count(f.p, n, samples)
    forms = np.stack([s.to_numpy() for s in D.slices])
    failures = []
    base = 0
    for pts in _random_point_chunks(f.p, n, samples, seed, chunk):
        failures += [(base + int(t), tuple(int(x) for x in pts[t]), l - 1)
                     for t in _rank_deficient(pts, forms, f.p, anchor.d)]
        base += pts.shape[0]
    assert base == count
    return FaithfulnessReport(mode, repr(f), count, tuple(failures), seed)
