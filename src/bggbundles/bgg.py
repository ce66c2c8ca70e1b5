"""Linear complexes of twisted free sheaves attached to graded modules.

The complex has terms P_i (x) O(i) and a differential whose entries are
linear forms; slice j of the i-th differential is the action matrix of e_j.
Evaluating the slices at a point of projective space gives the fiber of the
differential, and exactness of the fiber sequences at every point below the
top degree is what makes the cokernel sheaf a vector bundle.

For the bundles built here, M = P/L with P = U (x) wedge^(<=l) the truncated
free module and L a subspace of its top piece U (x) wedge^l, that exactness
comes down to one condition.  Below degree l-1 the complex is the Koszul
complex tensored with U, which is exact at every nonzero point
(Eisenbud-Floystad-Schreyer 2003), so only degree l-1 can fail, and it fails
at v exactly when L n ker(v-wedge : U (x) wedge^l -> U (x) wedge^(l+1)) != 0:
the image of the incoming map is ker(v-wedge) by Koszul exactness, and the
quotient by L loses dim(L n ker(v-wedge)) of its rank.  ``faithfulness_scan``
tests this condition, one rank per point, when it is given the anchor L.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb

import numpy as np

from . import modp
from .anchor import AnchorProblem
from .emod import GradedEModule
from .extalg import generator_action
from .fields import PrimeField
from .matrix import DenseMatrix, ShapeError


class PointBudgetError(ValueError):
    """Raised when an exhaustive scan would exceed the configured budget."""


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

    @property
    def field(self):
        return self.diffs[0].field if self.diffs else None

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
            a, b = self.diffs[i], self.diffs[i + 1]
            for j in range(a.nvars):
                for k in range(j, a.nvars):
                    comp = b.slices[j] @ a.slices[k] + b.slices[k] @ a.slices[j]
                    if not comp.is_zero():
                        raise ShapeError(
                            f"composite of differentials {i},{i + 1} is nonzero "
                            f"on x_{j} x_{k}")
        return self


@dataclass(frozen=True)
class FaithfulnessReport:
    mode: str
    field_desc: str
    points_checked: int
    failures: tuple  # (enumeration index, point tuple, degree)
    seed: int | None = None

    @property
    def ok(self) -> bool:
        return not self.failures


def bgg_complex(P: GradedEModule) -> LinearComplex:
    """The sheafified linear complex of a graded module."""
    terms = tuple((i, d) for i, d in enumerate(P.piece_dims))
    diffs = tuple(MatrixOfLinearForms(tuple(P.actions[i][j] for j in range(P.n + 1)))
                  for i in range(P.top_degree))
    return LinearComplex(P.n, terms, diffs)


def evaluate_fiber(D: MatrixOfLinearForms, v) -> DenseMatrix:
    """The fiber matrix sum_j v_j * slice_j at a (nonzero) point."""
    f = D.field
    coords = [f(x) for x in v]
    if len(coords) != D.nvars:
        raise ShapeError(f"point has {len(coords)} coordinates, expected {D.nvars}")
    if all(f.is_zero(x) for x in coords):
        raise ValueError("the zero vector is not a projective point")
    out = DenseMatrix.zeros(f, D.nrows, D.ncols)
    for c, s in zip(coords, D.slices):
        if not f.is_zero(c):
            out = out + s.scale(c)
    return out


def exact_at_point(C: LinearComplex, v) -> int:
    """First degree below the top where the fiber sequence at ``v`` is not
    exact, or -1 when it is exact at every such degree.

    Checked through rank(in) + rank(out) = dim term_i with the convention
    that the incoming map at degree 0 is zero; this simultaneously certifies
    constant corank at the top, so the cokernel is locally free at the point.
    """
    prev_rank = 0
    for i in range(C.length):
        r = evaluate_fiber(C.diffs[i], v).rank()
        if prev_rank + r != C.terms[i][1]:
            return i
        prev_rank = r
    return -1


def projective_point_count(q: int, n: int) -> int:
    return (q ** (n + 1) - 1) // (q - 1)


def _anchor_restriction(C: LinearComplex, anchor: AnchorProblem) -> LinearComplex:
    """The one-map complex 0 -> L -> U (x) wedge^(l+1) given by v-wedge on L.

    ``C`` must be the complex of ``quotient_top(free_truncated(u, l, n), L)``
    for ``anchor`` = (u, w = C(n+1, l), L); its term ranks are checked here,
    the caller vouches for the maps.  The restriction's fiber at ``v`` has
    rank dim L exactly when C's fiber sequence is exact below the top, and a
    failure of C can only sit at degree l-1 (see the module docstring).
    """
    f, n, l = C.field, C.n, C.length
    u, w, d = anchor.u, anchor.w, anchor.d
    want = tuple(u * comb(n + 1, i) for i in range(l)) + (u * w - d,)
    if (anchor.field != f or l < 1 or comb(n + 1, l) != w
            or tuple(r for _, r in C.terms) != want):
        raise ShapeError(f"complex with terms {C.terms} is not a top-piece "
                         f"quotient by a {d}-dimensional anchor in k^{u} (x) k^{w}")
    eye = DenseMatrix.identity(f, u)
    basis_t = anchor.subspace.basis.transpose()
    slices = tuple(eye.kron(generator_action(j, l, n, f)) @ basis_t
                   for j in range(n + 1))
    return LinearComplex(n, ((l, d), (l + 1, u * comb(n + 1, l + 1))),
                         (MatrixOfLinearForms(slices),))


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
    their order.  The points seen so far are kept as one sorted array of
    row keys, 8(n+1) bytes per point.
    """
    inv_table = modp.inverse_table(q)
    rng = np.random.default_rng(seed)
    key = np.dtype((np.void, 8 * (n + 1)))
    seen = np.empty(0, dtype=key)
    collected = 0
    rounds = 0

    def keys(rows):
        return np.ascontiguousarray(rows).view(key).ravel()

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
            k = keys(rest)
            rest = rest[unseen(k, np.searchsorted(seen, k))]
            rest = rest[rng.choice(rest.shape[0], want, replace=False)]
            for start in range(0, want, chunk):
                yield rest[start:start + chunk]
            return
        for start in range(0, want * 2, chunk):
            raw = rng.integers(0, q, size=(min(chunk, want * 2 - start), n + 1),
                               dtype=np.int64)
            raw = raw[(raw != 0).any(axis=1)]
            # Normalize so distinctness means distinct projective points.
            lead = (raw != 0).argmax(axis=1)
            raw *= inv_table[raw[np.arange(raw.shape[0]), lead]][:, None]
            raw %= q
            # The block's distinct points, sorted, with their first positions.
            u, first = np.unique(keys(raw), return_index=True)
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


def _scan_chunk(slices_np, dims, pts, p, base_index, failures):
    """Check exactness on a chunk of points; append failures in order."""
    ranks = []
    for sl in slices_np:
        fib = np.tensordot(pts, sl, axes=([1], [0])) % p
        ranks.append(modp.batch_rank(fib, p))
    k = pts.shape[0]
    ok = np.ones(k, dtype=bool)
    first_bad = np.full(k, -1, dtype=np.int64)
    prev = np.zeros(k, dtype=np.int64)
    for i, rank in enumerate(ranks):
        good = prev + rank == dims[i]
        newly_bad = ok & ~good
        first_bad[newly_bad] = i
        ok &= good
        prev = rank
    if not ok.all():
        for t in np.nonzero(~ok)[0]:
            failures.append((base_index + int(t), tuple(int(x) for x in pts[t]),
                             int(first_bad[t])))


def _scan_point_chunks(C: LinearComplex, chunks, q: int):
    """Failures of ``C`` over a stream of point chunks, indexed by position,
    and the number of points scanned."""
    slices_np = [np.stack([s.to_numpy() for s in d.slices]) for d in C.diffs]
    dims = [r for _, r in C.terms]
    failures = []
    base = 0
    for pts in chunks:
        _scan_chunk(slices_np, dims, pts, q, base, failures)
        base += pts.shape[0]
    return failures, base


def faithfulness_scan(C: LinearComplex, mode: str = "exhaustive", *,
                      samples: int = 10000, seed: int = 0,
                      point_budget: int = 2_000_000,
                      chunk: int = 1 << 16,
                      anchor: AnchorProblem | None = None) -> FaithfulnessReport:
    """Scan projective points for failures of fiber exactness.

    ``exhaustive`` iterates every normalized representative of P^n(F_q) (the
    scalar domain must be a prime field whose point count fits the budget);
    ``random`` samples distinct seeded points.  The failure list is ordered
    by enumeration index regardless of chunking.

    With ``anchor`` = L, ``C`` must be the complex of the quotient of
    ``free_truncated(anchor.u, l, n)`` by L, and each point is tested by the
    single rank condition L n ker(v-wedge) = 0 instead of a rank per
    differential; the points and the report are the same either way.
    """
    f = C.field
    n = C.n
    if mode not in ("exhaustive", "random"):
        raise ValueError(f"unknown mode {mode!r}")
    if f is None:
        raise ValueError("a complex without differentials has no field to scan over")
    if mode == "exhaustive":
        if not isinstance(f, PrimeField):
            raise ValueError("exhaustive scans need a prime field")
        count = projective_point_count(f.p, n)
        if count > point_budget:
            raise PointBudgetError(f"{count} points exceed the budget {point_budget}")
    else:
        count = samples
        if isinstance(f, PrimeField) and samples > projective_point_count(f.p, n):
            raise ValueError(f"{samples} samples exceed the "
                             f"{projective_point_count(f.p, n)} points of P^{n}(F_{f.p})")
    offset = 0
    if anchor is not None:
        offset = C.length - 1
        C = _anchor_restriction(C, anchor)
    if mode == "exhaustive":
        q = f.p
        failures, scanned = _scan_point_chunks(C, _normalized_point_chunks(q, n, chunk), q)
        assert scanned == count
        seed = None
    elif isinstance(f, PrimeField):
        q = f.p
        failures, _ = _scan_point_chunks(
            C, _random_point_chunks(q, n, samples, seed, chunk), q)
    else:
        # Rational fallback: per-point exact check on random integer vectors.
        rng = random.Random(seed)
        seen = set()
        failures = []
        while len(seen) < samples:
            v = tuple(rng.randint(-9, 9) for _ in range(n + 1))
            if all(x == 0 for x in v) or v in seen:
                continue
            degree = exact_at_point(C, v)
            if degree >= 0:
                failures.append((len(seen), v, degree))
            seen.add(v)
    failures = tuple((i, pt, degree + offset) for i, pt, degree in failures)
    return FaithfulnessReport(mode, repr(f), count, failures, seed)
