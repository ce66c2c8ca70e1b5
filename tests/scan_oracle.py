"""Point-by-point faithfulness scans, kept as test oracles.

``faithfulness_scan`` decides L n ker(v-wedge) = 0 at every point at once,
by a strand certificate of the anchor L, and samples random points.
``enumerated_scan`` instead tests that condition at each point of
P^n(F_q), one rank per point, which is what names the failing points.
``full_complex_scan`` ranks every differential of a complex over F_q at
every point and checks exactness below the top degree, which is the
definition of local freeness the anchored condition replaces.  Both walk
``normalized_point_chunks``, the reference enumeration of P^n(F_q) whose
positions ``bgg._points_at`` decodes, and ``full_complex_scan`` also the
random scan's draw, ``bgg._random_points``, so on the complex of the
quotient by L the reports must be equal; over Q that is the quotient by the
anchor's reduction mod ``CERTIFICATE_PRIME``, which the random scan samples.
``exact_at_point`` checks one point exactly over either field, with one
``evaluate_fiber`` rank per differential.
"""

import numpy as np

from bggbundles import DenseMatrix, FaithfulnessReport, PrimeField, ShapeError, bgg, modp
from bggbundles.bgg import (_anchor_restriction, _random_points, _rank_deficient,
                            projective_point_count)

ENUMERATION_BUDGET = 2_000_000  # most points an enumeration may test
PIECE = 1 << 16  # points an enumeration ranks at a time


class EnumerationBudgetError(ValueError):
    """Raised when an enumeration would test more points than its budget."""


def normalized_point_chunks(q, n):
    """Canonical representatives of P^n(F_q), first nonzero coordinate 1.

    Enumeration is lexicographic within each leading-position block; yielded
    as int64 arrays of shape (k, n+1), k at most ``PIECE``.
    """
    for lead in range(n + 1):
        free = n - lead
        total = q ** free
        start = 0
        while start < total:
            cnt = min(PIECE, total - start)
            idx = np.arange(start, start + cnt, dtype=np.int64)
            pts = np.zeros((cnt, n + 1), dtype=np.int64)
            pts[:, lead] = 1
            for pos in range(free):
                power = q ** (free - 1 - pos)
                pts[:, lead + 1 + pos] = (idx // power) % q
            yield pts
            start += cnt


def enumerated_count(field, n):
    """The points of P^n(F_q) an enumeration tests, refused beyond the budget."""
    if not isinstance(field, PrimeField):
        raise ValueError("an enumeration needs a prime field")
    count = projective_point_count(field.p, n)
    if count > ENUMERATION_BUDGET:
        raise EnumerationBudgetError(f"{count} points exceed the budget {ENUMERATION_BUDGET}")
    return count


def enumerated_scan(anchor, *, n, l) -> FaithfulnessReport:
    """Every normalized point v of P^n(F_q) at which L n ker(v-wedge) != 0,
    for the anchor L in U (x) wedge^l, recorded as (index, point, l - 1)."""
    f = anchor.field
    count = enumerated_count(f, n)
    D = _anchor_restriction(anchor, n, l)
    forms = np.stack([s.to_numpy() for s in D.slices])
    failures = []
    base = 0
    for pts in normalized_point_chunks(f.p, n):
        failures += [(base + int(t), tuple(int(x) for x in pts[t]), l - 1)
                     for t in _rank_deficient(pts, forms, f.p, anchor.d)]
        base += pts.shape[0]
    assert base == count
    return FaithfulnessReport("enumerated", repr(f), count, tuple(failures))


def evaluate_fiber(D, v) -> DenseMatrix:
    """The fiber matrix sum_j v_j * slice_j of a matrix of linear forms at a
    (nonzero) point."""
    f = D.field
    coords = [f(x) for x in v]
    if len(coords) != D.nvars:
        raise ShapeError(f"point has {len(coords)} coordinates, expected {D.nvars}")
    if not any(coords):
        raise ValueError("the zero vector is not a projective point")
    out = DenseMatrix.zeros(f, D.nrows, D.ncols)
    for c, s in zip(coords, D.slices):
        if c:
            out = out + DenseMatrix(f, [[c]], 1).kron(s)
    return out


def exact_at_point(C, v) -> int:
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


def full_complex_scan(C, mode="enumerated", *, seed=0) -> FaithfulnessReport:
    """The scan of a complex with one batched rank per differential, recording
    each failing point with the first degree where exactness fails:
    ``enumerated`` over every point of P^n(F_q), or ``random`` over the
    points the random scan draws, for a complex over F_q."""
    f, n = C.diffs[0].field, C.n
    q = f.p
    if mode == "enumerated":
        chunks, count, seed = normalized_point_chunks(q, n), enumerated_count(f, n), None
    else:
        count = min(bgg.RANDOM_SAMPLES, projective_point_count(q, n))
        chunks = (_random_points(q, n, count, seed),)
    slices = [np.stack([s.to_numpy() for s in d.slices]) for d in C.diffs]
    dims = [r for _, r in C.terms]
    failures = []
    base = 0
    for pts in chunks:
        k = pts.shape[0]
        ok = np.ones(k, dtype=bool)
        first_bad = np.full(k, -1, dtype=np.int64)
        prev = np.zeros(k, dtype=np.int64)
        for i, sl in enumerate(slices):
            rank = modp.batch_rank(np.tensordot(pts, sl, axes=([1], [0])) % q, q)
            good = prev + rank == dims[i]
            first_bad[ok & ~good] = i
            ok &= good
            prev = rank
        failures += [(base + int(t), tuple(int(x) for x in pts[t]), int(first_bad[t]))
                     for t in np.nonzero(~ok)[0]]
        base += k
    assert base == count
    return FaithfulnessReport(mode, repr(f), count, tuple(failures), seed)
