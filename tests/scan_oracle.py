"""The full-complex faithfulness scan, kept as a test oracle.

``faithfulness_scan`` tests one condition per point, L n ker(v-wedge) = 0,
on the anchor L.  This oracle instead ranks every differential of a complex
at every point and checks exactness below the top degree, which is the
definition of local freeness the anchored condition replaces.  It walks the
same point streams, so on the complex of the quotient by L the two reports
must be equal.
"""

import numpy as np

from bggbundles import FaithfulnessReport, PrimeField, evaluate_fiber, modp
from bggbundles.bgg import (_normalized_point_chunks, _random_point_chunks,
                            _rational_points, projective_point_count)


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


def full_complex_scan(C, mode="exhaustive", *, samples=10000, seed=0,
                      chunk=1 << 16) -> FaithfulnessReport:
    """The scan of a complex with one batched rank per differential, recording
    each failing point with the first degree where exactness fails."""
    f, n = C.diffs[0].field, C.n
    if not isinstance(f, PrimeField):
        assert mode == "random", "exhaustive scans need a prime field"
        failures = []
        for i, v in enumerate(_rational_points(n, samples, seed)):
            degree = exact_at_point(C, v)
            if degree >= 0:
                failures.append((i, v, degree))
        return FaithfulnessReport(mode, repr(f), samples, tuple(failures), seed)
    q = f.p
    if mode == "exhaustive":
        chunks, count, seed = (_normalized_point_chunks(q, n, chunk),
                               projective_point_count(q, n), None)
    else:
        chunks, count = _random_point_chunks(q, n, samples, seed, chunk), samples
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
