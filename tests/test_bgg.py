"""Linear complexes, fiber evaluation and faithfulness scans."""

import hashlib
import itertools
import random
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from bggbundles import (GF, QQ, AnchorProblem, DenseMatrix, LinearComplex,
                        MatrixOfLinearForms, ShapeError, Subspace,
                        bgg_complex, choose_parameters, faithfulness_scan,
                        free_truncated, projective_point_count, quotient_top,
                        sample_anchoring)
import bggbundles.bgg as bgg
from bggbundles import modp
from bggbundles.fields import _is_prime
import bggbundles.sheafcoh as sheafcoh
from bggbundles.bgg import (CERTIFICATE_CELLS, CERTIFICATE_PRIME, _anchor_restriction,
                            _points_at, _random_points, _strand_certificate,
                            certificate_anchor)
from bggbundles.sheafcoh import _transpose_forms, strand_map
from explicit_anchor import anchoring_tensor, tensor_to_subspace
from scan_oracle import (EnumerationBudgetError, enumerated_scan, evaluate_fiber,
                         exact_at_point, full_complex_scan, normalized_point_chunks)

F = GF(32003)


@contextmanager
def random_samples(samples):
    """Random scans of min(``samples``, |P^n(F_q)|) points, in place of the
    constant."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bgg, "RANDOM_SAMPLES", samples)
        yield


def zero_anchor(field, u, n, l):
    """The anchor of the free module: the zero subspace of U (x) wedge^l."""
    w = comb(n + 1, l)
    return AnchorProblem(u, w, Subspace(DenseMatrix(field, [], u * w)))


def e0_anchor(field):
    """L = e_0 (x) wedge^1 in P^3, which meets ker(v-wedge) only at v = e_0."""
    return AnchorProblem(1, 4, Subspace(DenseMatrix(field, [[1, 0, 0, 0]], 4)))


def rank_loss_anchor():
    """A Q anchor in wedge^1 of Q^4 whose two basis rows, independent over Q,
    are equal mod ``CERTIFICATE_PRIME``."""
    rows = [[1, 0, 0, 0], [1, CERTIFICATE_PRIME, 0, 0]]
    return AnchorProblem(1, 4, Subspace(DenseMatrix(QQ, rows, 4)))


def test_bgg_complex_terms():
    P = free_truncated(2, 2, 3, F)
    C = bgg_complex(P)
    assert C.terms == ((0, 2), (1, 8), (2, 12))
    assert C.length == 2
    C.validate()


def test_evaluate_fiber_matches_hand_value():
    P = free_truncated(1, 1, 2, QQ)
    C = bgg_complex(P)
    fib = evaluate_fiber(C.diffs[0], (1, 1, 0))
    assert fib.to_lists() == [[1], [1], [0]]


def test_evaluate_fiber_linearity():
    rng = random.Random(1)
    P = free_truncated(1, 2, 3, F)
    C = bgg_complex(P)
    v = [F.random_element(rng) for _ in range(4)]
    w = [F.random_element(rng) for _ in range(4)]
    s = [(a + b) % F.p for a, b in zip(v, w)]
    d = C.diffs[1]
    assert evaluate_fiber(d, v) + evaluate_fiber(d, w) == evaluate_fiber(d, s)


def test_evaluate_fiber_rejects_zero():
    P = free_truncated(1, 1, 2, QQ)
    C = bgg_complex(P)
    with pytest.raises(ValueError):
        evaluate_fiber(C.diffs[0], (0, 0, 0))


def test_free_module_exact_everywhere():
    P = free_truncated(2, 2, 3, F)
    C = bgg_complex(P)
    rng = random.Random(3)
    for _ in range(50):
        v = [F.random_element(rng) for _ in range(4)]
        if any(v):
            assert exact_at_point(C, v) == -1


def test_deliberate_counterexample_fails_at_a_point():
    # Kill the e_0 direction of P_1 (a quotient at degree 1, not the top):
    # at the point e_0 the fiber map P_0 -> P_1 becomes zero, breaking
    # exactness at degree 0.
    P = free_truncated(1, 1, 3, F)
    L = Subspace(DenseMatrix(F, [[1, 0, 0, 0]], 4))
    Q = quotient_top(P, L)
    C = bgg_complex(Q)
    assert exact_at_point(C, (1, 0, 0, 0)) == 0
    assert exact_at_point(C, (0, 1, 0, 0)) == -1


def test_projective_point_counts():
    assert projective_point_count(5, 3) == 156
    assert projective_point_count(101, 3) == 1040604
    assert projective_point_count(7, 4) == 2801


def test_exhaustive_scan_free_small_fields():
    for q in (2, 3):
        for n in (2, 3):
            for l in range(1, n):
                L = zero_anchor(GF(q), 1, n, l)
                rep = faithfulness_scan(L, "exhaustive", n=n, l=l)
                # L = 0 needs no injectivity: its strands have no rows.
                assert rep.ok and rep.certificate == (0, 0, 0)
                assert rep.points_checked == projective_point_count(q, n)
                enumerated = enumerated_scan(L, n=n, l=l)
                assert enumerated.ok and enumerated.points_checked == rep.points_checked


def test_exhaustive_scan_finds_failures():
    rep = faithfulness_scan(e0_anchor(GF(5)), "exhaustive", n=3, l=1)
    # No strand is onto, so the scan fails; it names no point.
    assert not rep.ok and rep.certificate is None and rep.failures == ()
    # The enumeration names exactly the point [1:0:0:0], at degree 0.
    enumerated = enumerated_scan(e0_anchor(GF(5)), n=3, l=1)
    assert len(enumerated.failures) == 1
    idx, point, degree = enumerated.failures[0]
    assert point == (1, 0, 0, 0) and degree == 0


def _strand_onto(D, a):
    """Whether the degree-a strand of the transposed forms of the N x k matrix
    ``D``, S_(a-1) (x) k^N -> S_a (x) k^k, is onto."""
    n, N, k = D.nvars - 1, D.nrows, D.ncols
    S = strand_map(_transpose_forms(D), a - 1)
    assert S.shape == (comb(n + a, n) * k, comb(n + a - 1, n) * N)
    return S.rank() == S.nrows


def _capped_degrees(D):
    """The degrees a >= 1 whose strand has at most ``CERTIFICATE_CELLS`` cells."""
    n, N, k = D.nvars - 1, D.nrows, D.ncols
    return itertools.takewhile(
        lambda a: comb(n + a, n) * k * comb(n + a - 1, n) * N <= CERTIFICATE_CELLS,
        itertools.count(1))


def test_decomposable_anchor_is_never_certified():
    # v-wedge kills e_0 (x) e_0 at v = e_0, over every field: each strand
    # misses exactly one dimension, so no degree certifies it.
    for q in (3, 5, 101):
        D = _anchor_restriction(e0_anchor(GF(q)), 3, 1)
        assert (D.nrows, D.ncols) == (6, 1)
        assert _strand_certificate(D) is None
        assert not any(_strand_onto(D, a) for a in _capped_degrees(D))
        assert all(strand_map(_transpose_forms(D), a - 1).rank() == comb(3 + a, 3) - 1
                   for a in (1, 2, 3))


def test_free_anchor_restriction_forms_no_products(monkeypatch):
    # dim L = 0: D is N x 0 at every point, so no generator matrix is built,
    # and each slice equals the product the general path would form.
    calls = []
    real = bgg.generator_action
    monkeypatch.setattr(bgg, "generator_action", lambda *a: calls.append(a) or real(*a))
    for field, n, l, u in ((F, 3, 2, 1), (QQ, 4, 1, 2), (F, 20, 2, 1)):
        w = comb(n + 1, l)
        L = AnchorProblem(u, w, Subspace(DenseMatrix.zeros(field, 0, u * w)))
        D = _anchor_restriction(L, n, l)
        assert D.nvars == n + 1 and D.field == field
        assert all(s.shape == (u * comb(n + 1, l + 1), 0) for s in D.slices)
        assert calls == []
        eye = DenseMatrix.identity(field, u)
        assert D.slices[n] == eye.kron(real(n, l, n, field)) @ L.subspace.basis.transpose()
    _anchor_restriction(e0_anchor(F), 3, 1)
    assert len(calls) == 4


def test_anchor_outgrowing_its_target_is_enumerated():
    # dim L = 4 = N inside wedge^2 of k^4: L meets the 3-dimensional
    # ker(v-wedge) at every point, and no strand can be onto.
    rows = DenseMatrix.identity(GF(5), 6).rows()[:4]
    L = AnchorProblem(1, 6, Subspace(DenseMatrix(GF(5), rows, 6)))
    assert _strand_certificate(_anchor_restriction(L, 3, 2)) is None
    rep = faithfulness_scan(L, "exhaustive", n=3, l=2)
    assert not rep.ok and rep.certificate is None
    enumerated = enumerated_scan(L, n=3, l=2)
    assert len(enumerated.failures) == enumerated.points_checked == projective_point_count(5, 3)


def test_exhaustive_scan_budget():
    # P^3(F_1009) has 1,028,262,820 points, over the budget of 2,000,000: the
    # certificate covers them all, an enumeration is refused.
    L = zero_anchor(GF(1009), 1, 3, 1)
    rep = faithfulness_scan(L, "exhaustive", n=3, l=1)
    assert rep.ok and rep.points_checked == 1028262820
    with pytest.raises(EnumerationBudgetError, match="1028262820 points"):
        enumerated_scan(L, n=3, l=1)


def test_exhaustive_scan_requires_prime_field():
    # Only the enumeration does: the certificate works over Q too.
    with pytest.raises(ValueError, match="prime field"):
        enumerated_scan(zero_anchor(QQ, 1, 3, 1), n=3, l=1)


def test_exhaustive_scan_certifies_over_the_rationals(monkeypatch):
    # A Q anchor is scanned through its reduction mod CERTIFICATE_PRIME.
    assert faithfulness_scan(certificate_anchor(zero_anchor(QQ, 1, 3, 1)), "exhaustive",
                             n=3, l=1).certificate == (0, 0, 0)
    p, d = choose_parameters(3, 2, 5)
    e0, L = e0_anchor(QQ), sample_anchoring(QQ, p, 6, d, seed=3)
    # The strands are ranked mod CERTIFICATE_PRIME, never by an exact Q rank:
    # over Q the e0 anchor's strands up to the full cap would take minutes.
    with monkeypatch.context() as mp:
        mp.setattr(DenseMatrix, "rank", _no_rational_rank(DenseMatrix.rank))
        rep = faithfulness_scan(certificate_anchor(e0), "exhaustive", n=3, l=1)
        assert not rep.ok and rep.certificate is None
        # The rank-5 shape's anchor over Q has the strand of its F_32003 draw.
        rep = faithfulness_scan(certificate_anchor(L), "exhaustive", n=3, l=2)
        # The random scan samples the same reduction, with no Q rank either.
        with random_samples(2000):
            rnd = faithfulness_scan(certificate_anchor(L), "random", n=3, l=2, seed=3)
    assert rep.ok and rep.certificate == (1, 4, 8)
    assert rep.field_desc == "GF(1048573)"
    assert rep.points_checked == projective_point_count(CERTIFICATE_PRIME, 3)
    assert rnd.ok and rnd.points_checked == 2000 and rnd.field_desc == "GF(1048573)"


def test_scan_refuses_a_rational_anchor():
    # A run reduces a Q anchor once, in pipeline.Instance; the scan takes only
    # the reduction, so it holds no rule of its own for Q.
    for mode in ("exhaustive", "random"):
        with pytest.raises(ValueError, match="an anchor over a prime field, not QQ"):
            faithfulness_scan(e0_anchor(QQ), mode, n=3, l=1)


def _no_rational_rank(rank):
    """``rank`` with its branch over Q replaced by a failure."""
    def guarded(m):
        if m.field == QQ:
            raise AssertionError("an exact rank over Q")
        return rank(m)
    return guarded


def test_rational_certificate_clears_rows_and_refuses_rank_loss():
    q = bgg.CERTIFICATE_PRIME
    assert q == max(x for x in range(modp.PRIME_BOUND - 100, modp.PRIME_BOUND)
                    if _is_prime(x))
    # Each row is multiplied by the lcm of its denominators, then reduced mod q.
    L = AnchorProblem(1, 4, Subspace(DenseMatrix(QQ, [[Fraction(2, 3), Fraction(1, 6), 0, 0],
                                                     [0, 0, Fraction(5, 7), 1]], 4)))
    assert bgg.certificate_anchor(L).subspace.basis.to_lists() == [[4, 1, 0, 0],
                                                                    [0, 0, 5, 7]]
    # Independent over Q, equal mod q: no reduction, and no exception.
    assert bgg.certificate_anchor(rank_loss_anchor()) is None


def test_scan_refuses_unknown_mode_and_shape():
    L = e0_anchor(GF(5))
    with pytest.raises(ValueError, match="unknown mode"):
        faithfulness_scan(L, "sideways", n=3, l=1)
    # w = 4 is C(4, 1) but neither C(4, 2) nor C(5, 1).
    for n, l in ((3, 2), (4, 1), (3, 0)):
        with pytest.raises(ShapeError, match="does not lie in"):
            faithfulness_scan(L, "random", n=n, l=l)


def test_random_scan_prime_field():
    with random_samples(500):
        rep = faithfulness_scan(zero_anchor(F, 2, 3, 2), "random", n=3, l=2, seed=5)
    assert rep.ok and rep.points_checked == 500 and rep.seed == 5


def test_random_scan_deterministic():
    L = e0_anchor(GF(5))
    # P^3(F_5) has fewer than RANDOM_SAMPLES points: the scan draws all 156,
    # so the bad point is surely hit.
    r1 = faithfulness_scan(L, "random", n=3, l=1, seed=9)
    r2 = faithfulness_scan(L, "random", n=3, l=1, seed=9)
    assert r1.points_checked == projective_point_count(5, 3) == 156 < bgg.RANDOM_SAMPLES
    assert r1.failures == r2.failures and not r1.ok


def test_random_scan_every_point_of_a_large_field():
    # P^3(F_47) has 106,080 points, one fewer than the scan may draw: it
    # draws each point exactly once and records the one bad point, e_0, at
    # its place in the draw.
    q, count = 47, projective_point_count(47, 3)
    with random_samples(count + 1):
        rep = faithfulness_scan(e0_anchor(GF(q)), "random", n=3, l=1, seed=4)
    pts = _random_points(q, 3, count, 4)
    assert len({row.tobytes() for row in pts}) == rep.points_checked == count
    at = int(np.flatnonzero((pts == [1, 0, 0, 0]).all(axis=1))[0])
    assert at > 0 and rep.failures == ((at, (1, 0, 0, 0), 0),)
    # Every point of P^3(F_17) against the full complex's ranks.
    q, count = 17, projective_point_count(17, 3)
    L = e0_anchor(GF(q))
    rep = faithfulness_scan(L, "random", n=3, l=1, seed=3)
    assert rep.points_checked == count
    assert [pt for _, pt, _ in rep.failures] == [(1, 0, 0, 0)]
    C = bgg_complex(quotient_top(free_truncated(1, 1, 3, GF(q)), L.subspace))
    assert rep == full_complex_scan(C, "random", seed=3)


@pytest.mark.parametrize("q, n", [(2, 3), (5, 3), (7, 4), (3, 6), (17, 3), (2, 9)])
def test_points_at_decodes_the_reference_enumeration(q, n):
    want = np.concatenate(list(normalized_point_chunks(q, n)))
    got = _points_at(q, n, np.arange(projective_point_count(q, n)))
    assert got.dtype == np.int64 and np.array_equal(got, want)
    # Any positions, in any order.
    idx = np.random.default_rng(q + n).permutation(len(want))[:50]
    assert np.array_equal(_points_at(q, n, idx), want[idx])


# (q, n, samples) on both sides of count = 2*samples (whole-space permutation
# against indices drawn with replacement) and of count = 2^63 (indices
# against normalized rows): 55103 is the largest prime with |P^4| < 2^63.
@pytest.mark.parametrize("q, n, samples", [
    (5, 3, 78), (5, 3, 77), (55103, 4, 3000), (55109, 4, 3000),
    (CERTIFICATE_PRIME, 3, 3000), (CERTIFICATE_PRIME, 4, 3000)])
def test_random_points_are_distinct_normalized_and_seeded(q, n, samples):
    count = projective_point_count(q, n)
    assert (count <= 2 * samples) == (q == 5 and samples == 78)
    assert (count < 1 << 63) == (n == 3 or q == 55103)
    pts = _random_points(q, n, samples, 7)
    assert pts.dtype == np.int64 and pts.shape == (samples, n + 1)
    assert len({row.tobytes() for row in pts}) == samples
    assert ((pts >= 0) & (pts < q)).all()
    lead = (pts != 0).argmax(axis=1)
    assert (pts[np.arange(samples), lead] == 1).all()
    assert np.array_equal(pts, _random_points(q, n, samples, 7))
    assert not np.array_equal(pts, _random_points(q, n, samples, 8))
    if count <= 2 * samples:  # a permutation's prefix, decoded
        perm = np.random.default_rng(7).permutation(count)[:samples]
        assert np.array_equal(pts, _points_at(q, n, perm))


def test_random_points_allocate_nothing_of_the_point_count():
    # 46 million points, 10^5 drawn: a sampler that permuted every position
    # would need 371 MB.
    q, n, samples = 359, 3, 10 ** 5
    assert projective_point_count(q, n) > 400 * samples
    tracemalloc.start()
    try:
        _random_points(q, n, samples, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * samples * (n + 1) * 8


@pytest.mark.parametrize("q, n, samples, seed, digest", [
    # uniform positions, decoded
    (32003, 3, 10000, 42,
     "6b2b6754a096e413899c9a5defab5aa197a54fa8ce5af4f9e820f814425f4554"),
    # 150 of 400 positions: repeats, and twice the shortfall redrawn
    (7, 3, 150, 2,
     "4a1a03ef569b0c1175f9c3cb59bdf7e9f9c32c831db707caa1702b642d319a28"),
    # the Q scan prime, uniform positions
    (CERTIFICATE_PRIME, 3, 10000, 4,
     "e99eb5396a71efc1331b880d56646f425a7f4db07f5ac4311f957133082a6e3a"),
    # every point: a permutation of all positions
    (17, 3, 5220, 3,
     "c10055441da1fde91e6f77ecf73b66916e18bee648700bd01f0c8524bb4bb03d"),
    # uniform normalized rows, |P^6(F_32003)| >= 2^63
    (32003, 6, 10000, 0,
     "f80b21dccbfc6a09450863455c1c878db56b100444bf3f12a942c57b0164c537"),
    # the Q scan prime, uniform normalized rows
    (CERTIFICATE_PRIME, 4, 10000, 5,
     "b225beee67f49604630521dfa288f25e14f91dbadaa47825d2a204b0e060a8f5"),
])
def test_random_point_streams_are_pinned(q, n, samples, seed, digest):
    # sha256 of the int64 points, one case per branch of ``_random_points``.
    # A changed stream changes which points every random scan tests.
    pts = _random_points(q, n, samples, seed)
    assert pts.dtype == np.int64 and pts.shape == (samples, n + 1)
    assert hashlib.sha256(np.ascontiguousarray(pts).tobytes()).hexdigest() == digest


def test_float_fibers_are_exact_at_the_largest_prime():
    # n = 7 with every entry q - 1: each fiber entry is 8 (q-1)^2, below 2^53.
    q = CERTIFICATE_PRIME
    pts = np.full((3, 8), q - 1, dtype=np.int64)
    forms = np.full((8, 5, 4), q - 1, dtype=np.int64)
    fibers = bgg._fibers(pts, forms, q)
    want = np.tensordot(pts, forms, axes=([1], [0]))
    assert fibers.dtype == np.int64 and np.array_equal(fibers, want)
    assert np.array_equal(fibers % q, want % q)
    # 8192 terms still sum below 2^53; 8193 could not, and are refused.
    wide = bgg._fibers(np.full((1, 8192), q - 1), np.full((8192, 1, 1), q - 1), q)
    assert wide.item() == 8192 * (q - 1) ** 2
    with pytest.raises(OverflowError):
        bgg._fibers(np.zeros((1, 8193), dtype=np.int64),
                    np.zeros((8193, 1, 1), dtype=np.int64), q)


def test_rank_deficient_matches_the_int64_reference_across_slices():
    # Plant one point per column of random forms at which that column of
    # the fiber vanishes, and put the planted points (or multiples) twice in
    # one slice of the ranks, on both sides of a slice boundary, and in the
    # third slice.
    q, n, N, k = CERTIFICATE_PRIME, 3, 12, 3
    rng = np.random.default_rng(7)
    forms = rng.integers(0, q, size=(n + 1, N, k))
    bad = rng.integers(1, q, size=(k, n + 1))
    for c, v in enumerate(bad):
        rest = np.tensordot(v[1:], forms[1:, :, c], axes=1) % q
        forms[0, :, c] = -rest * pow(int(v[0]), q - 2, q) % q
    s = modp.BATCH_SLICE
    pts = rng.integers(0, q, size=(2 * s + 100, n + 1))
    planted = {100: bad[0], 101: bad[0] * 5 % q, s - 1: bad[1], s: bad[2], 2 * s + 4: bad[1]}
    for i, v in planted.items():
        pts[i] = v
    reference = np.tensordot(pts, forms, axes=([1], [0])) % q
    want = [i for i, fiber in enumerate(reference) if modp.rank(fiber, q) < k]
    assert want == sorted(planted)
    assert bgg._rank_deficient(pts, forms, q, k).tolist() == want


def test_random_scan_rational_samples_the_reduction():
    # Over Q the scan samples the points of P^n(F_q) at CERTIFICATE_PRIME for
    # the anchor's reduction there.
    p, d = choose_parameters(3, 2, 5)
    cases = [(zero_anchor(QQ, 1, 3, 2), 2), (e0_anchor(QQ), 1),
             (sample_anchoring(QQ, p, 6, d, seed=3), 2),
             (AnchorProblem(1, 6, Subspace(DenseMatrix(QQ, [[Fraction(1, 2), 0, 0, 0, 0, 3],
                                                            [0, 1, Fraction(-2, 7), 0, 0, 0]],
                                                       6))), 2)]
    for L, l in cases:
        # Rows scaled by 1/10^7 span the same L, so they scan the same.
        shrink = DenseMatrix(QQ, [[Fraction(1, 10**7)]], 1)
        scaled = AnchorProblem(L.u, L.w, Subspace(shrink.kron(L.subspace.basis)))
        for seed in (2, 5):
            with random_samples(300):
                rep = faithfulness_scan(certificate_anchor(L), "random", n=3, l=l, seed=seed)
                assert rep == faithfulness_scan(certificate_anchor(scaled), "random", n=3,
                                                l=l, seed=seed)
            assert rep.ok and rep.points_checked == 300 and rep.field_desc == "GF(1048573)"


def test_composite_zero_on_validate():
    P = free_truncated(1, 2, 3, F)
    C = bgg_complex(P)
    C.validate()
    # Swapping one slice breaks the quadratic-form identity.
    bad_d1 = MatrixOfLinearForms((C.diffs[1].slices[1],) + C.diffs[1].slices[1:])
    broken = LinearComplex(C.n, C.terms, (C.diffs[0], bad_d1))
    with pytest.raises(ShapeError):
        broken.validate()


def _equivalence_anchors(field, p, d, w):
    """Seeded random subspaces, the coordinate subspace and, where the field
    holds one, the explicit anchoring tensor's subspace."""
    rng = random.Random(p * 1000 + d * 10 + field.p)
    anchors = []
    while len(anchors) < 3:
        basis = DenseMatrix(field, [[field.random_element(rng) for _ in range(p * w)]
                                    for _ in range(d)], p * w)
        if basis.rank() == d:
            anchors.append(AnchorProblem(p, w, Subspace(basis)))
    eye = DenseMatrix.identity(field, p * w)
    anchors.append(AnchorProblem(p, w, Subspace(DenseMatrix(field, eye.rows()[:d],
                                                           p * w))))
    try:
        anchors.append(tensor_to_subspace(anchoring_tensor(field, p, d, w)))
    except (ValueError, RuntimeError):
        pass  # field too small for a Burnside pair, or too few slices
    return anchors


GRID = tuple((n, l, r) for n in (3, 4) for l in range(1, n) for r in range(n, n + 4))


def test_certificate_agrees_with_enumeration(monkeypatch):
    # Over F_3, F_5 and F_7 a certified anchor enumerates clean, and every
    # anchor that fails at a point has no onto strand up to the cap.
    ranked = {}  # degree -> cokernel dimension, of the strands the scan ranks
    cokernel_dim = sheafcoh.strand_cokernel_dim

    def spy(Dt, a):
        ranked[a] = cokernel_dim(Dt, a)
        return ranked[a]

    monkeypatch.setattr(sheafcoh, "strand_cokernel_dim", spy)
    certified = failing = 0
    for q in (3, 5, 7):
        for n, l, r in GRID:
            p, d = choose_parameters(n, l, r)
            for L in _equivalence_anchors(GF(q), p, d, comb(n + 1, l)):
                D = _anchor_restriction(L, n, l)
                ranked.clear()
                scan = faithfulness_scan(L, "exhaustive", n=n, l=l)
                enumerated = enumerated_scan(L, n=n, l=l)
                assert scan.points_checked == enumerated.points_checked
                assert scan.failures == () and scan.ok == (scan.certificate is not None)
                if scan.certificate is not None:
                    certified += 1
                    assert enumerated.ok, (q, n, l, r)
                    a, rows, cols = scan.certificate
                    # The first onto strand, of the shape recorded: the image
                    # is generated in degree 1, so a strand onto below a
                    # would make the degree-(a-1) strand onto.
                    assert _strand_onto(D, a) and not _strand_onto(D, a - 1)
                    assert strand_map(_transpose_forms(D), a - 1).shape == (rows, cols)
                if not enumerated.ok:
                    failing += 1
                    assert scan.certificate is None, (q, n, l, r)
                    # Every capped strand was ranked and is not onto, but for
                    # those with fewer columns than rows, which cannot be.
                    N, k = D.nrows, D.ncols
                    for a in _capped_degrees(D):
                        if comb(n + a - 1, n) * N >= comb(n + a, n) * k:
                            assert ranked.pop(a, 0) > 0, (q, n, l, r, a)
                    assert not ranked, (q, n, l, r, ranked)
    assert certified > 0 and failing > 0, (certified, failing)


def test_anchored_scan_matches_full_complex_scan():
    cases = ((3, 1, 3), (3, 1, 4), (3, 2, 3), (3, 2, 5), (3, 2, 6),
             (4, 1, 5), (4, 2, 5), (4, 2, 7), (4, 3, 5), (4, 3, 7))
    compared = {"enumerated": 0, "random": 0}
    failing = {"enumerated": 0, "random": 0}
    for q in (3, 5, 7):
        field = GF(q)
        for n, l, r in cases:
            p, d = choose_parameters(n, l, r)
            w = comb(n + 1, l)
            P = free_truncated(p, l, n, field)
            for L in _equivalence_anchors(field, p, d, w):
                C = bgg_complex(quotient_top(P, L.subspace))
                with random_samples(projective_point_count(q, n) // 2):
                    anchored = {
                        "enumerated": enumerated_scan(L, n=n, l=l),
                        "random": faithfulness_scan(L, "random", n=n, l=l, seed=q + n)}
                    fulls = {mode: full_complex_scan(C, mode, seed=q + n) for mode in anchored}
                for mode, scan in anchored.items():
                    full = fulls[mode]
                    assert scan == full, (q, n, l, r, mode)
                    assert all(deg == l - 1 for _, _, deg in full.failures)
                    compared[mode] += 1
                    failing[mode] += not full.ok
    # Both verdicts occur, so the equality above is not vacuous.
    for mode in compared:
        assert 0 < failing[mode] < compared[mode], (mode, failing, compared)


def test_anchored_scan_rational_and_shape_checks():
    # Over Q the anchored scan equals the full-complex scan of the quotient by
    # the anchor's reduction over F_q, q = CERTIFICATE_PRIME.
    Fq = GF(CERTIFICATE_PRIME)
    rows = [[0] * 12]
    rows[0][0] = 1  # e_0 (x) (e_0 ^ e_1), killed by v-wedge for v in span(e_0, e_1)
    L = AnchorProblem(2, 6, Subspace(DenseMatrix(QQ, rows, 12)))
    # e_0 (x) wedge^2 holds e_0 (x) ker(v-wedge) at every point.
    every = AnchorProblem(2, 6, Subspace(DenseMatrix(QQ, [[Fraction(1, k + 1) * (i == k)
                                                           for i in range(12)]
                                                          for k in range(6)], 12)))
    for anchor, fails in ((L, False), (every, True)):
        R = certificate_anchor(anchor)
        C = bgg_complex(quotient_top(free_truncated(2, 2, 3, Fq), R.subspace))
        for seed in (1, 2):
            with random_samples(100):
                full = full_complex_scan(C, "random", seed=seed)
                assert faithfulness_scan(R, "random", n=3, l=2, seed=seed) == full
            assert len(full.failures) == (100 if fails else 0)
    # An anchor that does not lie in U (x) wedge^l is refused.
    with pytest.raises(ShapeError, match="does not lie in"):
        faithfulness_scan(certificate_anchor(L), "random", n=3, l=1)
