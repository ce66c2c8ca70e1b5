"""Anchoring subspaces: verification, explicit tensors, duality, sampling."""

import random
from fractions import Fraction
from math import ceil

import pytest

from bggbundles import (GF, QQ, AnchoringSearchError, AnchorProblem, DenseMatrix,
                        SliceTensor, Subspace, annihilator, anchoring_tensor,
                        burnside_pair, commutant_dim, general_position_range,
                        is_anchoring, pair_solution_dim, sample_anchoring,
                        slices_from_subspace, tensor_to_subspace)

F = GF(32003)


def random_subspace(field, rng, u, w, d):
    while True:
        rows = [[field.random_element(rng) for _ in range(u * w)] for _ in range(d)]
        basis = DenseMatrix(field, rows, u * w)
        if d == 0 or basis.rank() == d:
            return AnchorProblem(u, w, Subspace(basis))


def test_pair_solution_dim_unconstrained():
    T = SliceTensor(3, 2, (DenseMatrix.zeros(QQ, 3, 2),) * 4)
    assert pair_solution_dim(T) == 9 + 4


def test_pair_solution_dim_single_identity():
    for u in (1, 2, 4):
        T = SliceTensor(u, u, (DenseMatrix.identity(QQ, u),))
        assert pair_solution_dim(T) == u * u


def test_pair_solution_dim_burnside_slices():
    b1, b2 = burnside_pair(QQ, 2)
    T = SliceTensor(2, 2, (DenseMatrix.identity(QQ, 2), b1, b2))
    assert pair_solution_dim(T) == 1


def test_burnside_pair_small():
    b1, b2 = burnside_pair(QQ, 1)
    assert b1.to_lists() == [[1]] and b2.to_lists() == [[1]]
    b1, b2 = burnside_pair(QQ, 2)
    assert b1.to_lists() == [[1, 0], [0, 2]]
    assert commutant_dim(QQ, [b1, b2]) == 1


def test_burnside_conjugation_hand_example():
    # Conjugating diag(1,2) by the basis (1,1), (1,-1) and checking the
    # commutant directly.
    x = DenseMatrix(QQ, [[1, 1], [1, -1]])
    diag = DenseMatrix(QQ, [[1, 0], [0, 2]])
    xinv = DenseMatrix(QQ, [[Fraction(1, 2), Fraction(1, 2)],
                            [Fraction(1, 2), Fraction(-1, 2)]])
    assert x @ xinv == DenseMatrix.identity(QQ, 2)
    b2 = x @ diag @ xinv
    assert b2.to_lists() == [[Fraction(3, 2), Fraction(-1, 2)],
                             [Fraction(-1, 2), Fraction(3, 2)]]
    assert commutant_dim(QQ, [diag, b2]) == 1


def test_burnside_pair_larger_field():
    b1, b2 = burnside_pair(F, 8, seed=3)
    assert commutant_dim(F, [b1, b2]) == 1


def _commuting_matrices_dim(field, mats):
    """Reference: s^2 minus the rank of the stacked C M - M C = 0 system."""
    s = mats[0].nrows
    eye = DenseMatrix.identity(field, s)
    system = DenseMatrix.vstack([eye.kron(m.transpose()) - m.kron(eye) for m in mats])
    return s * s - system.rank()


def test_commutant_dim_matches_the_commuting_system():
    # Hand values: a lone diagonal with distinct entries commutes with the
    # diagonals, a nilpotent Jordan block with its polynomials, I with all.
    for s in (1, 2, 4):
        diag = DenseMatrix(QQ, [[i + 1 if i == j else 0 for j in range(s)]
                                for i in range(s)], s)
        jordan = DenseMatrix(QQ, [[int(j == i + 1) for j in range(s)] for i in range(s)], s)
        assert commutant_dim(QQ, [diag]) == commutant_dim(QQ, [jordan]) == s
        assert commutant_dim(QQ, [DenseMatrix.identity(QQ, s)]) == s * s
    rng = random.Random(5)
    for field in (F, GF(7), QQ):
        for s in (1, 2, 3):
            for k in (1, 2):
                mats = [DenseMatrix(field, [[field.random_element(rng) for _ in range(s)]
                                            for _ in range(s)], s) for _ in range(k)]
                assert commutant_dim(field, mats) == _commuting_matrices_dim(field, mats)
            b1, b2 = burnside_pair(field, s, seed=s)
            assert commutant_dim(field, [b1, b2]) == _commuting_matrices_dim(field, [b1, b2]) == 1


def test_burnside_pair_field_too_small():
    with pytest.raises(ValueError):
        burnside_pair(GF(3), 4)


def test_is_anchoring_u1():
    for d in (0, 1, 3):
        prob = random_subspace(F, random.Random(d), 1, 3, d)
        assert is_anchoring(prob)


def test_is_anchoring_zero_subspace_u_gt_1():
    prob = AnchorProblem(2, 4, Subspace(DenseMatrix.zeros(F, 0, 8)))
    verdict = is_anchoring(prob)
    assert not verdict.anchors and verdict.solution_dim == 4


def test_is_anchoring_decomposable_counterexample():
    # L = span(u1 (x) w1, u2 (x) w2): every diagonal phi preserves it.
    rows = [[1, 0, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 1, 0, 0]]
    prob = AnchorProblem(2, 4, Subspace(DenseMatrix(F, rows, 8)))
    verdict = is_anchoring(prob)
    assert not verdict.anchors and verdict.solution_dim == 2


def test_is_anchoring_random_general_position():
    prob = random_subspace(F, random.Random(1), 2, 4, 2)
    assert is_anchoring(prob)


def test_slices_roundtrip():
    prob = random_subspace(F, random.Random(2), 2, 4, 3)
    T = slices_from_subspace(prob)
    back = tensor_to_subspace(T) if pair_solution_dim(T) == 1 else None
    if back is not None:
        assert back.subspace.basis.rref() == prob.subspace.basis.rref()


def test_anchoring_tensor_examples():
    T = anchoring_tensor(QQ, 2, 2, 3)
    assert T.slices[0] == DenseMatrix.identity(QQ, 2)
    assert pair_solution_dim(T) == 1
    T = anchoring_tensor(QQ, 5, 2, 5)
    # Shifted identity blocks cover rows 0-1, 2-3, 4 (truncated).
    assert T.slices[0][0, 0] == 1 and T.slices[1][2, 0] == 1 and T.slices[2][4, 0] == 1
    assert pair_solution_dim(T) == 1
    T = anchoring_tensor(QQ, 2, 5, 5)
    assert T.slices[0].shape == (2, 5)
    assert pair_solution_dim(T) == 1


def test_anchoring_tensor_m_too_small():
    with pytest.raises(ValueError):
        anchoring_tensor(QQ, 5, 2, 4)  # needs ceil(5/2) + 2 = 5


def test_anchoring_tensor_monotone_in_m():
    # Extra zero slices never destroy rigidity.
    for m in (4, 5, 6):
        assert pair_solution_dim(anchoring_tensor(QQ, 3, 2, m)) == 1


def test_tensor_to_subspace_anchors():
    for u, d in ((2, 2), (3, 2), (2, 3), (4, 1)):
        m = max(ceil(u / d), ceil(d / u)) + 2
        prob = tensor_to_subspace(anchoring_tensor(F, u, d, m))
        assert prob.d == d
        assert is_anchoring(prob)


def test_annihilator_dimensions_and_duality_example():
    prob = random_subspace(F, random.Random(9), 2, 4, 2)
    dual = annihilator(prob)
    assert dual.d == 6
    assert is_anchoring(prob) and is_anchoring(dual)


def test_duality_trials():
    rng = random.Random(100)
    for u in (2, 3):
        for w in (4, 5):
            for d in range(u * w + 1):
                prob = random_subspace(F, rng, u, w, d)
                assert bool(is_anchoring(prob)) == bool(is_anchoring(annihilator(prob)))


def test_scaling_invariance():
    rng = random.Random(13)
    prob = random_subspace(F, rng, 2, 4, 3)
    # Recombining basis rows by an invertible matrix leaves the verdict fixed.
    while True:
        g = DenseMatrix(F, [[F.random_element(rng) for _ in range(3)]
                            for _ in range(3)])
        if g.rank() == 3:
            break
    other = AnchorProblem(2, 4, Subspace(g @ prob.subspace.basis))
    assert is_anchoring(prob).anchors == is_anchoring(other).anchors


def test_general_position_range():
    lo, hi = general_position_range(2, 4)
    assert (lo, hi) == (Fraction(1), Fraction(7))


def test_sample_anchoring():
    prob = sample_anchoring(F, 2, 4, 2, seed=7)
    assert is_anchoring(prob)
    assert sample_anchoring(F, 1, 5, 3, seed=0).d == 3


def test_sample_anchoring_preconditions():
    with pytest.raises(ValueError):
        sample_anchoring(F, 2, 4, 1)  # 1 is the lower endpoint, excluded
    with pytest.raises(ValueError):
        sample_anchoring(F, 2, 3, 2)  # w < 4
    with pytest.raises(ValueError):
        sample_anchoring(F, 2, 4, 7)  # upper endpoint, excluded


def test_sample_anchoring_exhaustion_reports_failures(monkeypatch):
    # Force every candidate to be rejected; the error carries statistics.
    import bggbundles.anchor as an
    from bggbundles import AnchorVerdict
    monkeypatch.setattr(an, "is_anchoring", lambda prob: AnchorVerdict(False, 3))
    monkeypatch.setattr(an, "SEARCH_BUDGET", 3)
    with pytest.raises(AnchoringSearchError) as exc:
        an.sample_anchoring(F, 2, 4, 2, seed=0)
    assert len(exc.value.failures) == 3
    assert all("3" in msg for _, msg in exc.value.failures)
