"""Graded modules: truncated free modules, quotients, chi, endomorphisms."""

import random
import time
import tracemalloc
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from bggbundles import (GF, QQ, AnchorProblem, DenseMatrix, GradedEModule,
                        ModuleInvariantError, Subspace, chi, free_truncated, hom_space_dim,
                        is_anchoring, quotient_top, sample_anchoring)
from bggbundles.matrix import zeros_array
from bggbundles.pipeline import choose_parameters

F = GF(32003)


def test_free_truncated_dimensions():
    P = free_truncated(2, 2, 3, F)
    assert P.piece_dims == (2, 8, 12)
    P.validate()
    for p in (1, 2, 3):
        for n in (3, 4, 5):
            for l in range(1, n):
                Q = free_truncated(p, l, n, QQ)
                assert Q.piece_dims == tuple(p * comb(n + 1, i) for i in range(l + 1))


def test_free_truncated_rejects_bad_parameters():
    with pytest.raises(ValueError):
        free_truncated(0, 1, 3, QQ)
    with pytest.raises(ValueError):
        free_truncated(1, 4, 3, QQ)


def test_chi_free_module():
    # chi_l of the truncation equals p * C(n, l): the Koszul alternating sum.
    for p in (1, 2, 3):
        for n in (3, 4, 5):
            for l in range(1, n):
                P = free_truncated(p, l, n, QQ)
                assert chi(P)[-1] == p * comb(n, l)
    assert chi(free_truncated(2, 2, 3, F)) == (2, 6, 6)


def test_validate_catches_broken_action():
    P = free_truncated(1, 2, 3, F)
    bad = list(list(level) for level in P.actions)
    bad[1][0] = P.actions[1][1]  # e_0 at level 1 replaced by e_1: relations break
    broken = GradedEModule(P.n, P.field, P.piece_dims, tuple(tuple(x) for x in bad))
    with pytest.raises(ModuleInvariantError):
        broken.validate()


def test_hom_dim_free_module_is_p_squared():
    # End of a free truncation is End(P_0): matrices commuting with I (x) e_j.
    for p in (1, 2, 3):
        for n in (2, 3):
            for l in range(1, min(3, n + 1)):
                P = free_truncated(p, l, n, F)
                assert hom_space_dim(P) == _stacked_hom_space_dim(P) == p * p


def test_quotient_by_zero_is_identity():
    P = free_truncated(2, 2, 3, F)
    L = Subspace(DenseMatrix.zeros(F, 0, 12))
    assert quotient_top(P, L) is P


def test_quotient_by_everything_drops_top():
    P = free_truncated(1, 2, 3, F)
    L = Subspace(DenseMatrix.identity(F, 6))
    Q = quotient_top(P, L)
    assert Q.piece_dims == (1, 4)
    Q.validate()


def test_quotient_dimensions_and_relations():
    rng = random.Random(5)
    P = free_truncated(2, 2, 3, F)
    rows = [[F.random_element(rng) for _ in range(12)] for _ in range(3)]
    L = Subspace(DenseMatrix(F, rows, 12))
    Q = quotient_top(P, L)
    assert Q.piece_dims == (2, 8, 9)
    Q.validate()
    assert chi(Q)[-1] == chi(P)[-1] - 3


def test_quotient_kills_the_subspace():
    # Image of L under the projection must vanish: relations really die.
    rng = random.Random(6)
    P = free_truncated(1, 1, 3, F)
    rows = [[F.random_element(rng) for _ in range(4)]]
    L = Subspace(DenseMatrix(F, rows, 4))
    Q = quotient_top(P, L)
    assert Q.piece_dims == (1, 3)
    # A vector of P_1 lying in L maps to zero in the quotient; reconstruct the
    # projection from the actions: e_j sends the basis of P_0 to column j.
    v = rows[0]
    img = [sum(Q.actions[0][j][r, 0] * v[j] for j in range(4)) % F.p
           for r in range(3)]
    # e_j(1) enumerates the generator directions, so sum v_j e_j(1) represents
    # the class of v, which must be zero.
    assert img == [0, 0, 0]


def test_quotient_shape_mismatch():
    from bggbundles import ShapeError
    P = free_truncated(1, 2, 3, F)
    with pytest.raises(ShapeError):
        quotient_top(P, Subspace(DenseMatrix.identity(F, 5)))


def test_hom_dim_quotient_example():
    # The rank-5 module on P^3: quotient by a random 1-dim subspace is simple.
    rng = random.Random(42)
    P = free_truncated(2, 2, 3, F)
    for attempt in range(8):
        rows = [[F.random_element(rng) for _ in range(12)]]
        L = Subspace(DenseMatrix(F, rows, 12))
        Q = quotient_top(P, L)
        if hom_space_dim(Q) == 1:
            break
    else:
        pytest.fail("no simple quotient found in 8 attempts")


def _stacked_hom_space_dim(P):
    """Endomorphism dimension as the kernel of one stacked Kronecker system
    in the entries of all phi_i (the solve the degree-by-degree one replaced)."""
    f = P.field
    dims = P.piece_dims
    c = P.top_degree
    if c == 0:
        return dims[0] ** 2
    # phi_0..phi_c are laid out consecutively; one row block per (i, j).
    offsets = [0]
    for d in dims:
        offsets.append(offsets[-1] + d * d)
    system = zeros_array(f, (sum((P.n + 1) * dims[i] * dims[i + 1] for i in range(c)),
                             offsets[-1]))
    r = 0
    for i in range(c):
        di, dj = dims[i], dims[i + 1]
        eye_i = DenseMatrix.identity(f, di).to_numpy()
        eye_j = DenseMatrix.identity(f, dj).to_numpy()
        for a in P.actions[i]:
            # vec is row-major: vec(phi_{i+1} A) = (I (x) A^T) vec(phi_{i+1}),
            # vec(A phi_i) = (A (x) I) vec(phi_i).
            a = a.to_numpy()
            system[r:r + di * dj, offsets[i]:offsets[i + 1]] = -np.kron(a, eye_i)
            system[r:r + di * dj, offsets[i + 1]:offsets[i + 2]] = np.kron(eye_j, a.T)
            r += di * dj
    return offsets[-1] - DenseMatrix.from_numpy(f, system).rank()


def _direct_sum(M, N, shift):
    """M (+) N[-shift]: N's piece k sits in degree shift + k, so for
    shift >= 1 the sum is not generated in degree 0."""
    f, n = M.field, M.n
    top = max(M.top_degree, shift + N.top_degree)

    def piece(X, k):
        return X.piece_dims[k] if 0 <= k <= X.top_degree else 0

    dims = tuple(piece(M, i) + piece(N, i - shift) for i in range(top + 1))
    actions = []
    for i in range(top):
        level = []
        for j in range(n + 1):
            a = zeros_array(f, (dims[i + 1], dims[i]))
            if i < M.top_degree:
                a[:piece(M, i + 1), :piece(M, i)] = M.actions[i][j].to_numpy()
            if 0 <= i - shift < N.top_degree:
                a[piece(M, i + 1):, piece(M, i):] = N.actions[i - shift][j].to_numpy()
            level.append(DenseMatrix.from_numpy(f, a))
        actions.append(tuple(level))
    return GradedEModule(n, f, dims, tuple(actions)).validate()


def _zero_action_module(n, field, dims):
    return GradedEModule(n, field, dims, tuple(
        tuple(DenseMatrix.zeros(field, dims[i + 1], dims[i]) for _ in range(n + 1))
        for i in range(len(dims) - 1)))


def _random_quotient(P, d, rng):
    """P modulo a random d-dimensional subspace of its top piece, or None
    when the drawn rows are dependent."""
    f = P.field
    rows = [[f.random_element(rng) for _ in range(P.piece_dims[-1])] for _ in range(d)]
    basis = DenseMatrix(f, rows, P.piece_dims[-1])
    if basis.rank() < d:
        return None
    return quotient_top(P, Subspace(basis))


def _grid_quotient(n, l, r, field, seed=0):
    p, dim_l = choose_parameters(n, l, r)
    L = sample_anchoring(field, p, comb(n + 1, l), dim_l, seed=seed)
    return quotient_top(free_truncated(p, l, n, field), L.subspace)


def _not_generated_in_degree_0(field):
    """Modules with generators above degree 0: direct sums with a shifted
    free module, and modules whose actions are zero."""
    rng = random.Random(11)
    Q = None
    while Q is None:
        Q = _random_quotient(free_truncated(2, 2, 3, field), 1, rng)
    return [
        _direct_sum(Q, free_truncated(1, 1, 3, field), 1),
        _direct_sum(free_truncated(1, 2, 3, field), free_truncated(2, 1, 3, field), 1),
        _direct_sum(free_truncated(1, 1, 3, field), free_truncated(1, 1, 3, field), 1),
        _direct_sum(Q, _zero_action_module(3, field, (1,)), 2),
        _zero_action_module(3, field, (2, 3, 1)),
    ]


def test_hom_dim_matches_stacked_system_on_the_grid():
    # All 20 grid quotients n in {3,4}, l in [1,n-1], r in [n,n+3].
    for n in (3, 4):
        for l in range(1, n):
            for r in range(n, n + 4):
                M = _grid_quotient(n, l, r, F)
                assert hom_space_dim(M) == _stacked_hom_space_dim(M) == 1, (n, l, r)


def test_hom_dim_is_the_anchoring_solution_dim_on_the_grid():
    # An endomorphism of M = P/L is phi_0 (x) 1 for a phi_0 in End(U) with
    # (phi_0 (x) 1)(L) inside L, so dim Hom(M, M) is the solution dimension of
    # the anchoring system, whether L anchors or not.  The anchors are random
    # at the grid's dimension, or random inside one U-block, u_0 (x) W, which
    # is fixed by every phi_0 that keeps the line of u_0.
    rng = random.Random(3)
    verdicts = []
    for field, ns in ((F, (3, 4)), (GF(5), (3, 4)), (GF(3), (3, 4)), (QQ, (3,))):
        for n in ns:
            for l in range(1, n):
                for r in range(n, n + 4):
                    p, d = choose_parameters(n, l, r)
                    w = comb(n + 1, l)
                    for width, k in ((p * w, d), (w, min(d, w))):
                        basis = None
                        while basis is None or basis.rank() < k:
                            basis = DenseMatrix(field, [[field.random_element(rng)
                                                         for _ in range(width)]
                                                        + [0] * (p * w - width)
                                                        for _ in range(k)], p * w)
                        L = AnchorProblem(p, w, Subspace(basis))
                        verdict = is_anchoring(L)
                        M = quotient_top(free_truncated(p, l, n, field), L.subspace)
                        assert hom_space_dim(M) == verdict.solution_dim, (field, n, l, r, k)
                        assert width == p * w or not verdict.anchors
                        verdicts.append(verdict.anchors)
    assert len(verdicts) == 136 and sum(verdicts) > 68


def test_hom_dim_matches_stacked_system_on_random_quotients():
    seen = []
    rng = random.Random(7)
    for q in (3, 5, 7):
        f = GF(q)
        for n, l, p in ((2, 1, 2), (2, 1, 3), (3, 1, 2), (3, 1, 3), (3, 2, 1), (3, 2, 2)):
            P = free_truncated(p, l, n, f)
            for d in 2 * list(range(1, P.piece_dims[-1])):
                Q = _random_quotient(P, d, rng)
                if Q is None:
                    continue
                got = hom_space_dim(Q)
                assert got == _stacked_hom_space_dim(Q), (q, n, l, p, d)
                seen.append(got)
    assert len(seen) > 200
    assert {1, 2, 3, 4} <= set(seen)


def test_hom_dim_of_modules_not_generated_in_degree_0():
    got = [hom_space_dim(M) for M in _not_generated_in_degree_0(GF(5))]
    assert got == [_stacked_hom_space_dim(M) for M in _not_generated_in_degree_0(GF(5))]
    # For F = free_truncated(1, 1, 3): End(F (+) F[-1]) is the two scalars
    # plus any map from F[-1]'s generator into F_1 (1 x 4); no map goes the
    # other way, since F_1 is generated by F_0 and F[-1] is zero in degree 0.
    # Zero actions leave every phi_i free.
    assert got[2] == 1 + 1 + 4
    assert got[4] == 2 * 2 + 3 * 3 + 1
    assert min(got) > 1


def test_hom_dim_over_qq_matches_stacked_system():
    rng = random.Random(4)
    row = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(12)]
    M = quotient_top(free_truncated(2, 2, 3, QQ), Subspace(DenseMatrix(QQ, [row], 12)))
    assert M.piece_dims == (2, 8, 11)
    assert hom_space_dim(M) == _stacked_hom_space_dim(M) == 1
    N = _direct_sum(free_truncated(1, 2, 3, QQ), free_truncated(2, 1, 3, QQ), 1)
    assert hom_space_dim(N) == _stacked_hom_space_dim(N) > 1


def test_hom_dim_scales_to_the_5_4_8_quotient():
    # The stacked system of this module would be 16224 x 3432.
    M = _grid_quotient(5, 4, 8, F, seed=42)
    assert M.piece_dims == (2, 12, 30, 40, 28)
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        dim = hom_space_dim(M)
        elapsed = time.perf_counter() - t0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dim == 1
    assert peak < 16 << 20, f"peak {peak / 2**20:.1f} MiB"
    assert elapsed < 10
