"""The paper's explicit anchoring tensor, kept as a reference construction.

A slice tensor built from shifted identity blocks plus a Burnside pair (two
matrices whose joint commutant is the scalars) has only scalar invariance
solutions, so the d vectors it packs span a subspace of U (x) W that anchors
U.  Such a subspace anchors but need not be faithful, so the pipeline draws
its anchors at random instead; the tests and demo 02 compare against this
construction.
"""

import random
from math import ceil

import numpy as np

from bggbundles.anchor import (SEARCH_BUDGET, AnchoringSearchError, AnchorProblem,
                               SliceTensor, pair_solution_dim)
from bggbundles.fields import PrimeField
from bggbundles.matrix import DenseMatrix, Subspace


class TensorContradictionError(RuntimeError):
    """Raised when a certified-rigid tensor yields dependent basis vectors."""


def commutant_dim(field, mats) -> int:
    """Dimension of {C : C M = M C for every M in mats} (all s x s): the pairs
    (A, C) with A V = V C for V in (I, *mats), where V = I forces A = C."""
    s = mats[0].nrows
    return pair_solution_dim(SliceTensor(s, s, (DenseMatrix.identity(field, s), *mats)))


def burnside_pair(field, s: int, seed: int = 0):
    """Two s x s matrices whose joint commutant is exactly the scalars.

    B1 is diag(1..s); B2 conjugates the same diagonal by a seeded random
    basis x, inverted through rref([x | I]) = [I | x^-1], retried until the
    exact commutant computation certifies dimension 1 (correctness never
    relies on genericity).
    """
    if s < 1:
        raise ValueError("size must be at least 1")
    if isinstance(field, PrimeField) and field.p <= s:
        raise ValueError(f"field with {field.p} elements cannot "
                         f"hold {s} distinct diagonal values")
    diag = DenseMatrix(field, [[i + 1 if i == j else 0 for j in range(s)]
                               for i in range(s)], s)
    if s == 1:
        return diag, diag
    rng = random.Random(seed)
    for _ in range(SEARCH_BUDGET):
        x = DenseMatrix(field, [[field.random_element(rng) for _ in range(s)]
                                for _ in range(s)], s)
        if x.rank() != s:
            continue
        R, _ = DenseMatrix.hstack([x, DenseMatrix.identity(field, s)]).rref()
        b2 = x @ diag @ DenseMatrix(field, [row[s:] for row in R.rows()], s)
        if commutant_dim(field, [diag, b2]) == 1:
            return diag, b2
    raise AnchoringSearchError(
        f"no Burnside pair of size {s} found in {SEARCH_BUDGET} attempts", [])


def anchoring_tensor(field, u: int, d: int, m: int) -> SliceTensor:
    """Explicit tensor whose only invariance solutions are scalar pairs.

    Requires m >= max(ceil(u/d), ceil(d/u)) + 2.  The first ceil(u/d) slices
    are shifted identity blocks, the last two embed a Burnside pair of size
    min(u, d); for u < d the construction is transposed.  The rigidity of the
    result is verified, not assumed.
    """
    if u < 1 or d < 1:
        raise ValueError("dimensions must be at least 1")
    need = max(ceil(u / d), ceil(d / u)) + 2
    if m < need:
        raise ValueError(f"need at least {need} slices for ({u}, {d}), got {m}")
    if u < d:
        flipped = anchoring_tensor(field, d, u, m)
        slices = tuple(s.transpose() for s in flipped.slices)
        T = SliceTensor(u, d, slices)
    else:
        z = field.zero
        slices = []
        nblocks = ceil(u / d)
        for a in range(nblocks):
            grid = [[z] * d for _ in range(u)]
            for t in range(min(d, u - a * d)):
                grid[a * d + t][t] = field.one
            slices.append(DenseMatrix(field, grid, d))
        for _ in range(nblocks, m - 2):
            slices.append(DenseMatrix.zeros(field, u, d))
        b1, b2 = burnside_pair(field, d)
        for b in (b1, b2):
            slices.append(DenseMatrix.vstack([b, DenseMatrix.zeros(field, u - d, d)]))
        T = SliceTensor(u, d, tuple(slices))
    dim = pair_solution_dim(T)
    if dim != 1:
        raise TensorContradictionError(
            f"explicit tensor for ({u}, {d}, {m}) has solution dimension {dim}")
    return T


def tensor_to_subspace(T: SliceTensor) -> AnchorProblem:
    """The anchoring subspace spanned by the d vectors packed in a rigid tensor."""
    if pair_solution_dim(T) != 1:
        raise ValueError("tensor is not rigid; refusing to build a subspace")
    w = T.w
    cube = np.stack([v.to_numpy() for v in T.slices])  # (a, i, mu)
    basis = DenseMatrix.from_numpy(T.field, cube.transpose(2, 1, 0).reshape(T.d, T.u * w))
    if basis.rank() != T.d:
        raise TensorContradictionError(
            "rigid tensor produced dependent vectors; a dependency would give "
            "a non-scalar solution")
    return AnchorProblem(T.u, w, Subspace(basis))
