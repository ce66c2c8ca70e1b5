"""Anchoring subspaces of a tensor product U (x) W.

A subspace L of U (x) W anchors U when the only endomorphisms phi of U with
(phi (x) 1)(L) inside L are the scalars.  This module verifies anchoring by
solving the invariant-subspace linear system exactly, constructs explicit
anchoring subspaces from shifted identity blocks plus a Burnside pair, and
searches for random anchoring subspaces with verification.

Index convention: a vector of U (x) W is flattened as (i, a) -> i*w + a where
i indexes U and a indexes W.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import ceil

import numpy as np

from .matrix import DenseMatrix, MalformedSubspaceError, ShapeError, Subspace

SEARCH_BUDGET = 32  # candidates a randomized search draws before it gives up


class AnchoringSearchError(RuntimeError):
    """Raised when the randomized search exhausts ``SEARCH_BUDGET``."""

    def __init__(self, message, failures):
        super().__init__(message)
        self.failures = failures


class TensorContradictionError(RuntimeError):
    """Raised when a certified-rigid tensor yields dependent basis vectors."""


@dataclass(frozen=True)
class SliceTensor:
    """A tensor v_(i, mu, a) stored as w slice matrices of shape u x d."""

    u: int
    d: int
    slices: tuple  # tuple of DenseMatrix, one per W-basis index

    @property
    def w(self) -> int:
        return len(self.slices)

    @property
    def field(self):
        return self.slices[0].field

    def __post_init__(self):
        if not self.slices:
            raise ShapeError("tensor needs at least one slice")
        for s in self.slices:
            if s.shape != (self.u, self.d):
                raise ShapeError(f"slice of shape {s.shape}, expected ({self.u}, {self.d})")
            if s.field != self.slices[0].field:
                raise MalformedSubspaceError("slices over mixed fields")


@dataclass(frozen=True)
class AnchorProblem:
    """A d-dimensional subspace of U (x) W with dim U = u, dim W = w."""

    u: int
    w: int
    subspace: Subspace

    def __post_init__(self):
        if self.subspace.ambient_dim != self.u * self.w:
            raise ShapeError(f"ambient dimension {self.subspace.ambient_dim} "
                             f"is not u*w = {self.u * self.w}")

    @property
    def d(self) -> int:
        return self.subspace.dim

    @property
    def field(self):
        return self.subspace.field


@dataclass(frozen=True)
class AnchorVerdict:
    anchors: bool
    solution_dim: int

    def __bool__(self):
        return self.anchors


def pair_solution_dim(T: SliceTensor) -> int:
    """Dimension of the pairs (A, C) with A V_a = V_a C for every slice.

    Always at least 1: the identity pair is a solution.
    """
    f = T.field
    u, d = T.u, T.d
    eye_u = DenseMatrix.identity(f, u)
    eye_d = DenseMatrix.identity(f, d)
    rows = []
    for v in T.slices:
        # Row-major vec: vec(A V) = (I_u (x) V^T) vec(A), vec(V C) = (V (x) I_d) vec(C).
        rows.append(DenseMatrix.hstack([eye_u.kron(v.transpose()), -(v.kron(eye_d))]))
    system = DenseMatrix.vstack(rows)
    dim = u * u + d * d - system.rank()
    assert dim >= 1, "identity pair lost"
    return dim


def slices_from_subspace(P: AnchorProblem) -> SliceTensor:
    """Repackage the basis rows of L as W-indexed slice matrices."""
    cube = P.subspace.basis.to_numpy().reshape(P.d, P.u, P.w)
    return SliceTensor(P.u, P.d, tuple(DenseMatrix.from_numpy(P.field, cube[:, :, a].T)
                                       for a in range(P.w)))


def is_anchoring(P: AnchorProblem) -> AnchorVerdict:
    """Decide whether L anchors U, with the invariant-endomorphism dimension.

    Since the basis rows are independent, the matrix C in the invariance
    system is determined by phi, so the pair-solution dimension equals the
    dimension of admissible phi; L anchors U iff that dimension is 1.  The
    zero subspace is fixed by every phi, so d = 0 anchors only when u = 1.
    """
    if P.d == 0:
        return AnchorVerdict(P.u == 1, P.u * P.u)
    dim = pair_solution_dim(slices_from_subspace(P))
    return AnchorVerdict(dim == 1, dim)


def commutant_dim(field, mats) -> int:
    """Dimension of {C : C M = M C for every M in mats} (all s x s): the pairs
    (A, C) with A V = V C for V in (I, *mats), where V = I forces A = C."""
    s = mats[0].nrows
    return pair_solution_dim(SliceTensor(s, s, (DenseMatrix.identity(field, s), *mats)))


def burnside_pair(field, s: int, seed: int = 0):
    """Two s x s matrices whose joint commutant is exactly the scalars.

    B1 is diag(1..s); B2 conjugates the same diagonal by a seeded random
    basis, retried until the exact commutant computation certifies dimension
    1 (correctness never relies on genericity).
    """
    if s < 1:
        raise ValueError("size must be at least 1")
    if 0 < field.characteristic <= s:
        raise ValueError(f"field with {field.characteristic} elements cannot "
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
        b2 = x @ diag @ x.solve_right(DenseMatrix.identity(field, s))
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


def annihilator(P: AnchorProblem) -> AnchorProblem:
    """The (u*w - d)-dimensional space of linear forms vanishing on L.

    Lives in the dual tensor product with the same flattening convention.
    """
    if P.d == 0:
        basis = DenseMatrix.identity(P.field, P.u * P.w)
    else:
        basis = P.subspace.basis.kernel_basis()
    return AnchorProblem(P.u, P.w, Subspace(basis))


def general_position_range(u: int, w: int):
    """Open interval of dimensions d for which random subspaces should anchor."""
    from fractions import Fraction
    lo = Fraction(2 * u, w)
    return lo, u * w - lo


def draw_subspace(field, u: int, w: int, d: int, rng) -> AnchorProblem | None:
    """A d-dimensional subspace of U (x) W spanned by d rows drawn from ``rng``,
    or None if the rows are dependent.  Whether it anchors is not checked."""
    rows = [[field.random_element(rng) for _ in range(u * w)] for _ in range(d)]
    try:
        return AnchorProblem(u, w, Subspace(DenseMatrix(field, rows, u * w)))
    except MalformedSubspaceError:  # Subspace refuses dependent rows
        return None


def sample_anchoring(field, u: int, w: int, d: int, seed: int = 0) -> AnchorProblem:
    """A seeded random d-dimensional subspace verified to anchor U.

    For u > 1 requires w >= 4 and d strictly inside the general-position
    interval; for u = 1 any d is trivially anchoring, and d = 0 gives the
    zero subspace.  Each of at most ``SEARCH_BUDGET`` candidates is checked
    exactly; failure statistics ride along on the error.
    """
    if u > 1:
        if w < 4:
            raise ValueError("need dim W >= 4 when dim U > 1")
        lo, hi = general_position_range(u, w)
        if not (lo < d < hi):
            raise ValueError(f"dimension {d} outside the open interval ({lo}, {hi})")
    rng = random.Random(seed)
    failures = []
    for attempt in range(SEARCH_BUDGET):
        prob = draw_subspace(field, u, w, d, rng)
        if prob is None:
            failures.append((attempt, "dependent sample"))
            continue
        verdict = is_anchoring(prob)
        if verdict.anchors:
            return prob
        failures.append((attempt, f"solution dimension {verdict.solution_dim}"))
    raise AnchoringSearchError(
        f"no anchoring subspace for (u={u}, w={w}, d={d}) in {SEARCH_BUDGET} attempts",
        failures)
