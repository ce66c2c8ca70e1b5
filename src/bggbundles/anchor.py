"""Anchoring subspaces of a tensor product U (x) W.

A subspace L of U (x) W anchors U when the only endomorphisms phi of U with
(phi (x) 1)(L) inside L are the scalars.  This module verifies anchoring by
solving the invariant-subspace linear system exactly and searches for random
anchoring subspaces with verification.  The paper's explicit anchoring
tensor (shifted identity blocks plus a Burnside pair) anchors but need not
be faithful, so the pipeline never builds it; it is kept in
``tests/explicit_anchor.py`` as a reference.

Index convention: a vector of U (x) W is flattened as (i, a) -> i*w + a where
i indexes U and a indexes W.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .matrix import DenseMatrix, MalformedSubspaceError, ShapeError, Subspace

SEARCH_BUDGET = 32  # candidates a randomized search draws before it gives up


class AnchoringSearchError(RuntimeError):
    """Raised when the randomized search exhausts ``SEARCH_BUDGET``."""

    def __init__(self, message, failures):
        super().__init__(message)
        self.failures = failures


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
