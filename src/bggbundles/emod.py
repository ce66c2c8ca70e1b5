"""Finitely generated graded modules over the exterior algebra.

A module is presented by its graded piece dimensions P_0..P_c together with
the matrices of multiplication by each generator e_j between consecutive
pieces.  Every module used by the bundle construction is a top-piece quotient
of a truncated free module, so this closed-form presentation suffices and
makes every check pure linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .extalg import generator_action
from .matrix import DenseMatrix, MalformedSubspaceError, ShapeError, Subspace, zeros_array


class ModuleInvariantError(ValueError):
    """Raised when the exterior-algebra relations fail on a presentation."""


@dataclass(frozen=True)
class GradedEModule:
    """Graded module with pieces P_0..P_c and generator actions.

    ``actions[i][j]`` is the matrix of e_j : P_i -> P_(i+1); there are n+1
    generators and c composition levels.
    """

    n: int
    field: object
    piece_dims: tuple
    actions: tuple  # actions[i] = tuple over j of DenseMatrix

    @property
    def top_degree(self) -> int:
        return len(self.piece_dims) - 1

    def action(self, j: int, i: int) -> DenseMatrix:
        return self.actions[i][j]

    def validate(self):
        """Assert shapes, positivity of P_0 and the exterior relations."""
        c = self.top_degree
        if self.piece_dims[0] <= 0:
            raise ModuleInvariantError("module must start with a nonzero 0th piece")
        if len(self.actions) != c:
            raise ModuleInvariantError("one action level per consecutive piece pair")
        for i in range(c):
            for j in range(self.n + 1):
                a = self.actions[i][j]
                if a.shape != (self.piece_dims[i + 1], self.piece_dims[i]):
                    raise ModuleInvariantError(f"action ({j},{i}) has shape {a.shape}")
        for i in range(c - 1):
            for j in range(self.n + 1):
                for k in range(j, self.n + 1):
                    anti = (self.actions[i + 1][j] @ self.actions[i][k]
                            + self.actions[i + 1][k] @ self.actions[i][j])
                    if not anti.is_zero():
                        raise ModuleInvariantError(
                            f"anticommutation fails at degree {i} for generators {j},{k}")
        return self


def free_truncated(p: int, l: int, n: int, field) -> GradedEModule:
    """The rank-p free module truncated at degree l: P_0 (x) (wedge^0..wedge^l V)."""
    if p < 1:
        raise ValueError("multiplicity must be at least 1")
    if not (1 <= l <= n):
        raise ValueError(f"top degree {l} must lie in [1, {n}]")
    eye = DenseMatrix.identity(field, p)
    dims = tuple(p * comb(n + 1, i) for i in range(l + 1))
    actions = tuple(
        tuple(eye.kron(generator_action(j, i, n, field)) for j in range(n + 1))
        for i in range(l)
    )
    return GradedEModule(n, field, dims, actions)


def quotient_map(L: Subspace) -> DenseMatrix:
    """Coordinate projection onto the echelon-pivot complement of L.

    Its rows are the free-column kernel vectors of L's basis: the complement
    is spanned by the coordinates that are not pivot columns of rref(L),
    which makes the quotient deterministic and cheap to re-derive.
    """
    return L.basis.free_column_kernel()


def quotient_top(P: GradedEModule, L: Subspace) -> GradedEModule:
    """Quotient of P by a subspace L of its top piece.

    dim L = dim P_c drops the top piece entirely (degenerate, the pipeline
    rejects it); dim L = 0 returns P itself.
    """
    c = P.top_degree
    if L.ambient_dim != P.piece_dims[c]:
        raise ShapeError(f"subspace lives in dimension {L.ambient_dim}, "
                         f"top piece has dimension {P.piece_dims[c]}")
    if L.field != P.field:
        raise MalformedSubspaceError("subspace over the wrong field")
    if L.dim == 0:
        return P
    if L.dim == P.piece_dims[c]:
        return GradedEModule(P.n, P.field, P.piece_dims[:-1], P.actions[:-1])
    q = quotient_map(L)
    assert (q @ L.basis.transpose()).is_zero()
    new_top = tuple(q @ a for a in P.actions[c - 1])
    return GradedEModule(P.n, P.field, P.piece_dims[:-1] + (q.nrows,),
                         P.actions[:-1] + (new_top,))


def chi(P: GradedEModule) -> tuple:
    """Alternating partial sums chi_i = sum_{j<=i} (-1)^(j-i) dim P_j."""
    out = []
    prev = 0
    for d in P.piece_dims:
        prev = d - prev
        out.append(prev)
    return tuple(out)


def hom_space_dim(P: GradedEModule) -> int:
    """Dimension of the space of graded module endomorphisms of P.

    A tuple (phi_i : P_i -> P_i) is an endomorphism iff it intertwines every
    generator action; the intertwining conditions form one stacked linear
    system in the entries of all phi_i, and the answer is its kernel dimension.
    """
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
            # vec(A phi_i) = (A (x) I) vec(phi_i).  Reduced mod p below.
            a = a.to_numpy()
            system[r:r + di * dj, offsets[i]:offsets[i + 1]] = -np.kron(a, eye_i)
            system[r:r + di * dj, offsets[i + 1]:offsets[i + 2]] = np.kron(eye_j, a.T)
            r += di * dj
    dim = offsets[-1] - DenseMatrix.from_numpy(f, system).rank()
    assert dim >= 1, "identity endomorphism lost"
    return dim
