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
from .matrix import DenseMatrix, MalformedSubspaceError, ShapeError, Subspace


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
            bad = anticommutation_failure(self.actions[i + 1], self.actions[i])
            if bad:
                raise ModuleInvariantError(
                    f"anticommutation fails at degree {i} for generators {bad[0]},{bad[1]}")
        return self


def anticommutation_failure(outer, inner):
    """The first (j, k) with j <= k where ``outer[j] @ inner[k] + outer[k] @
    inner[j]`` is nonzero, or None: the relations e_j e_k = -e_k e_j between
    the generator maps ``inner`` into a piece and ``outer`` out of it."""
    m = len(inner)
    return next(((j, k) for j in range(m) for k in range(j, m)
                 if not (outer[j] @ inner[k] + outer[k] @ inner[j]).is_zero()), None)


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
    # Coordinate projection onto the echelon-pivot complement of L.  Its rows
    # are the free-column kernel vectors of L's basis: the complement is
    # spanned by the coordinates that are not pivot columns of rref(L), which
    # makes the quotient deterministic and cheap to re-derive.
    q = L.basis.free_column_kernel()
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

    A tuple (phi_i : P_i -> P_i) is an endomorphism iff, at every level i,

        phi_(i+1) B_i = [A_(i,0) phi_i | ... | A_(i,n) phi_i],
        B_i = [A_(i,0) | ... | A_(i,n)]  (d_(i+1) x (n+1) d_i),

    so the solutions are found one degree at a time.  A basis of the
    solutions on levels <= i is carried as t_i parameter vectors, each
    stored with its phi_i; t_0 = d_0^2.  One rref of [B_i | I] gives B_i's
    echelon form R, the transform E with E B_i = R, and the left kernel K of
    B_i (the rows whose B_i part is zero).  A right-hand side C is reached
    iff C = Y R, where Y is C read at R's pivot columns, and then the
    solutions are phi_(i+1) = Y E + W K for any W.  So the consistency
    condition C - Y R = 0 cuts the parameters down to one kernel, each
    surviving vector gets phi_(i+1) = Y E, and d_(i+1) dim K new parameters
    phi_(i+1) = W K (zero below) are added; t_(i+1) counts both and the
    answer is t_c.  The W K terms make this exact for any module: they are
    the maps that vanish on the image of P_i, the freedom left on a piece
    not generated by the one below.  A module generated in degree 0 has
    every B_i onto, K = 0 and t_i <= d_0^2.
    """
    f = P.field
    dims = P.piece_dims
    basis = DenseMatrix.identity(f, dims[0] ** 2)  # row k: phi_i of solution k
    for i, acts in enumerate(P.actions):
        di, dj = dims[i], dims[i + 1]
        m = len(acts) * di
        red, piv = DenseMatrix.hstack([*acts, DenseMatrix.identity(f, dj)]).rref()
        r = sum(c < m for c in piv)
        red = red.to_numpy()
        R, E, K = (DenseMatrix.from_numpy(f, b)
                   for b in (red[:r, :m], red[:r, m:], red[r:, m:]))
        t = basis.nrows
        phi = basis.to_numpy().reshape(t, di, di)
        # Row (k, a) of rhs is row a of [A_(i,0) phi_k | ... | A_(i,n) phi_k].
        rhs = np.concatenate([a.to_numpy() @ phi for a in acts], axis=2)
        rhs = DenseMatrix.from_numpy(f, rhs.reshape(t * dj, m))
        Y = DenseMatrix.from_numpy(f, rhs.to_numpy()[:, list(piv[:r])])
        gap = (rhs - Y @ R).to_numpy().reshape(t, dj * m)
        consistent = DenseMatrix.from_numpy(f, gap.T).free_column_kernel()
        reached = DenseMatrix.from_numpy(f, (Y @ E).to_numpy().reshape(t, dj * dj))
        basis = DenseMatrix.vstack([consistent @ reached,
                                    DenseMatrix.identity(f, dj).kron(K)])
    dim = basis.nrows
    assert dim >= 1, "identity endomorphism lost"
    return dim
