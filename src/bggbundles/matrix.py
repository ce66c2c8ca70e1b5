"""Dense exact matrices over Q or F_p, plus subspaces given by basis rows.

Matrices are immutable after construction and all operations are pure, so
values can be shared freely across threads.  Elimination strategy follows the
scalar domain: fraction-free (Bareiss) elimination over Q for ranks, plain
elimination over F_p (vectorized through :mod:`bggbundles.modp`).  Pivoting is
always "first nonzero in column order" so results are reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple

import numpy as np

from . import modp
from .fields import QQ, PrimeField


class ShapeError(ValueError):
    """Raised when matrix dimensions do not line up."""


class FieldMismatchError(ValueError):
    """Raised when operands live over different scalar domains."""


class MalformedSubspaceError(ValueError):
    """Raised when the basis rows of a subspace are linearly dependent."""


class DenseMatrix:
    __slots__ = ("field", "nrows", "ncols", "_rows")

    def __init__(self, field, rows, ncols=None, *, _raw=False):
        if _raw:
            # Entries are trusted, but normalize the containers so equality
            # and hashing never depend on how a caller assembled the rows.
            self._rows = tuple(r if type(r) is tuple else tuple(r) for r in rows)
        else:
            self._rows = tuple(tuple(field(x) for x in row) for row in rows)
        self.field = field
        self.nrows = len(self._rows)
        if self.nrows:
            self.ncols = len(self._rows[0])
            if any(len(r) != self.ncols for r in self._rows):
                raise ShapeError("ragged rows")
            if ncols is not None and ncols != self.ncols:
                raise ShapeError("ncols does not match row length")
        else:
            if ncols is None:
                raise ShapeError("empty matrix needs an explicit column count")
            self.ncols = ncols

    # -- constructors --------------------------------------------------------

    @classmethod
    def zeros(cls, field, nrows, ncols):
        z = field.zero
        return cls(field, tuple(tuple(z for _ in range(ncols)) for _ in range(nrows)),
                   ncols, _raw=True)

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero, field.one
        return cls(field, tuple(tuple(o if i == j else z for j in range(n))
                                for i in range(n)), n, _raw=True)

    @classmethod
    def from_numpy(cls, field, arr):
        return cls(field, tuple(tuple(int(x) % field.p for x in row) for row in arr),
                   arr.shape[1] if arr.ndim == 2 else 0, _raw=True)

    @classmethod
    def vstack(cls, mats):
        mats = list(mats)
        if not mats:
            raise ShapeError("vstack of nothing")
        f = mats[0].field
        ncols = mats[0].ncols
        for m in mats[1:]:
            if m.field != f:
                raise FieldMismatchError("vstack over mixed fields")
            if m.ncols != ncols:
                raise ShapeError("vstack with mismatched widths")
        rows = tuple(r for m in mats for r in m._rows)
        return cls(f, rows, ncols, _raw=True)

    @classmethod
    def hstack(cls, mats):
        mats = list(mats)
        if not mats:
            raise ShapeError("hstack of nothing")
        f = mats[0].field
        nrows = mats[0].nrows
        for m in mats[1:]:
            if m.field != f:
                raise FieldMismatchError("hstack over mixed fields")
            if m.nrows != nrows:
                raise ShapeError("hstack with mismatched heights")
        rows = tuple(tuple(x for m in mats for x in m._rows[i]) for i in range(nrows))
        return cls(f, rows, sum(m.ncols for m in mats), _raw=True)

    # -- basic access --------------------------------------------------------

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def __getitem__(self, ij):
        i, j = ij
        return self._rows[i][j]

    def row(self, i):
        return self._rows[i]

    def rows(self):
        return self._rows

    def to_lists(self):
        return [list(r) for r in self._rows]

    def to_numpy(self) -> np.ndarray:
        if not isinstance(self.field, PrimeField):
            raise FieldMismatchError("numpy view only for prime fields")
        return np.array([[int(x) for x in r] for r in self._rows],
                        dtype=np.int64).reshape(self.nrows, self.ncols)

    def __eq__(self, other):
        return (isinstance(other, DenseMatrix) and other.field == self.field
                and other._rows == self._rows and other.ncols == self.ncols)

    def __hash__(self):
        return hash((self.field, self.ncols, self._rows))

    def __repr__(self):
        return f"DenseMatrix({self.field}, {self.nrows}x{self.ncols})"

    def is_zero(self) -> bool:
        z = self.field.is_zero
        return all(z(x) for r in self._rows for x in r)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, DenseMatrix):
            raise TypeError(f"expected DenseMatrix, got {type(other).__name__}")
        if other.field != self.field:
            raise FieldMismatchError(f"mixed scalar domains {self.field} and {other.field}")

    def __add__(self, other):
        self._check(other)
        if other.shape != self.shape:
            raise ShapeError(f"cannot add {self.shape} and {other.shape}")
        add = self.field.add
        rows = tuple(tuple(add(a, b) for a, b in zip(ra, rb))
                     for ra, rb in zip(self._rows, other._rows))
        return DenseMatrix(self.field, rows, self.ncols, _raw=True)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        neg = self.field.neg
        rows = tuple(tuple(neg(x) for x in r) for r in self._rows)
        return DenseMatrix(self.field, rows, self.ncols, _raw=True)

    def scale(self, c):
        c = self.field(c)
        mul = self.field.mul
        rows = tuple(tuple(mul(c, x) for x in r) for r in self._rows)
        return DenseMatrix(self.field, rows, self.ncols, _raw=True)

    def __matmul__(self, other):
        self._check(other)
        if self.ncols != other.nrows:
            raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
        f = self.field
        if isinstance(f, PrimeField) and self.nrows * self.ncols * other.ncols > 4096:
            prod = self.to_numpy().astype(object) @ other.to_numpy().astype(object) \
                if f.p * f.p * max(1, self.ncols) >= 2**63 else \
                (self.to_numpy() @ other.to_numpy()) % f.p
            return DenseMatrix.from_numpy(f, np.asarray(prod, dtype=np.int64) % f.p)
        add, mul, z = f.add, f.mul, f.zero
        bt = tuple(zip(*other._rows)) if other.nrows else ()
        out = []
        for ra in self._rows:
            row = []
            for cb in (bt if other.nrows else []):
                s = z
                for a, b in zip(ra, cb):
                    s = add(s, mul(a, b))
                row.append(s)
            if other.nrows == 0:
                row = [z] * other.ncols
            out.append(tuple(row))
        return DenseMatrix(f, tuple(out), other.ncols, _raw=True)

    def transpose(self):
        rows = tuple(zip(*self._rows)) if self.nrows else tuple(() for _ in range(0))
        if self.nrows == 0:
            return DenseMatrix.zeros(self.field, self.ncols, 0)
        return DenseMatrix(self.field, rows, self.nrows, _raw=True)

    def kron(self, other):
        """Kronecker product ``self (x) other`` (row-major block layout)."""
        self._check(other)
        mul = self.field.mul
        rows = []
        for ra in self._rows:
            for rb in other._rows:
                rows.append(tuple(mul(a, b) for a in ra for b in rb))
        return DenseMatrix(self.field, tuple(rows), self.ncols * other.ncols, _raw=True)

    # -- elimination ---------------------------------------------------------

    def rank(self) -> int:
        if self.nrows == 0 or self.ncols == 0:
            return 0
        f = self.field
        if isinstance(f, PrimeField):
            return modp.rank(self.to_numpy(), f.p)
        return _rank_bareiss(self._rows)

    def rref(self):
        """Reduced row echelon form; returns ``(R, pivot_columns)``.

        Zero rows are dropped, so ``R`` has exactly ``rank`` rows.
        """
        f = self.field
        if self.nrows == 0 or self.ncols == 0:
            return DenseMatrix.zeros(f, 0, self.ncols), ()
        if isinstance(f, PrimeField):
            arr, piv = modp.rref(self.to_numpy(), f.p)
            return DenseMatrix.from_numpy(f, arr[: len(piv)]), tuple(piv)
        rows, piv = _rref_fraction(self._rows)
        return DenseMatrix(f, rows, self.ncols, _raw=True), tuple(piv)

    def free_column_kernel(self):
        """Right-kernel vectors read off rref(self), one per non-pivot column
        k: e_k minus the entries of column k placed at the pivot columns."""
        f = self.field
        R, piv = self.rref()
        pivset = set(piv)
        rows = []
        for k in (c for c in range(self.ncols) if c not in pivset):
            v = [f.zero] * self.ncols
            v[k] = f.one
            for t, c in enumerate(piv):
                v[c] = f.neg(R[t, k])
            rows.append(tuple(v))
        return DenseMatrix(f, tuple(rows), self.ncols, _raw=True)

    def kernel_basis(self):
        """Basis of the right kernel, one vector per row, rref-normalized;
        ``ncols - rank`` rows."""
        ker = self.free_column_kernel()
        kerR, kpiv = ker.rref()
        assert len(kpiv) == ker.nrows, "kernel basis must be independent"
        return kerR

    def solve_right(self, B):
        """Some ``X`` with ``self @ X = B``, or ``None`` if inconsistent.

        The returned object carries the particular solution together with the
        kernel basis of ``self`` so callers can enumerate all solutions.
        """
        self._check(B)
        if B.nrows != self.nrows:
            raise ShapeError("right-hand side has wrong height")
        aug = DenseMatrix.hstack([self, B])
        R, piv = aug.rref()
        if any(c >= self.ncols for c in piv):
            return None
        z = self.field.zero
        X = [[z] * B.ncols for _ in range(self.ncols)]
        for t, c in enumerate(piv):
            for j in range(B.ncols):
                X[c][j] = R[t, self.ncols + j]
        X = DenseMatrix(self.field, tuple(tuple(r) for r in X), B.ncols, _raw=True)
        return Solution(X, self.kernel_basis())


class Solution(NamedTuple):
    particular: DenseMatrix
    kernel: DenseMatrix


def _rref_fraction(rows):
    """Generic exact rref on tuples of Fractions; returns (rows, pivots)."""
    a = [list(r) for r in rows]
    nrows = len(a)
    ncols = len(a[0])
    piv = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        sel = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if sel is None:
            continue
        a[r], a[sel] = a[sel], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        piv.append(c)
        r += 1
    return tuple(tuple(x) for x in a[: len(piv)]), piv


def _rank_bareiss(rows) -> int:
    """Rank over Q via fraction-free Bareiss elimination on cleared rows."""
    a = []
    for r in rows:
        m = lcm(*(x.denominator for x in r)) if r else 1
        a.append([int(x * m) for x in r])
    nrows = len(a)
    ncols = len(a[0])
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        sel = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if sel is None:
            continue
        a[r], a[sel] = a[sel], a[r]
        pivot = a[r][c]
        for i in range(r + 1, nrows):
            f = a[i][c]
            a[i] = [(pivot * x - f * y) // prev for x, y in zip(a[i], a[r])]
        prev = pivot
        r += 1
    return r


class Subspace:
    """A subspace of k^m presented by independent basis rows."""

    __slots__ = ("basis",)

    def __init__(self, basis: DenseMatrix):
        if basis.nrows and basis.rank() != basis.nrows:
            raise MalformedSubspaceError("basis rows are linearly dependent")
        self.basis = basis

    @property
    def field(self):
        return self.basis.field

    @property
    def dim(self) -> int:
        return self.basis.nrows

    @property
    def ambient_dim(self) -> int:
        return self.basis.ncols

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def sum_intersection_dims(L1: Subspace, L2: Subspace):
    """Dimensions ``(dim(L1+L2), dim(L1 n L2))`` of sum and intersection."""
    if L1.field != L2.field:
        raise FieldMismatchError("subspaces over different fields")
    if L1.ambient_dim != L2.ambient_dim:
        raise ShapeError("subspaces in different ambient spaces")
    if L1.dim == 0 and L2.dim == 0:
        return 0, 0
    stack = DenseMatrix.vstack([m for m in (L1.basis, L2.basis) if m.nrows])
    s = stack.rank()
    inter = L1.dim + L2.dim - s
    # Cross-check through the kernel route: pairs (x, y) with x*B1 = y*B2.
    assert stack.transpose().kernel_basis().nrows == inter
    return s, inter
