"""Dense exact matrices over Q or F_p, plus subspaces given by basis rows.

A matrix stores its entries in one read-only numpy array: ``int64`` with
entries reduced into ``[0, p)`` over F_p, ``object`` holding ``Fraction``s
over Q.  Every operation is one numpy expression followed by a reduction mod
p, and returns a new matrix; the stored array is never written after
construction, so values can be shared freely across threads and
``to_numpy`` hands out the array itself.  The accessors (``m[i, j]``,
``row``, ``rows``, ``to_lists``) return Python ``int``/``Fraction`` scalars.

Dense elimination runs through one Gauss-Jordan loop, ``modp.echelon``:
every rank and every RREF, over both fields, call it.  The pipeline ranks a
Q anchor's anchoring system and strands mod ``bgg.CERTIFICATE_PRIME``; the
ranks left over Q are of subspace bases and of the anchoring systems of
``anchor.is_anchoring`` and ``commutant_dim``, up to 234 x 178 for the
``anchor`` command's annihilator at u=3, w=6, d=5.  The strands of the
cohomology tables never become a ``DenseMatrix``; ``sheafcoh`` ranks its
H^n row's from their nonzeros by ``modp.sparse_rank``.  Pivoting is always "first
nonzero in column order" so results are reproducible.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import modp
from .fields import PrimeField


class ShapeError(ValueError):
    """Raised when matrix dimensions do not line up."""


class FieldMismatchError(ValueError):
    """Raised when operands live over different scalar domains."""


class MalformedSubspaceError(ValueError):
    """Raised when the basis rows of a subspace are linearly dependent."""


def zeros_array(field, shape) -> np.ndarray:
    """A writable array of zeros in the storage dtype of ``field``."""
    if isinstance(field, PrimeField):
        return np.zeros(shape, dtype=np.int64)
    return np.full(shape, Fraction(0), dtype=object)


def _reduce(field, arr) -> np.ndarray:
    """``arr`` reduced into the canonical representatives of ``field``."""
    return arr % field.p if isinstance(field, PrimeField) else arr


class DenseMatrix:
    __slots__ = ("field", "_a")

    def __init__(self, field, rows, ncols=None):
        rows = [[field(x) for x in row] for row in rows]
        if rows:
            if any(len(r) != len(rows[0]) for r in rows):
                raise ShapeError("ragged rows")
            if ncols is not None and ncols != len(rows[0]):
                raise ShapeError("ncols does not match row length")
        elif ncols is None:
            raise ShapeError("empty matrix needs an explicit column count")
        arr = zeros_array(field, (len(rows), len(rows[0]) if rows else ncols))
        if rows:
            arr[:] = rows
        self._set(field, arr)

    def _set(self, field, arr):
        arr.setflags(write=False)
        self.field = field
        self._a = arr

    @classmethod
    def _wrap(cls, field, arr):
        """The matrix of ``arr``, whose entries are already canonical."""
        m = cls.__new__(cls)
        m._set(field, arr)
        return m

    # -- constructors --------------------------------------------------------

    @classmethod
    def zeros(cls, field, nrows, ncols):
        return cls._wrap(field, zeros_array(field, (nrows, ncols)))

    @classmethod
    def identity(cls, field, n):
        arr = zeros_array(field, (n, n))
        np.fill_diagonal(arr, field.one)
        return cls._wrap(field, arr)

    @classmethod
    def from_numpy(cls, field, arr):
        """The matrix of a 2-D array: integers reduced mod p over F_p,
        entries coerced to ``Fraction`` over Q."""
        arr = np.asarray(arr)
        if arr.ndim != 2:
            raise ShapeError(f"expected a 2-D array, got shape {arr.shape}")
        if isinstance(field, PrimeField):
            return cls._wrap(field, modp.reduced(arr, field.p))
        return cls(field, arr.tolist(), arr.shape[1])

    @classmethod
    def _stack(cls, mats, axis):
        mats = list(mats)
        if not mats:
            raise ShapeError("stack of nothing")
        f = mats[0].field
        for m in mats[1:]:
            if m.field != f:
                raise FieldMismatchError("stack over mixed fields")
            if m._a.shape[1 - axis] != mats[0]._a.shape[1 - axis]:
                raise ShapeError("stack with mismatched sizes")
        return cls._wrap(f, np.concatenate([m._a for m in mats], axis=axis))

    @classmethod
    def vstack(cls, mats):
        return cls._stack(mats, 0)

    @classmethod
    def hstack(cls, mats):
        return cls._stack(mats, 1)

    # -- basic access --------------------------------------------------------

    @property
    def nrows(self):
        return self._a.shape[0]

    @property
    def ncols(self):
        return self._a.shape[1]

    @property
    def shape(self):
        return self._a.shape

    def __getitem__(self, ij):
        return self._a.item(ij)

    def row(self, i):
        return tuple(self._a[i].tolist())

    def rows(self):
        return tuple(map(tuple, self._a.tolist()))

    def to_lists(self):
        return self._a.tolist()

    def to_numpy(self) -> np.ndarray:
        """The stored (read-only) array."""
        return self._a

    def __eq__(self, other):
        return (isinstance(other, DenseMatrix) and other.field == self.field
                and other.shape == self.shape and np.array_equal(other._a, self._a))

    def __hash__(self):
        if isinstance(self.field, PrimeField):
            return hash((self.field, self.shape, self._a.tobytes()))
        return hash((self.field, self.shape, tuple(self._a.ravel().tolist())))

    def __repr__(self):
        return f"DenseMatrix({self.field}, {self.nrows}x{self.ncols})"

    def is_zero(self) -> bool:
        return not self._a.any()

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, DenseMatrix):
            raise TypeError(f"expected DenseMatrix, got {type(other).__name__}")
        if other.field != self.field:
            raise FieldMismatchError(f"mixed scalar domains {self.field} and {other.field}")

    def _new(self, arr):
        return DenseMatrix._wrap(self.field, _reduce(self.field, arr))

    def __add__(self, other):
        self._check(other)
        if other.shape != self.shape:
            raise ShapeError(f"cannot add {self.shape} and {other.shape}")
        return self._new(self._a + other._a)

    def __sub__(self, other):
        self._check(other)
        if other.shape != self.shape:
            raise ShapeError(f"cannot subtract {other.shape} from {self.shape}")
        return self._new(self._a - other._a)

    def __neg__(self):
        return self._new(-self._a)

    def __matmul__(self, other):
        self._check(other)
        if self.ncols != other.nrows:
            raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
        f = self.field
        if self.ncols == 0:
            return DenseMatrix.zeros(f, self.nrows, other.ncols)
        if isinstance(f, PrimeField) and self.ncols * (f.p - 1) ** 2 >= 2**63:
            # A sum of ncols products of residues would overflow int64.
            raise OverflowError(f"{self.ncols} products mod {f.p} overflow int64")
        return self._new(self._a @ other._a)

    def transpose(self):
        return DenseMatrix._wrap(self.field, self._a.T)

    def kron(self, other):
        """Kronecker product ``self (x) other`` (row-major block layout)."""
        self._check(other)
        return self._new(np.kron(self._a, other._a))

    # -- elimination ---------------------------------------------------------

    def rank(self) -> int:
        f = self.field
        if isinstance(f, PrimeField):
            return modp.rank(self._a, f.p)
        # The transpose keeps anchoring systems' fractions small: ~10x faster at 234 x 178.
        return len(modp.echelon(self._a.T.copy(), None))

    def rref(self):
        """Reduced row echelon form; returns ``(R, pivot_columns)``.

        Zero rows are dropped, so ``R`` has exactly ``rank`` rows.
        """
        f = self.field
        if isinstance(f, PrimeField):
            arr, piv = modp.rref(self._a, f.p)
        else:
            arr = self._a.copy()
            piv = modp.echelon(arr, None, full=True)
        return DenseMatrix._wrap(f, arr[: len(piv)]), tuple(piv)

    def free_column_kernel(self):
        """Right-kernel vectors read off rref(self), one per non-pivot column
        k: e_k minus the entries of column k placed at the pivot columns."""
        f = self.field
        R, piv = self.rref()
        pivset = set(piv)
        free = [c for c in range(self.ncols) if c not in pivset]
        ker = zeros_array(f, (len(free), self.ncols))
        ker[np.arange(len(free)), free] = f.one
        ker[:, list(piv)] = _reduce(f, -R._a[:, free].T)
        return DenseMatrix._wrap(f, ker)

    def kernel_basis(self):
        """Basis of the right kernel, one vector per row, rref-normalized;
        ``ncols - rank`` rows."""
        ker = self.free_column_kernel()
        kerR, kpiv = ker.rref()
        assert len(kpiv) == ker.nrows, "kernel basis must be independent"
        return kerR

    def solve_right(self, B):
        """Some ``X`` with ``self @ X = B``, or ``None`` if inconsistent."""
        self._check(B)
        if B.nrows != self.nrows:
            raise ShapeError("right-hand side has wrong height")
        R, piv = DenseMatrix.hstack([self, B]).rref()
        if any(c >= self.ncols for c in piv):
            return None
        X = zeros_array(self.field, (self.ncols, B.ncols))
        X[list(piv)] = R._a[:, self.ncols:]
        return DenseMatrix._wrap(self.field, X)


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
