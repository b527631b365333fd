"""Circulant matrices stored by first column, with cached eigenvalues.

An order-n circulant matrix C is fully determined by its first column c:
entry (i, j) equals c[(i - j) mod n].  Every circulant is diagonalized by
the unitary Fourier matrix, so its eigenvalue vector is simply the forward
DFT of c.  The eigenvalues are computed once at construction, kept coherent
through every structure-preserving operation, and reused so that products,
powers, inverses and linear solves all run in O(n log n).

Values are immutable; operations return new objects.  Circulants sit at the
bottom of the promotion lattice (see _structured.py): circulant (op)
circulant stays circulant, for @ as well, and a Toeplitz operand turns the
result into a Toeplitz value (dense for @).
"""

from __future__ import annotations

import operator

import numpy as np

from ._structured import Structured, cyclic_reverse, entries_of, spectral_apply, spectrum_of
from ._util import as_vector, frozen, require_finite
from .dft import fourier_matrix
from .errors import SingularMatrixError
from .toeplitz import Toeplitz

__all__ = ["Circulant", "SINGULARITY_RTOL"]

# Relative spectral cutoff below which solve/inv/negative powers refuse to
# proceed: min |ev| <= SINGULARITY_RTOL * max |ev|.
SINGULARITY_RTOL = 1e-13


class Circulant(Structured):
    """Order-n circulant matrix, stored as first column plus eigenvalues."""

    __slots__ = ("_col", "_ev", "_singular")
    _rank = 0

    def __init__(self, col):
        c = require_finite(as_vector(col, "first column"), "first column")
        self._col = frozen(c.copy())
        self._ev = frozen(spectrum_of(self._col))
        self._singular = None

    @classmethod
    def _from_parts(cls, col, ev):
        """Internal constructor: `ev` must already equal the DFT of col to roundoff."""
        obj = cls.__new__(cls)
        obj._col = frozen(np.ascontiguousarray(col))
        obj._ev = frozen(np.ascontiguousarray(ev))
        obj._singular = None
        return obj

    # -- basic data ------------------------------------------------------

    @property
    def n(self) -> int:
        return self._col.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    @property
    def dtype(self):
        return self._col.dtype

    @property
    def isreal(self) -> bool:
        return not np.iscomplexobj(self._col)

    @property
    def col(self) -> np.ndarray:
        """First column (read-only view)."""
        return self._col

    @property
    def ev(self) -> np.ndarray:
        """Cached eigenvalue vector, the full DFT of col (read-only view)."""
        return self._ev

    def refresh(self) -> "Circulant":
        """Re-derive the eigenvalue cache from the column (accuracy recovery
        after long chains of spectrum-level updates)."""
        return Circulant(self._col)

    def __repr__(self):
        return f"Circulant(n={self.n}, dtype={self.dtype})"

    def __eq__(self, other):
        if isinstance(other, Circulant):
            return self.n == other.n and bool(np.array_equal(self._col, other._col))
        return NotImplemented

    # -- products and solves ---------------------------------------------

    def _apply(self, arr):
        """ev-diagonal application along axis 0 (two transforms)."""
        self._check_operand(arr)
        return spectral_apply(self._ev, arr, self.n, self.isreal and not np.iscomplexobj(arr))

    def matvec(self, x) -> np.ndarray:
        """Fast product C @ x using the cached spectrum."""
        return self._apply(as_vector(x, "vector"))

    def solve(self, b, side: str = "left") -> np.ndarray:
        """Solve C x = b (side='left') or x C = b (side='right').

        The right-hand side may be a vector or a matrix of stacked columns.
        Right division solves against the transposed spectrum instead of
        forming any inverse.
        """
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        arr = np.asarray(b)
        if arr.ndim == 1:
            arr = as_vector(b, "right-hand side")
        self._check_operand(arr, "right-hand side")
        spectrum = self._ev if side == "left" else cyclic_reverse(self._ev)
        self._check_nonsingular()
        return spectral_apply(spectrum, arr, self.n,
                              self.isreal and not np.iscomplexobj(arr), divide=True)

    def _check_nonsingular(self):
        # values are immutable, so the verdict (the error message, or "" for
        # nonsingular) is computed once; concurrent fills write equal strings
        if self._singular is None:
            mags = np.abs(self._ev)
            lo, hi = mags.min(), mags.max()
            self._singular = (
                "singular circulant: smallest eigenvalue magnitude "
                f"{lo:.3e} is below {SINGULARITY_RTOL:g} * {hi:.3e}"
                if lo <= SINGULARITY_RTOL * hi else ""
            )
        if self._singular:
            raise SingularMatrixError(self._singular)

    def inv(self) -> "Circulant":
        """Circulant inverse via reciprocal eigenvalues."""
        self._check_nonsingular()
        ev = 1.0 / self._ev
        return Circulant._from_parts(entries_of(ev, self.isreal), ev)

    def det(self):
        """Determinant, the product of the cached eigenvalues."""
        d = complex(np.prod(self._ev))
        return d.real if self.isreal else d

    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues and Fourier eigenvectors: C @ F[:, k] = ev[k] * F[:, k]."""
        return self._ev.copy(), fourier_matrix(self.n)

    def matrix_power(self, p: int) -> "Circulant":
        """Integer matrix power via entrywise powers of the spectrum."""
        if p != int(p):
            raise TypeError(f"matrix power requires an integer exponent, got {p!r}")
        p = int(p)
        if p < 0:
            self._check_nonsingular()
        ev = self._ev ** p
        return Circulant._from_parts(entries_of(ev, self.isreal), ev)

    # -- structure manipulation ------------------------------------------

    def transpose(self, conjugate: bool = False) -> "Circulant":
        """Transpose (or conjugate transpose); no transforms involved."""
        col = cyclic_reverse(self._col)
        if conjugate:
            return Circulant._from_parts(np.conj(col), np.conj(self._ev))
        return Circulant._from_parts(col, cyclic_reverse(self._ev))

    def to_toeplitz(self):
        """The same matrix as an n-by-n Toeplitz value."""
        n = self.n
        return Toeplitz.from_diagonals(self._entries(np.arange(1 - n, n)), n, n)

    # -- reductions --------------------------------------------------------

    def sum(self) -> np.ndarray:
        """Per-column sums; every column holds the same entries, so this is
        n copies of sum(col)."""
        return np.full(self.n, self._col.sum(), dtype=self.dtype)

    def prod(self) -> np.ndarray:
        """Per-column products (n copies of prod(col))."""
        return np.full(self.n, self._col.prod(), dtype=self.dtype)

    def tril(self, k: int = 0):
        """Lower-triangular part, returned as a Toeplitz value."""
        return self.to_toeplitz().tril(k)

    def triu(self, k: int = 0):
        """Upper-triangular part, returned as a Toeplitz value."""
        return self.to_toeplitz().triu(k)

    # -- hooks of the shared operator table (see _structured.py) -------------

    def _entries(self, lags):
        return self._col[np.mod(lags, self.n)]

    def _block(self, t, m, n):
        # the full slice gives back the circulant; any other block is Toeplitz
        if (m, n) == self.shape:
            return self
        return Toeplitz.from_diagonals(t, m, n)

    def _map(self, f):
        return Circulant(f(self._col))

    def _add_scalar(self, s):
        col = self._col + s
        ev = self._ev.astype(np.result_type(self._ev, type(s)), copy=True)
        ev[0] += self.n * s  # dft of a constant shifts only the DC term
        return Circulant._from_parts(col, ev)

    def _combine(self, op, other):
        if op is operator.mul:
            return Circulant(self._col * other._col)
        # + and - act linearly on the spectrum too
        return Circulant._from_parts(op(self._col, other._col), op(self._ev, other._ev))

    # -- operators ---------------------------------------------------------

    def __neg__(self):
        return Circulant._from_parts(-self._col, -self._ev)

    def scale(self, alpha) -> "Circulant":
        """alpha * C, updating column and spectrum without transforms."""
        return Circulant._from_parts(alpha * self._col, alpha * self._ev)

    def __matmul__(self, other):
        # circulant @ circulant is the one product that stays structured
        if not isinstance(other, Circulant):
            return super().__matmul__(other)
        self._check_operand(other)
        ev = self._ev * other._ev
        col = entries_of(ev, self.isreal and other.isreal)
        return Circulant._from_parts(col, ev)

    def __pow__(self, p):
        return self.matrix_power(p)
