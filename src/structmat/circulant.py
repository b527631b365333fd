"""Circulant matrices stored by first column, with cached eigenvalues.

An order-n circulant matrix C is fully determined by its first column c:
entry (i, j) equals c[(i - j) mod n].  Every circulant is diagonalized by
the unitary Fourier matrix, so its eigenvalue vector is simply the forward
DFT of c, stored at full length (see dft.py, whose kernels run every
product and solve).  The eigenvalues are computed once at construction,
kept coherent through every structure-preserving operation, and reused so
that products, powers, inverses and linear solves all run in O(n log n).
Every value's column is finite: the constructor checks its input, and a
derived value (a product, power, inverse, map or shift) whose column
overflows raises ValueError.  So is its spectrum, computed or carried,
which can overflow from a finite column (`Circulant([1e308, 1e308])`).

Values are immutable; operations return new objects.  Circulants sit at the
bottom of the promotion lattice (see _structured.py): circulant (op)
circulant stays circulant, for @ as well, and a Toeplitz operand turns the
result into a Toeplitz value (dense for @).
"""

from __future__ import annotations

import numpy as np

from ._structured import Structured, cyclic_reverse
from ._util import as_operand, frozen, require_finite
from .dft import entries_of, fourier_matrix, spectral_apply, spectrum_of
from .errors import SingularMatrixError
from .toeplitz import Toeplitz

__all__ = ["Circulant", "SINGULARITY_RTOL"]

# Relative spectral cutoff below which solve/inv/negative powers refuse to
# proceed: min |ev| <= SINGULARITY_RTOL * max |ev|.
SINGULARITY_RTOL = 1e-13


class Circulant(Structured):
    """Order-n circulant matrix, stored as first column plus eigenvalues."""

    __slots__ = ("_singular",)
    _rank = 0

    def __init__(self, col):
        c = require_finite(as_operand(col, "first column"), "first column")
        self._fill(c.copy())

    def _fill(self, col, ev=None):
        """Write every slot: the one step of each constructor and of `_like`.
        A given `ev`, which must equal the DFT of col to roundoff, is carried
        as is; with none the column is transformed.  Returns self."""
        self._data = frozen(np.ascontiguousarray(col))
        ev = spectrum_of(self._data) if ev is None else np.ascontiguousarray(ev)
        self._spec = frozen(require_finite(ev, "spectrum"))
        self._singular = None
        return self

    @classmethod
    def _from_spectrum(cls, ev, real):
        """Internal constructor: the circulant whose eigenvalues are `ev`;
        `real` says that they belong to a real column, which must be finite."""
        col = require_finite(entries_of(ev, real), "first column")
        return cls.__new__(cls)._fill(col, ev)

    # -- basic data ------------------------------------------------------

    @property
    def n(self) -> int:
        return self._data.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    @property
    def col(self) -> np.ndarray:
        """First column (read-only view)."""
        return self._data

    @property
    def ev(self) -> np.ndarray:
        """Cached eigenvalue vector, the full DFT of col (read-only view)."""
        return self._spec

    def refresh(self) -> "Circulant":
        """Re-derive the eigenvalue cache from the column (accuracy recovery
        after long chains of spectrum-level updates)."""
        return Circulant(self._data)

    def __repr__(self):
        return f"Circulant(n={self.n}, dtype={self.dtype})"

    # -- products and solves ---------------------------------------------

    def matvec(self, x) -> np.ndarray:
        """Fast product C @ x using the cached spectrum."""
        return self._apply(as_operand(x, rows=self.shape[1]))

    def solve(self, b, side: str = "left") -> np.ndarray:
        """Solve C x = b (side='left') or x C = b (side='right').

        The right-hand side may be a vector or a matrix of stacked columns.
        Right division solves against the transposed spectrum instead of
        forming any inverse.
        """
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        arr = as_operand(b, "right-hand side", self.n, matrix=True)
        spectrum = self._spec if side == "left" else cyclic_reverse(self._spec)
        self._check_nonsingular()
        return spectral_apply(spectrum, arr, self.n, self.isreal, divide=True)

    def _check_nonsingular(self):
        # values are immutable, so the verdict (the error message, or "" for
        # nonsingular) is computed once; concurrent fills write equal strings
        if self._singular is None:
            mags = np.abs(self._spec)
            lo, hi = mags.min(), mags.max()
            self._singular = (
                "singular circulant: smallest eigenvalue magnitude "
                f"{lo:.3e} is below {SINGULARITY_RTOL:g} * {hi:.3e}"
                if lo <= SINGULARITY_RTOL * hi else ""
            )
        if self._singular:
            raise SingularMatrixError(self._singular)

    @np.errstate(over="ignore", invalid="ignore")
    def inv(self) -> "Circulant":
        """Circulant inverse via reciprocal eigenvalues."""
        self._check_nonsingular()
        return Circulant._from_spectrum(1.0 / self._spec, self.isreal)

    def det(self):
        """Determinant, the product of the cached eigenvalues."""
        d = complex(np.prod(self._spec))
        return d.real if self.isreal else d

    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues and Fourier eigenvectors: C @ F[:, k] = ev[k] * F[:, k]."""
        return self._spec.copy(), fourier_matrix(self.n)

    @np.errstate(over="ignore", invalid="ignore")
    def matrix_power(self, p: int) -> "Circulant":
        """Integer matrix power via entrywise powers of the spectrum."""
        if p != int(p):
            raise TypeError(f"matrix power requires an integer exponent, got {p!r}")
        p = int(p)
        if p < 0:
            self._check_nonsingular()
        return Circulant._from_spectrum(self._spec ** p, self.isreal)

    # -- structure manipulation ------------------------------------------

    def to_toeplitz(self):
        """The same matrix as an n-by-n Toeplitz value."""
        n = self.n
        return Toeplitz.from_diagonals(self._entries(np.arange(1 - n, n)), n, n)

    # -- reductions --------------------------------------------------------

    def sum(self) -> np.ndarray:
        """Per-column sums; every column holds the same entries, so this is
        n copies of sum(col)."""
        return np.full(self.n, self._data.sum(), dtype=self.dtype)

    def prod(self) -> np.ndarray:
        """Per-column products (n copies of prod(col))."""
        return np.full(self.n, self._data.prod(), dtype=self.dtype)

    def tril(self, k: int = 0):
        """Lower-triangular part, returned as a Toeplitz value."""
        return self.to_toeplitz().tril(k)

    def triu(self, k: int = 0):
        """Upper-triangular part, returned as a Toeplitz value."""
        return self.to_toeplitz().triu(k)

    # -- hooks of the shared operator table (see _structured.py) -------------

    def _entries(self, lags):
        return self._data[np.mod(lags, self.n)]

    def _block(self, t, m, n):
        # the full slice gives back the circulant; any other block is Toeplitz
        if (m, n) == self.shape:
            return self
        return Toeplitz.from_diagonals(t, m, n)

    def _reversed(self):
        return cyclic_reverse(self._data)

    def _like(self, data, spec=None, shape=None):
        return Circulant.__new__(Circulant)._fill(require_finite(data, "first column"), spec)

    @np.errstate(over="ignore", invalid="ignore")
    def _add_scalar(self, s):
        ev = self._spec.astype(np.result_type(self._spec, s), copy=True)
        ev[0] += self.n * s  # dft of a constant shifts only the DC term
        return self._like(self._data + s, ev)

    # -- operators ---------------------------------------------------------

    def __matmul__(self, other):
        # circulant @ circulant is the one product that stays structured
        if not isinstance(other, Circulant):
            return super().__matmul__(other)
        as_operand(other.col, rows=self.n)  # other's order is its column's length
        with np.errstate(over="ignore", invalid="ignore"):
            ev = self._spec * other._spec
        return Circulant._from_spectrum(ev, self.isreal and other.isreal)

    def __pow__(self, p):
        return self.matrix_power(p)
