"""The operator table and value algebra shared by the structured matrix classes.

Circulant and Toeplitz values each store one short vector of entries in
`_data` (`col` or `t`) and a spectrum in `_spec` (`ev` or `cev`).
`Structured` writes their common behaviour once: the operator dunders,
transposes and entrywise maps, and indexing, which follows numpy's rules
on each axis (rows index np.arange(m) and columns np.arange(n)).  The
spectrum is the full-length DFT, whose transforms and products live in
dft.py.

Every derived value is built by the class's `_like` (a circulant product,
power or inverse by `Circulant._from_spectrum`), which raises ValueError
when its entries are not finite (an overflow) and carries the spectrum of
its operands where a cheap exact rule gives it.  The arithmetic that feeds
it runs under np.errstate(over="ignore", invalid="ignore"), so that
ValueError is the one signal of an overflow, with no numpy warning:

    alpha * X, -X     the spectrum scaled or negated
    X.T               the spectrum cyclically reversed
    X.H               the spectrum conjugated
    X + Y, X - Y      the spectra added or subtracted, when both operands
                      carry spectra of one length
    C + scalar        a circulant's spectrum shifted at index 0

Otherwise the class rule fills it: a circulant transforms its column, and
a Toeplitz value transforms its embedding when it was built with
`toeprem` on, and otherwise stays lazy until its first product.

Binary operators follow the promotion lattice circulant -> Toeplitz ->
dense, and the result belongs to the least structured operand:

    X (op) scalar   -> class of X   (scalars act neutrally)
    X (op) ndarray  -> ndarray      (X densifies)
    X (op) Y        -> class of the operand with the higher `_rank` (the
                       more structured operand converts through the other's
                       `_like`, so a Toeplitz operand's settings carry over
                       whichever side it is on)

for the elementwise +, - and *.  The matrix product @ leaves the lattice:
only circulant @ circulant stays structured, and any Toeplitz factor makes
the product dense, because products of Toeplitz matrices are not Toeplitz
in general.  A 1-d ndarray operand goes through `matvec`, a 2-d one
through the fast product column by column.

Each class sets `_rank` (0 for circulant, 1 for Toeplitz) and supplies
these hooks (`shape` defaults to the value's own; a circulant's follows
from its data):

    _reversed()              the data vector of the transpose
    _like(data, spec, shape) a value of this class with entries `data`; a
                             given `spec` is carried as is, and with
                             spec=None the class rule fills it
    _spectrum()              the spectrum products use (filled on demand)
    _add_scalar(s)           X + s
    _entries(lags)           the entries on the diagonals i - j = lags
    _block(t, m, n)          the m-by-n contiguous block with diagonal vector t

`as_square` states the rule for a square matrix argument once, for the
preconditioners and the square solvers: a circulant or Toeplitz value
passes as it is, anything else is read by `as_operand` and must be 2-d
(ValueError), and either kind must be square (DimensionMismatchError).
"""

from __future__ import annotations

import operator

import numpy as np

from ._util import as_operand, is_scalar
from .dft import spectral_apply
from .errors import DimensionMismatchError

__all__ = [
    "ENTRYWISE_MAPS",
    "Structured",
    "as_square",
    "cyclic_reverse",
    "reversal_index",
]


def _cwise(f):
    def apply(arr):
        if np.iscomplexobj(arr):
            return f(arr.real) + 1j * f(arr.imag)
        return f(arr)
    return apply


# Entrywise maps accepted by map_entries().  Rounding maps act on real and
# imaginary parts separately; sign(z) = z/|z| with sign(0) = 0.
ENTRYWISE_MAPS = {
    "abs": np.abs,
    "angle": np.angle,
    "conj": np.conj,
    "real": np.real,
    "imag": np.imag,
    "round": _cwise(np.round),
    "fix": _cwise(np.trunc),
    "floor": _cwise(np.floor),
    "ceil": _cwise(np.ceil),
    "sign": np.sign,
}


def reversal_index(n):
    # k -> (-k) mod n; reverses a column/spectrum around index 0
    return np.mod(-np.arange(n), n)


def cyclic_reverse(v):
    """v[reversal_index(len(v))] by two slices instead of an index gather."""
    return np.concatenate([v[:1], v[:0:-1]])


class Structured:
    """Base of the structured matrix values; see the module docstring."""

    # Keep numpy from elementwise-broadcasting us; reflected dunders run instead.
    __array_ufunc__ = None
    __hash__ = None
    __slots__ = ("_data", "_spec")

    @property
    def dtype(self):
        return self._data.dtype

    @property
    def isreal(self) -> bool:
        return not np.iscomplexobj(self._data)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.shape == other.shape and bool(np.array_equal(self._data, other._data))

    def full(self) -> np.ndarray:
        """Dense m-by-n array; entry (i, j) is the value on diagonal i - j."""
        m, n = self.shape
        return self._entries(np.arange(m)[:, None] - np.arange(n)[None, :])

    def _spectrum(self):
        return self._spec

    def _apply(self, arr):
        """The fast product along axis 0 of `arr`, which has passed
        `as_operand` (two transforms)."""
        return spectral_apply(self._spectrum(), arr, self.shape[0], self.isreal)

    # -- elementwise operators ----------------------------------------------

    def _binary(self, op, other, scalar, reflected=False):
        """op(self, other), or op(other, self) when `reflected`; `scalar`
        computes the result for a scalar operand."""
        if is_scalar(other):
            return scalar(other)
        if isinstance(other, np.ndarray):
            return op(other, self.full()) if reflected else op(self.full(), other)
        if reflected or not isinstance(other, Structured):
            return NotImplemented
        if self.shape != other.shape:
            raise DimensionMismatchError(f"shapes disagree: {self.shape} vs {other.shape}")
        # Toeplitz is the only class above circulant; the circulant converts
        # under the Toeplitz operand's settings, whichever side it is on
        a, b, n = self, other, self.shape[0]  # a circulant operand makes both square
        if a._rank < b._rank:
            a = b._like(a._entries(np.arange(1 - n, n)))
        elif b._rank < a._rank:
            b = a._like(b._entries(np.arange(1 - n, n)))
        return a._combine(op, b)

    @np.errstate(over="ignore", invalid="ignore")
    def _combine(self, op, other):
        """op(self, other) for op in add/sub/mul, `other` of this class and shape."""
        if op is operator.mul:
            return self._like(self._data * other._data)
        a, b = self._spec, other._spec
        spec = op(a, b) if a is not None and b is not None and a.shape == b.shape else None
        return self._like(op(self._data, other._data), spec)

    def __add__(self, other):
        return self._binary(operator.add, other, self._add_scalar)

    def __radd__(self, other):
        return self._binary(operator.add, other, self._add_scalar, reflected=True)

    def __sub__(self, other):
        return self._binary(operator.sub, other, lambda s: self._add_scalar(-s))

    def __rsub__(self, other):
        return self._binary(operator.sub, other, lambda s: (-self)._add_scalar(s),
                            reflected=True)

    def __mul__(self, other):
        return self._binary(operator.mul, other, self.scale)

    def __rmul__(self, other):
        return self._binary(operator.mul, other, self.scale, reflected=True)

    @np.errstate(over="ignore", invalid="ignore")
    def __truediv__(self, other):
        if is_scalar(other):
            return self.scale(1.0 / other)
        return NotImplemented

    def __neg__(self):
        return self._like(-self._data, None if self._spec is None else -self._spec)

    def __pos__(self):
        return self

    @np.errstate(over="ignore", invalid="ignore")
    def scale(self, alpha):
        """alpha * X; a carried spectrum is scaled rather than recomputed."""
        return self._like(alpha * self._data,
                          None if self._spec is None else alpha * self._spec)

    # -- matrix product ------------------------------------------------------

    def __matmul__(self, other):
        if isinstance(other, Structured):
            other = other.full()
        if isinstance(other, np.ndarray):
            if other.ndim == 1:
                return self.matvec(other)
            if other.ndim == 2:
                return self._apply(as_operand(other, rows=self.shape[1], matrix=True))
        return NotImplemented

    def __rmatmul__(self, other):
        # x @ A is (A^T x^T)^T
        if isinstance(other, np.ndarray) and other.ndim in (1, 2):
            return self.T._apply(as_operand(other.T, rows=self.shape[0], matrix=True)).T
        return NotImplemented

    # -- transposes and entrywise maps ---------------------------------------

    def transpose(self, conjugate: bool = False):
        """Transpose (or conjugate transpose); the data vector reverses and a
        carried spectrum is reversed (or conjugated), with no transforms."""
        data, spec = self._reversed(), self._spec
        if conjugate:
            data = np.conj(data)
        if spec is not None:
            spec = np.conj(spec) if conjugate else cyclic_reverse(spec)
        return self._like(data, spec, self.shape[::-1])

    @property
    def T(self):
        return self.transpose(False)

    @property
    def H(self):
        return self.transpose(True)

    def conj(self):
        return self.map_entries("conj")

    def __abs__(self):
        return self.map_entries("abs")

    def map_entries(self, tag: str):
        """Apply an elementary entrywise map (see ENTRYWISE_MAPS) to every
        matrix entry; the class rule fills the result's spectrum."""
        try:
            f = ENTRYWISE_MAPS[tag]
        except KeyError:
            raise ValueError(
                f"unknown entrywise map {tag!r}; expected one of "
                f"{sorted(ENTRYWISE_MAPS)}"
            ) from None
        return self._like(f(self._data))

    # -- diagonals and indexing ----------------------------------------------

    def diag(self, k: int = 0) -> np.ndarray:
        """The k-th diagonal (constant by structure)."""
        m, n = self.shape
        k = int(k)
        length = min(m, n - k) if k >= 0 else min(m + k, n)
        if length <= 0:
            return np.empty(0, dtype=self.dtype)
        return np.full(length, self._entries(-k), dtype=self.dtype)

    def __getitem__(self, key):
        """Submatrix extraction with structure-aware result types.

        Rows and columns select as they would from np.arange(m) and
        np.arange(n).  A[i, j] is a scalar; a pair of unit-step slices keeps
        the structure (see each class's `_block`); anything else densifies,
        to 1-d when one side is an integer.
        """
        if not (isinstance(key, tuple) and len(key) == 2):
            raise TypeError("indexing requires a (rows, cols) pair")
        r, c = (_positions(k, dim) for k, dim in zip(key, self.shape))
        unit = all(isinstance(k, slice) and k.step in (None, 1) for k in key)
        if unit and r.size and c.size:
            t = self._entries(np.arange(r[0] - c[-1], r[-1] - c[0] + 1))
            return self._block(t, r.size, c.size)
        return self._entries(np.subtract.outer(r, c))


def as_square(A, who):
    """The square matrix argument of `who` (see the module docstring): a
    circulant or Toeplitz value as it is, anything else as the array that
    `as_operand` reads."""
    if not isinstance(A, Structured):
        A = as_operand(A, f"the operand of {who}", matrix=True)
        if A.ndim != 2:
            raise ValueError(f"{who} expects a matrix, got shape {A.shape}")
    m, n = A.shape
    if m != n:
        raise DimensionMismatchError(f"{who} requires a square matrix, got {m}x{n}")
    return A


def _positions(key, dim):
    """np.arange(dim)[key] for an integer, a slice or a 1-d integer index."""
    if not isinstance(key, slice):
        try:
            key = operator.index(key)
        except TypeError:
            # numpy reads [] as an empty integer index, np.asarray as float
            idx = np.empty(0, int) if isinstance(key, list) and not key else np.asarray(key)
            if idx.ndim != 1 or not np.issubdtype(idx.dtype, np.integer):
                raise TypeError(f"invalid index specification {key!r}") from None
            key = idx
    return np.arange(dim)[key]
