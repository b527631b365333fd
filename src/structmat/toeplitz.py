"""Toeplitz matrices stored by diagonals, with fast embedded products.

An m-by-n Toeplitz matrix T has entry (i, j) equal to t[i - j], so the
whole matrix is held in a single vector of m + n - 1 diagonal values,
ordered from the top-right diagonal t[1-n] up to the bottom-left t[m-1].

Matrix-vector products embed T in a circulant of order N (either the tight
N = m + n - 1 or the next power of two, per the active embedding policy),
pad the vector with zeros, multiply in the Fourier domain and crop the
result.  The embedding eigenvalues are cached in the `cev` field; with the
`toeprem` setting on (the default) every value built under it, derived
ones included, carries them from allocation, so each product costs two
transforms instead of three.  With it off `cev` fills on the first
product.  The setting and the embedding policy are baked in at
construction and pass to every derived value.  `cev`
holds the full-length spectrum, and dft.py runs the products, at half
length when T and the vector are both real.  `_spectrum(size)` gives the
embedding spectrum at any order from `_exact_order()` up, which is below
m + n - 1 when T is banded: only the one at `embed_order` is cached, in
`cev`.  `_products(size)` gives the solvers their products with T and its
adjoint at an order of their own (see solvers.py) from one such spectrum,
conjugated for the adjoint.

Values are immutable apart from the idempotent `cev` cache fill, which is
safe under concurrent access: readers observe either no cache or a fully
written one, and duplicated fills produce identical arrays.

Operators follow the promotion lattice in _structured.py: a circulant
operand converts to Toeplitz, and @ with any Toeplitz factor is dense.
The public constructors check their input finite once; a derived value
(a product, map, triangle, block or shift) is checked in `_like`, so an
overflow raises ValueError instead of leaving inf or nan entries.  An
embedding spectrum is checked finite where it is written: a carried one
in `_fill`, a computed one in `_spectrum`, for `cev` and for the solvers'
order alike.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._structured import Structured
from ._util import as_operand, frozen, require_finite
from .config import Config, EmbeddingPolicy, config_get, embedded_size
from .dft import spectral_apply, spectrum_of
from .errors import DimensionMismatchError, UnsupportedOperationError

__all__ = ["Toeplitz"]

_FORBIDDEN_MSG = (
    "no fast {what} is registered for Toeplitz matrices; use the routines in "
    "structmat.solvers (or densify with full()) or supply your own"
)


class Toeplitz(Structured):
    """m-by-n Toeplitz matrix stored by diagonals."""

    __slots__ = ("_m", "_n", "_config")
    _rank = 1

    def __init__(self, col, row=None, config: Config | None = None):
        """Build from first column and (optionally) first row.

        With `row` omitted the matrix is completed Hermitianly:
        row[k] = conj(col[k]).  When both are given their leading entries
        must agree exactly, since both describe the main diagonal.
        """
        c = require_finite(as_operand(col, "first column"), "first column")
        if row is None:
            r = np.concatenate([c[:1], np.conj(c[1:])])
        else:
            r = require_finite(as_operand(row, "first row"), "first row")
            if c[0] != r[0]:
                raise ValueError(
                    f"first column and first row disagree on the diagonal entry: "
                    f"{c[0]} vs {r[0]}"
                )
        t = np.concatenate([r[:0:-1], c])
        self._fill(t, c.shape[0], r.shape[0], config)

    @classmethod
    def from_diagonals(cls, t, m: int, n: int, config: Config | None = None) -> "Toeplitz":
        """Build an m-by-n Toeplitz directly from its diagonal vector
        (length m + n - 1, ordered t[1-n], ..., t[m-1])."""
        tv = require_finite(as_operand(t, "diagonal vector"), "diagonal vector")
        m, n = int(m), int(n)
        if m < 1 or n < 1:
            raise ValueError(f"dimensions must be positive, got {m}x{n}")
        if tv.shape[0] != m + n - 1:
            raise DimensionMismatchError(
                f"diagonal vector has {tv.shape[0]} entries, expected {m + n - 1} "
                f"for a {m}x{n} matrix"
            )
        # as_operand may return the caller's own array, which must stay writable
        return cls.__new__(cls)._fill(tv.copy(), m, n, config)

    def _fill(self, t, m, n, config, spec=None):
        """Write every slot: the one step of each constructor and of `_like`.
        `config` (None for the active one) is baked in; a given `spec` is
        carried as is, and with none `toeprem` on transforms the embedding.
        Returns self."""
        self._data = frozen(np.ascontiguousarray(t))
        self._m, self._n = m, n
        self._config = config if config is not None else config_get()
        self._spec = None if spec is None else frozen(
            require_finite(np.ascontiguousarray(spec), "spectrum"))
        if self._config.toeprem:
            self._spectrum()
        return self

    # -- basic data ------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self._m, self._n)

    @property
    def t(self) -> np.ndarray:
        """Diagonal vector, t[k] holding diagonal k - (n-1) (read-only view)."""
        return self._data

    @property
    def policy(self) -> EmbeddingPolicy:
        return self._config.embedding

    @property
    def embed_order(self) -> int:
        """Order of the circulant embedding under the baked policy."""
        return embedded_size(self._m, self._n, self.policy)

    @property
    def cev(self) -> np.ndarray | None:
        """Cached embedding eigenvalues, or None if not yet computed."""
        return self._spec

    def __repr__(self):
        cev = "none" if self._spec is None else str(self._spec.shape[0])
        return (
            f"Toeplitz(shape={self._m}x{self._n}, dtype={self.dtype}, "
            f"policy={self.policy.value}, cev={cev})"
        )

    # -- embedding and products --------------------------------------------

    def embed(self, policy: EmbeddingPolicy | None = None) -> np.ndarray:
        """First column of the circulant embedding:
        [t0, t1, ..., t[m-1], 0..., t[1-n], ..., t[-1]]."""
        pol = self.policy if policy is None else policy
        return self._embedding(embedded_size(self._m, self._n, pol))

    def _embedding(self, size: int) -> np.ndarray:
        """First column of the order-`size` circulant embedding, for any
        size >= `_exact_order()`; the one place the embedding layout is
        written.

        It holds every lag that fits, -min(n-1, size-m) .. min(m-1, size-n):
        all of them from size m + n - 1 up.  Below that the window still
        covers T's band, and the lags it leaves out are zero.
        """
        m, n = self._m, self._n
        upper = min(n - 1, size - m)  # lags -upper .. -1, at the end (none at 0)
        lower = min(m - 1, size - n)  # lags 0 .. lower, at the start
        e = np.zeros(size, dtype=self.dtype)
        e[: lower + 1] = self._data[n - 1: n + lower]
        e[size - upper:] = self._data[n - 1 - upper: n - 1]
        return e

    def _band(self) -> tuple[int, int]:
        """(u, l) with every nonzero diagonal of T in lags -u .. l, u, l >= 0;
        (0, 0) for the zero matrix."""
        nz = np.flatnonzero(self._data != 0)
        if nz.size == 0:
            return 0, 0
        return max(0, self._n - 1 - int(nz[0])), max(0, int(nz[-1]) - (self._n - 1))

    def _exact_order(self) -> int:
        """The least circulant order whose embedding gives T @ x exactly.

        An order-N product also applies lag d at lags d - N and d + N,
        which miss T's lags 1-n .. m-1 for every d in the band (u, l)
        exactly when N >= max(m + u, n + l).  A dense T needs m + n - 1.
        """
        u, l = self._band()
        return max(self._m + u, self._n + l)

    def _spectrum(self, size: int | None = None) -> np.ndarray:
        """Spectrum of the order-`size` embedding (default `embed_order`).
        Only the one at `embed_order` is cached, as `cev`; any other order
        is transformed anew on every call."""
        if size is not None and size != self.embed_order:
            return require_finite(spectrum_of(self._embedding(size)), "spectrum")
        cev = self._spec
        if cev is None:
            # idempotent cache fill; concurrent duplicates compute equal arrays
            cev = spectrum_of(self._embedding(self.embed_order))
            cev = frozen(require_finite(cev, "spectrum"))
            self._spec = cev
        return cev

    def _products(self, size: int):
        """The pair (x -> T x, x -> T^H x) at the order-`size` embedding, for
        any size >= `_exact_order()`: one spectrum, conjugated for T^H."""
        spec, real, (m, n) = self._spectrum(size), self.isreal, self.shape
        spec_h = np.conj(spec)
        return (lambda x: spectral_apply(spec, x, m, real),
                lambda x: spectral_apply(spec_h, x, n, real))

    def toeprem(self) -> "Toeplitz":
        """Precompute (if needed) the embedding eigenvalues; returns self."""
        self._spectrum()
        return self

    def matvec(self, x) -> np.ndarray:
        """Fast product T @ x via the circulant embedding."""
        return self._apply(as_operand(x, rows=self.shape[1]))

    # -- structure manipulation ------------------------------------------

    def tril(self, k: int = 0) -> "Toeplitz":
        """Keep diagonals i - j >= -k (at and below the k-th), zero the rest."""
        t = self._data.copy()
        cut = self._n - 1 - int(k)
        t[: max(0, min(cut, t.shape[0]))] = 0
        return self._like(t)

    def triu(self, k: int = 0) -> "Toeplitz":
        """Keep diagonals i - j <= -k (at and above the k-th), zero the rest."""
        t = self._data.copy()
        cut = self._n - int(k)
        t[max(0, min(cut, t.shape[0])):] = 0
        return self._like(t)

    # -- reductions --------------------------------------------------------

    def sum(self) -> np.ndarray:
        """Per-column sums, computed from the diagonal vector."""
        cs = np.concatenate([np.zeros(1, dtype=self.dtype), np.cumsum(self._data)])
        starts = self._n - 1 - np.arange(self._n)
        return cs[starts + self._m] - cs[starts]

    def prod(self) -> np.ndarray:
        """Per-column products, computed from the diagonal vector."""
        # column j holds the window t[n-1-j : n-1-j+m]
        return sliding_window_view(self._data, self._m).prod(axis=1)[::-1]

    # -- deliberately unsupported dense-algebra entry points ----------------

    def inv(self):
        raise UnsupportedOperationError(_FORBIDDEN_MSG.format(what="inverse"))

    def det(self):
        raise UnsupportedOperationError(_FORBIDDEN_MSG.format(what="determinant"))

    def eig(self):
        raise UnsupportedOperationError(_FORBIDDEN_MSG.format(what="eigensolver"))

    # -- hooks of the shared operator table (see _structured.py) -------------

    def _entries(self, lags):
        return self._data[lags + (self._n - 1)]

    def _block(self, t, m, n):
        return self._like(t, shape=(m, n))

    def _reversed(self):
        return self._data[::-1]

    def _like(self, data, spec=None, shape=None):
        m, n = self.shape if shape is None else shape
        return Toeplitz.__new__(Toeplitz)._fill(
            require_finite(data, "diagonal vector"), m, n, self._config, spec)

    @np.errstate(over="ignore", invalid="ignore")
    def _add_scalar(self, s):
        # every entry sits on some diagonal, so shift the whole vector
        return self._like(self._data + s)
