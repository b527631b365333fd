"""Circulant preconditioners: Strang, optimal (Frobenius projection) and
superoptimal, plus a dispatching front end with a user-extensible registry.

The Strang preconditioner copies the central diagonals of a square Toeplitz
matrix and wraps them around; it is defined only for Toeplitz input.  The
optimal preconditioner is the Frobenius-norm projection of an arbitrary
square matrix onto the circulant algebra.  The superoptimal preconditioner
minimizes ||I - inv(C) A||_F; in the Fourier basis its eigenvalues have the
closed form

    lambda_i = b_i / conj(a_i),

where a = ev(optimal(A)) and b = ev(optimal(A A*)), which follows from the
first-order optimality conditions diagonal by diagonal.
"""

from __future__ import annotations

import threading

import numpy as np

from ._structured import entries_of, spectrum_of
from .circulant import Circulant
from .dft import next_pow2
from .errors import DimensionMismatchError, SingularMatrixError
from .toeplitz import Toeplitz

__all__ = ["strang", "optimal", "superoptimal", "smtcprec", "register_preconditioner"]

# Relative cutoff under which superoptimal refuses to divide by ev(optimal(A)).
ZERO_EIGENVALUE_RTOL = 1e-13


def _require_square(shape, who):
    if shape[0] != shape[1]:
        raise DimensionMismatchError(
            f"{who} preconditioner requires a square matrix, got {shape[0]}x{shape[1]}"
        )


def strang(T: Toeplitz | Circulant) -> Circulant:
    """Strang preconditioner of a square Toeplitz matrix.

    The first column keeps the diagonals t_0..t_{floor(n/2)} and wraps
    t_{j-n} in above that; at the midpoint of an even order the "upper"
    value t_{n/2} is taken.
    """
    if isinstance(T, Circulant):
        T = T.to_toeplitz()
    if not isinstance(T, Toeplitz):
        raise TypeError(
            "the Strang preconditioner is defined only for Toeplitz matrices"
        )
    _require_square(T.shape, "the Strang")
    n = T.shape[0]
    t = T.t
    c = np.empty(n, dtype=t.dtype)
    half = n // 2
    c[: half + 1] = t[n - 1 : n + half]
    c[half + 1 :] = t[half : n - 1]  # t[j-1] holds t_{j-n}
    return Circulant(c)


def optimal(A: Toeplitz | Circulant | np.ndarray) -> Circulant:
    """Frobenius-norm projection of a square matrix onto the circulants.

    For Toeplitz input the projection has the O(n) closed form
    c_j = (j * t_{j-n} + (n-j) * t_j) / n; dense input is averaged over the
    n circulant-shift diagonals in O(n^2).
    """
    if isinstance(A, Circulant):
        return Circulant._from_parts(A.col, A.ev)
    if isinstance(A, Toeplitz):
        _require_square(A.shape, "the optimal")
        n = A.shape[0]
        t = A.t
        j = np.arange(n)
        c = (n - j) * t[j + n - 1]
        c[1:] += (j[1:] * t[j[1:] - 1])
        return Circulant(c / n)
    A = np.asarray(A)
    if A.ndim != 2:
        raise ValueError("optimal expects a matrix")
    _require_square(A.shape, "the optimal")
    n = A.shape[0]
    lags = np.subtract.outer(np.arange(n), np.arange(n))
    return Circulant(_fold(A.ravel(), lags.ravel(), n) / n)


def superoptimal(A: Toeplitz | Circulant | np.ndarray) -> Circulant:
    """Circulant minimizing ||I - inv(C) A||_F.

    Requires ev(optimal(A)) to be nonzero throughout.  For Toeplitz input
    the Gram part ev(optimal(A A*)) is computed from the diagonal vector
    alone by FFT correlations in O(n log n) (see _gram_projection_ev), so
    neither a dense n-by-n product nor any matvec is ever formed.
    """
    if isinstance(A, (Toeplitz, Circulant)):
        _require_square(A.shape, "the superoptimal")
    a = optimal(A).ev
    amax = np.abs(a).max()
    if np.abs(a).min() <= ZERO_EIGENVALUE_RTOL * amax:
        raise SingularMatrixError(
            "superoptimal undefined: the optimal preconditioner of the input "
            "has (numerically) zero eigenvalues"
        )
    if isinstance(A, Circulant):
        b = a * np.conj(a)
        real = A.isreal
    elif isinstance(A, Toeplitz):
        b = _gram_projection_ev(A)
        real = A.isreal
    else:
        A = np.asarray(A)
        b = optimal(A @ A.conj().T).ev
        real = not np.iscomplexobj(A)
    lam = b / np.conj(a)
    return Circulant._from_parts(entries_of(lam, real), lam)


def _gram_projection_ev(T: Toeplitz) -> np.ndarray:
    """ev(optimal(T T*)) of a square Toeplitz T from t alone, in O(n log n).

    The diagonal pair (p, q) of (T T*)[i, k] = sum_j t_{i-j} conj(t_{k-j})
    lands on lag s = p - q, max(0, n - max(0, p, q) + min(0, p, q)) times.
    With P = t[d >= 0], N = t[d < 0] and corr(X, Y)[s] = sum_u X[u+s] conj(Y[u])
    the weighted sum at lag s >= 0 is corr((n-d) P, P) + corr(N, (n+d) N)
    + max(0, n-s) corr(P, N), and lag -s is its conjugate (T T* is Hermitian).
    Real t takes half-length rfft/irfft throughout and folds to real values.
    """
    n = T.shape[0]
    L = next_pow2(4 * n - 3)
    d = np.arange(1 - n, n)
    P = np.where(d >= 0, T.t, 0)
    N = T.t - P
    real = T.isreal
    F = (np.fft.rfft if real else np.fft.fft)([P, (n - d) * P, N, (n + d) * N], L)
    G = [F[1] * np.conj(F[0]) + F[2] * np.conj(F[3]), F[0] * np.conj(F[2])]
    # lags 0..2n-2, unwrapped as L >= 4n-3
    same, mixed = (np.fft.irfft(G, L) if real else np.fft.ifft(G))[:, : 2 * n - 1]
    r = same + np.maximum(n - np.arange(2 * n - 1), 0) * mixed
    r = np.concatenate([np.conj(r[:0:-1]), r])  # lags 2-2n..2n-2
    return spectrum_of(_fold(r, np.arange(2 - 2 * n, 2 * n - 1), n) / n)


def _fold(values, lags, n):
    """Sum `values` into n bins by lag mod n; bincount takes real weights only."""
    bins = lags % n
    c = np.bincount(bins, values.real, n)
    return c + 1j * np.bincount(bins, values.imag, n) if np.iscomplexobj(values) else c


_registry_lock = threading.Lock()
_REGISTRY: dict[str, object] = {
    "strang": strang,
    "optimal": optimal,
    "superoptimal": superoptimal,
}


def register_preconditioner(name: str, constructor) -> None:
    """Add (or replace) a named preconditioner constructor.

    The constructor receives the operand matrix and must return a Circulant.
    Registration is expected at startup only.
    """
    with _registry_lock:
        _REGISTRY[str(name).lower()] = constructor


def smtcprec(kind: str, A) -> Circulant:
    """Build the preconditioner named `kind` for operand `A`."""
    with _registry_lock:
        try:
            builder = _REGISTRY[str(kind).lower()]
        except KeyError:
            raise ValueError(
                f"unknown preconditioner {kind!r}; registered kinds: "
                f"{sorted(_REGISTRY)}"
            ) from None
    return builder(A)
