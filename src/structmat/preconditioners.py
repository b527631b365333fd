"""Circulant preconditioners: Strang, optimal (Frobenius projection) and
superoptimal, plus a dispatching front end with a user-extensible registry.

The constructors share one operand rule, `_square`: a circulant or
Toeplitz value passes as it is, anything else is read as a 2-d array
(which Strang refuses first, with TypeError), and every operand must be
square.  Each error names the constructor that was called.

The Strang preconditioner copies the central diagonals of a square Toeplitz
matrix and wraps them around; it is defined for Toeplitz input, and a
circulant, whose central diagonals are its column, is its own.  The
optimal preconditioner is the Frobenius-norm projection of an arbitrary
square matrix onto the circulant algebra (T. Chan, SIAM J. Sci. Stat.
Comput. 9 (1988)): one fold of entries onto the circulant lags
(i - j) mod n, `_fold`, the same for Toeplitz input (its diagonals, each
weighted by its length) and for dense input (every entry).  The
superoptimal preconditioner (Tyrtyshnikov, SIAM J. Matrix Anal. Appl. 13
(1992)) minimizes ||I - inv(C) A||_F; in the Fourier basis its eigenvalues
have the closed form

    lambda_i = b_i / conj(a_i),

where a = ev(optimal(A)) and b = ev(optimal(A A*)), which follows from the
first-order optimality conditions diagonal by diagonal.
"""

from __future__ import annotations

import threading

import numpy as np

from .circulant import Circulant
from .dft import fast_len, forward, inverse, spectrum_of
from .errors import DimensionMismatchError, SingularMatrixError
from .toeplitz import Toeplitz

__all__ = ["strang", "optimal", "superoptimal", "smtcprec", "register_preconditioner"]


def _square(A, who):
    """The operand of the `who` preconditioner: a circulant or Toeplitz value
    as it is, anything else as a 2-d array; either way it must be square."""
    if not isinstance(A, (Circulant, Toeplitz)):
        A = np.asarray(A)
        if A.ndim != 2:
            raise ValueError(f"the {who} preconditioner expects a matrix, got shape {A.shape}")
    if A.shape[0] != A.shape[1]:
        raise DimensionMismatchError(
            f"the {who} preconditioner requires a square matrix, got {A.shape[0]}x{A.shape[1]}"
        )
    return A


def strang(T: Toeplitz | Circulant) -> Circulant:
    """Strang preconditioner of a square Toeplitz matrix.

    The first column keeps the diagonals t_0..t_{floor(n/2)} and wraps
    t_{j-n} in above that; at the midpoint of an even order the "upper"
    value t_{n/2} is taken.  A circulant is returned as is.
    """
    if isinstance(T, Circulant):
        return T
    if not isinstance(T, Toeplitz):
        raise TypeError(
            "the Strang preconditioner is defined only for Toeplitz matrices"
        )
    n = _square(T, "Strang").shape[0]
    t = T.t
    c = np.empty(n, dtype=t.dtype)
    half = n // 2
    c[: half + 1] = t[n - 1 : n + half]
    c[half + 1 :] = t[half : n - 1]  # t[j-1] holds t_{j-n}
    return Circulant(c)


def optimal(A: Toeplitz | Circulant | np.ndarray) -> Circulant:
    """Frobenius-norm projection of a square matrix onto the circulants.

    Entry (i, j) lies on the circulant lag (i - j) mod n, and column entry
    c_k is the mean of the n entries on lag k (`_fold`).  A Toeplitz matrix
    holds n - |d| copies of t_d on its diagonal d, so it folds its 2n - 1
    weighted diagonals in O(n); dense input folds its n^2 entries.  A
    circulant is returned as is.
    """
    if isinstance(A, Circulant):
        return A
    A = _square(A, "optimal")
    n = A.shape[0]
    if isinstance(A, Toeplitz):
        d = np.arange(1 - n, n)
        return Circulant(_fold((n - np.abs(d)) * A.t, d, n) / n)
    lags = np.subtract.outer(np.arange(n), np.arange(n))
    return Circulant(_fold(A.ravel(), lags.ravel(), n) / n)


def superoptimal(A: Toeplitz | Circulant | np.ndarray) -> Circulant:
    """Circulant minimizing ||I - inv(C) A||_F.

    Requires ev(optimal(A)) to be nonzero throughout.  For Toeplitz input
    the Gram part ev(optimal(A A*)) is computed from the diagonal vector
    alone by FFT correlations in O(n log n) (see _gram_projection_ev), so
    neither a dense n-by-n product nor any matvec is ever formed; for dense
    input it is the mean power of the column spectra, in O(n^2 log n).
    """
    A = _square(A, "superoptimal")
    P = optimal(A)
    try:
        P._check_nonsingular()
    except SingularMatrixError as err:
        raise SingularMatrixError(
            "superoptimal undefined: the optimal preconditioner of the input "
            "has (numerically) zero eigenvalues"
        ) from err
    if isinstance(A, Circulant):
        return P  # a circulant is its own superoptimal preconditioner
    if isinstance(A, Toeplitz):
        b = _gram_projection_ev(A)
        real = A.isreal
    else:
        # ev(optimal(A A*)) = (1/n) sum_j |fft(A[:, j])|^2 from the column
        # spectra, in O(n^2 log n) with no n-by-n product; real A takes the
        # half spectra, whose power mirrors to the rest
        n = A.shape[0]
        real = not np.iscomplexobj(A)
        spec = forward(A, n, real, 0)
        b = np.sum(spec.real ** 2 + spec.imag ** 2, axis=1) / n
        b = np.concatenate([b, b[n - b.shape[0]:0:-1]]) if real else b
    return Circulant._from_spectrum(b / np.conj(P.ev), real)


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
    L = fast_len(4 * n - 3)
    d = np.arange(1 - n, n)
    P = np.where(d >= 0, T.t, 0)
    N = T.t - P
    real = T.isreal
    F = forward([P, (n - d) * P, N, (n + d) * N], L, real)
    G = [F[1] * np.conj(F[0]) + F[2] * np.conj(F[3]), F[0] * np.conj(F[2])]
    # lags 0..2n-2, unwrapped as L >= 4n-3
    same, mixed = inverse(G, L, real)[:, : 2 * n - 1]
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


def _registered(kind: str) -> bool:
    """True when `kind` names a registered preconditioner, in any case."""
    with _registry_lock:
        return str(kind).lower() in _REGISTRY


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
