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
first-order optimality conditions diagonal by diagonal.  It is homogeneous
of degree 1, so it is computed on A scaled by a power of two that brings
its largest entry into [1/2, 1), and scaled back: b squares the entries,
and would overflow on entries near 1e155 and above.

One Gram routine, `_gram_projection_ev`, serves superoptimal and the
least-squares solver.  It gives ev(optimal(A'^H A')) of order N >= n for an
m-by-n Toeplitz A, A' its extension to N columns by zero diagonals above,
from A's diagonal vector alone in O((m + N) log(m + N)).  Superoptimal's b
is the routine on A^H at N = n.  The conjugate gradient on the normal
equations (solvers._cgls) divides by `_optimal_normal`, the routine on its
m-by-n Toeplitz T at an order N it picks, with the eigenvalues floored at
sqrt(eps) times the largest: the optimal circulant of the whole normal
matrix, as in R. Chan, Nagy and Plemmons (SIAM J. Matrix Anal. Appl. 15
(1994)).
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
    Both are taken on A scaled by 2^-e, with 2^(e-1) <= max |A_ij| < 2^e,
    and the eigenvalues scaled back by 2^e, so superoptimal(2^k A) is
    2^k superoptimal(A) bit for bit while neither result overflows or
    underflows.
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
    n = A.shape[0]
    if isinstance(A, Toeplitz):
        t, e = _unit_scaled(A.t)
        b = _gram_projection_ev(np.conj(t[::-1]), n, n)  # A A* = (A*)* A*
        real = A.isreal
    else:
        # ev(optimal(A A*)) = (1/n) sum_j |fft(A[:, j])|^2 from the column
        # spectra, in O(n^2 log n) with no n-by-n product; real A takes the
        # half spectra, whose power mirrors to the rest
        A, e = _unit_scaled(A)
        real = not np.iscomplexobj(A)
        spec = forward(A, n, real, 0)
        b = np.sum(spec.real ** 2 + spec.imag ** 2, axis=1) / n
        b = np.concatenate([b, b[n - b.shape[0]:0:-1]]) if real else b
    return Circulant._from_spectrum(_ldexp(b / np.conj(_ldexp(P.ev, -e)), e), real)


def _optimal_normal(T: Toeplitz, N: int) -> Circulant:
    """The preconditioner of CGLS on the m-by-n Toeplitz T: the optimal
    order-N circulant of T'^H T' (see _gram_projection_ev), N >= n.

    Its eigenvalues are floored at sqrt(eps) times the largest, so that
    it is never singular; for T = 0 it is the identity.  Preconditioned CG
    does not change with the scale of its preconditioner, so T is taken
    scaled into [1/2, 1), where the Gram products cannot overflow, and the
    result is not scaled back.
    """
    m = T.shape[0]
    ev = _gram_projection_ev(_unit_scaled(T.t)[0], m, N)
    top = ev.max()
    ev = np.maximum(ev, np.sqrt(np.finfo(ev.dtype).eps) * top) if top > 0 else np.ones(N)
    return Circulant._from_spectrum(ev, T.isreal)


def _gram_projection_ev(t, m: int, N: int) -> np.ndarray:
    """ev(optimal(A'^H A')) of order N, real, for the m-by-n Toeplitz A
    with diagonal vector t (lags 1-n .. m-1), from t alone.

    A' is the m-by-N Toeplitz that extends A by N - n >= 0 zero diagonals
    above it; its diagonal vector t' pads t with N - n zeros in front, over
    lags p = 1-N .. m-1.  Diagonal pair (p, p + s) of
    (A'^H A')[j, k] = sum_i conj(t'_(i-j)) t'_(i-k) lands on lag s = j - k,
    once for each row i that keeps j and k in range: for s >= 0 that is
    N + p - max(0, p - m + N) - max(0, p + s) times.  So with
    corr(X, Y)[s] = sum_u X[u+s] conj(Y[u]), w_p = N + p - max(0, p - m + N)
    and v_p = max(0, p), the sum over lag s >= 0 is
    S(s) = corr(t', w t')[s] - corr(v t', t')[s]: three forward transforms
    and one inverse at fast_len(m + 2N - 2), which keeps lags 0 .. N-1
    unwrapped.  Lag -s sums to conj(S(s)), as A'^H A' is Hermitian, and
    the circulant's column is c_s = (S(s) + conj(S(N - s))) / N.  Its
    eigenvalues are real; real t takes half-length rfft/irfft throughout.
    """
    n = t.shape[0] - m + 1
    L = fast_len(m + 2 * N - 2)
    p = np.arange(1 - N, m)
    a = np.concatenate((np.zeros(N - n, dtype=t.dtype), t))
    w = N + p - np.maximum(0, p - m + N)
    real = not np.iscomplexobj(t)
    F, W, V = forward([a, w * a, np.maximum(0, p) * a], L, real)
    S = inverse(F * np.conj(W) - V * np.conj(F), L, real)[:N]
    c = S.copy()
    c[1:] += np.conj(S[:0:-1])
    return spectrum_of(c / N).real


def _unit_scaled(x):
    """(x 2^-e, e) for the e with 2^(e-1) <= max |x| < 2^e, or e = 0 for
    x = 0: the scaling is exact, and the largest entry lands in [1/2, 1)."""
    x = np.asarray(x)
    e = int(np.frexp(np.abs(x).max())[1])
    return _ldexp(x, -e), e


def _ldexp(x, e):
    """x 2^e exactly, barring overflow and underflow, for real or complex x
    of any numeric dtype; numpy's ldexp takes real operands only."""
    x = np.ascontiguousarray(x, dtype=np.result_type(x, np.float64))
    return np.ldexp(x.view(x.real.dtype), e).view(x.dtype)


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
