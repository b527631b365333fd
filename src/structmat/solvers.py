"""Linear-system solution for structured operands.

Provides a classical Levinson recursion for square Toeplitz systems (O(n^2),
with breakdown detection on near-singular leading minors), a conjugate
gradient on the normal equations for overdetermined Toeplitz least squares
(fast matvecs, dense QR below a size cutoff), a generic preconditioned
conjugate gradient, and the division dispatcher that routes between the
internal solvers and user-registered replacements according to the active
configuration.

The iterative solvers choose their own transform length.  Handed an m-by-n
Toeplitz T, CGLS and PCG run every product of the solve on the circulant
embedding of order fast_len(m + n - 1), whatever T's embedding policy: a
2*3*5*7-smooth length transforms several times faster than a tight length
with a large prime factor, and is never longer than the power of two.  The
spectrum comes from T._spectrum(fast_len(m + n - 1)): when T's own
embedding already has that order its cached `cev` serves; otherwise one
transform per solve builds the spectrum, and T keeps its policy, its `cev`
and its own products.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass

import numpy as np

from ._structured import spectral_apply
from ._util import as_vector
from .circulant import Circulant
from .config import Config, config_get
from .dft import fast_len
from .errors import (
    BreakdownError,
    DimensionMismatchError,
    RankDeficientError,
    StructmatError,
    UnderdeterminedError,
)
from .toeplitz import Toeplitz

__all__ = [
    "SolveFlag",
    "SolveReport",
    "levinson_solve",
    "toep_lstsq",
    "pcg_solve",
    "toep_divide",
    "register_tsolve",
    "register_tsolvels",
]

# Levinson refuses to divide by denominators this small relative to scale.
BREAKDOWN_RTOL = 1e-12
# toep_lstsq uses a dense QR below this column count.
LSTSQ_DENSE_CUTOFF = 64
# QR path flags rank deficiency when the R diagonal spans more than this.
LSTSQ_RDIAG_RTOL = 1e-7
# CGLS stops when ||A*(b - Ax)|| <= LSTSQ_RTOL * ||A*b||.
LSTSQ_RTOL = 1e-12


class SolveFlag(enum.Enum):
    CONVERGED = "converged"
    MAX_ITERATIONS = "max_iterations"
    BREAKDOWN = "breakdown"


@dataclass
class SolveReport:
    """Outcome of an iterative (or direct) solve."""

    iterations: int
    relative_residual: float
    flag: SolveFlag


def _rhs(b, rows: int) -> np.ndarray:
    """The right-hand side `b` as a vector, which must have `rows` entries."""
    bv = as_vector(b, "right-hand side")
    if bv.shape[0] != rows:
        raise DimensionMismatchError(
            f"right-hand side has length {bv.shape[0]}, expected {rows}"
        )
    return bv


def _check_overdetermined(m: int, n: int) -> None:
    if m <= n:
        raise UnderdeterminedError(
            f"underdetermined system: {m}x{n} has no more rows than columns"
        )


def levinson_solve(T: Toeplitz, b) -> np.ndarray:
    """Solve a square nonsingular Toeplitz system by Levinson recursion.

    The recursion grows the solution of the leading k-by-k subsystem one
    order at a time, maintaining a forward vector f (inverse's first column)
    and a backward vector w (inverse's last column).  It requires every
    leading principal minor to be (numerically) nonsingular; otherwise a
    BreakdownError is raised and a dense solver should be used instead.

    The state is one (3, n) buffer V whose rows hold f, J*w (w stored
    reversed) and x; at order k only the first k columns are live and
    column k is still zero.  The windows of T at order k are columns
    [n-1-k, n-1) of the (3, 2n-1) stack S = [t[::-1], t, t[::-1]]: row k of
    T left of the diagonal (against f and x) and column k of T above it
    (against J*w: the recursion pairs that column with w read backward,
    which is why w is stored reversed).  So the three inner products of an
    order step are one batched matmul.  The update of (f, 0) and (0, w) is
    one two-row update against V[1::-1, k::-1], the reversed rows in
    swapped order, and x then steps along the reversed w row.
    """
    if not isinstance(T, Toeplitz):
        raise TypeError("levinson_solve expects a Toeplitz matrix")
    m, n = T.shape
    if m != n:
        raise DimensionMismatchError(f"levinson_solve requires a square matrix, got {m}x{n}")
    bv = _rhs(b, n)
    a = T.t  # a[d + n - 1] holds diagonal d
    scale = np.abs(a).max()
    t0 = a[n - 1]
    if abs(t0) <= BREAKDOWN_RTOL * max(1.0, scale):
        raise BreakdownError(
            "Levinson breakdown at order 1: zero leading entry; "
            "disable the internal solver to fall back to a dense factorization"
        )
    dtype = np.result_type(a.dtype, bv.dtype, np.float64)
    S = np.array([a[::-1], a, a[::-1]], dtype=dtype)
    V = np.zeros((3, n), dtype=dtype)  # rows f, J*w, x
    V[:2, 0] = 1.0 / t0
    V[2, 0] = bv[0] / t0
    for k in range(1, n):
        # row k of T against f and x, the trailing column against J*w
        dots = np.matmul(S[:, None, n - 1 - k: n - 1], V[:, :k, None])[:, 0]
        eps_f, delta_w, row_x = dots[:, 0]
        coupling = eps_f * delta_w
        denom = 1.0 - coupling
        if abs(denom) <= BREAKDOWN_RTOL * max(1.0, abs(coupling)):
            raise BreakdownError(
                f"Levinson breakdown at order {k + 1}: singular leading minor; "
                "disable the internal solver to fall back to a dense factorization"
            )
        # (f, 0) - eps_f*(0, w) and (0, w) - delta_w*(f, 0), over denom; one
        # reciprocal, since dividing a complex array is several times slower
        live = V[:2, : k + 1]
        live -= dots[:2] * V[1::-1, k::-1]
        live *= 1.0 / denom
        V[2, : k + 1] += (bv[k] - row_x) * V[1, k::-1]
    return V[2].copy()


def toep_lstsq(T: Toeplitz, b, rtol: float = LSTSQ_RTOL) -> np.ndarray:
    """Least-squares solution of a strictly overdetermined Toeplitz system.

    Below LSTSQ_DENSE_CUTOFF columns a dense Householder QR is used; above
    it, conjugate gradient on the normal equations A* A x = A* b with fast
    Toeplitz products (CGLS).  Underdetermined input raises.  Only the QR
    path detects numerical rank deficiency and raises RankDeficientError;
    on rank-deficient input CGLS returns the minimum-norm solution (it
    raises only when its iteration stagnates).
    """
    if not isinstance(T, Toeplitz):
        raise TypeError("toep_lstsq expects a Toeplitz matrix")
    m, n = T.shape
    _check_overdetermined(m, n)
    bv = _rhs(b, m)
    if n < LSTSQ_DENSE_CUTOFF:
        A = T.full()
        q, r = np.linalg.qr(A)
        rd = np.abs(np.diag(r))
        if rd.min() <= LSTSQ_RDIAG_RTOL * rd.max():
            raise RankDeficientError(
                "rank deficient: QR diagonal spans more than "
                f"{1 / LSTSQ_RDIAG_RTOL:.0e}"
            )
        return np.linalg.solve(r, q.conj().T @ bv)
    return _cgls(T, bv, rtol)


def _cgls(T: Toeplitz, b, rtol):
    m, n = T.shape
    spec = T._spectrum(fast_len(m + n - 1))
    spec_h = np.conj(spec)  # the adjoint's embedding spectrum
    real = T.isreal
    dtype = np.result_type(T.dtype, b.dtype, np.float64)
    x = np.zeros(n, dtype=dtype)
    r = b.astype(dtype)
    s = spectral_apply(spec_h, r, n, real)
    p = s.copy()
    gamma = np.real(np.vdot(s, s))
    target = rtol * np.sqrt(gamma)
    maxit = 5 * n
    for _ in range(maxit):
        q = spectral_apply(spec, p, m, real)
        qq = np.real(np.vdot(q, q))
        if qq == 0.0 or not np.isfinite(qq):
            break
        alpha = gamma / qq
        x += alpha * p
        r -= alpha * q
        s = spectral_apply(spec_h, r, n, real)
        gamma_new = np.real(np.vdot(s, s))
        if np.sqrt(gamma_new) <= target:
            return x
        p = s + (gamma_new / gamma) * p
        gamma = gamma_new
    raise RankDeficientError(
        f"rank deficient: normal-equations residual stagnated after {maxit} "
        "CGLS iterations"
    )


def _as_operator(A):
    """Normalize an operator argument to (apply, order)."""
    if callable(A):
        return A, None
    if isinstance(A, (Circulant, Toeplitz)):
        n = A.shape[0]
        if A.shape[1] != n:
            raise DimensionMismatchError("pcg_solve requires a square operator")
        if isinstance(A, Circulant):
            return A.matvec, n
        spec, real = A._spectrum(fast_len(2 * n - 1)), A.isreal
        return (lambda v: spectral_apply(spec, v, n, real)), n
    arr = np.asarray(A)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatchError("pcg_solve requires a square operator")
    return (lambda v: arr @ v), arr.shape[0]


def pcg_solve(
    apply_A,
    b,
    M: Circulant | None = None,
    tol: float = 1e-7,
    maxit: int | None = None,
) -> tuple[np.ndarray, SolveReport]:
    """Preconditioned conjugate gradient for Hermitian positive definite
    operators.

    `apply_A` may be a callable, a structured matrix, or a dense array; a
    circulant preconditioner is applied through its fast solve each
    iteration.  Iteration stops when the recurrence residual satisfies
    ||b - A x|| <= tol * ||b||; the report carries the recomputed true
    relative residual, and the converged flag is only set once the true
    residual meets the tolerance.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    apply_A, order = _as_operator(apply_A)
    bv = as_vector(b, "right-hand side") if order is None else _rhs(b, order)
    if maxit is None:
        maxit = bv.shape[0]
    if maxit < 1:
        raise ValueError(f"maxit must be at least 1, got {maxit}")
    bnorm = np.linalg.norm(bv)
    if bnorm == 0.0:
        return np.zeros_like(bv), SolveReport(0, 0.0, SolveFlag.CONVERGED)

    def precond(v):
        return M.solve(v) if M is not None else v

    def true_residual(x):
        r = bv - apply_A(x)
        return r, float(np.linalg.norm(r) / bnorm)

    z = precond(bv)
    dtype = np.result_type(bv, z)
    x = np.zeros(bv.shape[0], dtype=dtype)
    r = bv.astype(dtype)
    p = z.astype(dtype)
    rho = np.vdot(r, z)
    flag = None
    for iterations in range(1, maxit + 1):
        q = apply_A(p)
        pq = np.vdot(p, q)
        if not np.isfinite(pq) or pq == 0.0:
            flag = SolveFlag.BREAKDOWN
            break
        alpha = rho / pq
        x = x + alpha * p  # out of place: a complex operator upcasts a real x
        r = r - alpha * q
        if not np.all(np.isfinite(r)):
            flag = SolveFlag.BREAKDOWN
            break
        if np.linalg.norm(r) <= tol * bnorm:
            r_true, rel = true_residual(x)
            if rel <= tol:
                return x, SolveReport(iterations, rel, SolveFlag.CONVERGED)
            r = r_true  # recurrence drifted; restart from the true residual
        z = precond(r)
        rho_new = np.vdot(r, z)
        p = z + (rho_new / rho) * p
        rho = rho_new
    rel = true_residual(x)[1]
    if flag is None:
        flag = SolveFlag.CONVERGED if rel <= tol else SolveFlag.MAX_ITERATIONS
    return x, SolveReport(iterations, rel, flag)


# -- user-replaceable direct solvers --------------------------------------


def _dense_tsolve(T: Toeplitz, b) -> np.ndarray:
    """Default registered square solver: dense LU on the full matrix."""
    return np.linalg.solve(T.full(), np.asarray(b))


def _dense_tsolvels(T: Toeplitz, b) -> np.ndarray:
    """Default registered least-squares solver: dense QR on the full matrix."""
    _check_overdetermined(*T.shape)
    return np.linalg.lstsq(T.full(), np.asarray(b), rcond=None)[0]


_solver_lock = threading.Lock()
_user_solvers = {"tsolve": _dense_tsolve, "tsolvels": _dense_tsolvels}


def register_tsolve(fn) -> None:
    """Replace the solver used for square systems when `intsolve` is off.
    Pass None to clear it (division will then error when toggled off)."""
    with _solver_lock:
        _user_solvers["tsolve"] = fn


def register_tsolvels(fn) -> None:
    """Replace the solver used for overdetermined systems when `intsolvels`
    is off.  Pass None to clear it."""
    with _solver_lock:
        _user_solvers["tsolvels"] = fn


def _registered(name):
    with _solver_lock:
        fn = _user_solvers[name]
    if fn is None:
        raise StructmatError(
            f"the internal solver is disabled and no {name} routine is registered"
        )
    return fn


def toep_divide(T: Toeplitz, b, config: Config | None = None) -> np.ndarray:
    """Toeplitz division dispatcher (the backslash of the package).

    Square systems go to the Levinson solver, overdetermined ones to the
    Toeplitz least-squares solver; either route can be redirected to a
    registered user solver by switching `intsolve` / `intsolvels` off.
    """
    if not isinstance(T, Toeplitz):
        raise TypeError("toep_divide expects a Toeplitz matrix")
    cfg = config if config is not None else config_get()
    m, n = T.shape
    if m == n:
        if cfg.intsolve:
            return levinson_solve(T, b)
        return _registered("tsolve")(T, b)
    if cfg.intsolvels:
        return toep_lstsq(T, b)
    return _registered("tsolvels")(T, b)
