"""Linear-system solution for structured operands.

Provides a superfast Levinson solver for square Toeplitz systems
(O(n log^2 n): divide-and-conquer order steps in blocks of up to
LEVINSON_LEAF, the Gohberg-Semencul formula and one refinement step, with
breakdown detection on near-singular leading minors and a backward-error
certificate on the answer), a conjugate gradient on the normal equations
for overdetermined Toeplitz least squares (fast matvecs, dense QR below a
size cutoff), a generic preconditioned conjugate gradient, and the
division dispatcher that routes between the internal solvers and
user-registered replacements according to the active configuration.
_solve is the one route from an operand of any kind (Toeplitz, circulant
or dense) and a method name to an answer and its report; the CLI solves
through it.

The solvers choose their own transform length.  CGLS and PCG run every
product with an m-by-n Toeplitz T at _solver_size(T), whatever T's
embedding policy (PCG's corner path, below, runs none at all): the
shortest circulant order that gives T @ x exactly, max(m + u, n + l) for
T's band of lags -u .. l (see Toeplitz._exact_order), rounded up by
fast_len to a 2*3*5-smooth length.  For a dense T that order is
m + n - 1.  A banded T, or a kernel whose tail underflows to zero, needs
little more than half of it.  A smooth length transforms several times
faster than a tight one with a large prime factor, and is never longer
than the power of two.  The products come from
T._products(_solver_size(T)), which takes T's embedding spectrum once per
solve: when T's own embedding already has that order its cached `cev`
serves; otherwise one transform builds it, and T keeps its policy, its
`cev` and its own products.  Levinson's Gohberg-Semencul products are
convolutions of length 2n - 1 whatever the band, and run at
fast_len(2n - 1), as do its refinement and certificate products with T.
CGLS also divides by a circulant of order N = fast_len(n + n // 8), a
2*3*5-smooth order a little above n: a complex division at a prime order
near n takes over three times as long.  That circulant is built at
fast_len(m + 2N - 2) (see preconditioners._gram_projection_ev), and each
division is a transform pair at N.  A circulant preconditioner M is used
only through its methods: M.solve divides, M.matvec multiplies and
M.inv() gives M^-1's first column.  No solver reads a stored spectrum.  Every transform is a call into dft.py,
half-length on real data.

PCG and CGLS share one conjugate-gradient loop, _cg_cycle, which runs
from zero on a residual with the callables each solver hands it: the
product, the curvature of a direction, the gradient at a residual and the
preconditioner.  PCG's gradient is its residual and its curvature p^H A p;
CGLS's residual is b - T x, its curvature ||T p||^2 and its gradient
T^H r, recomputed from r every iteration.  pcg_solve calls the loop in
refinement cycles: x += dx, then the true residual b - A x starts the next
cycle, until it meets tol, on breakdown, or when maxit iterations over all
cycles are spent.  Two paths feed PCG's cycles.  The product path hands
the loop n-vectors and the product above.  With a
square Toeplitz T and a circulant preconditioner M of its order, PCG takes
the corner path when T - M is zero outside two k-by-k corner blocks with
4k <= n and (2k)^2 <= n log2(n): so for the Strang preconditioner of a T
of band beta (k <= beta) whenever 4 beta <= n and
beta <= sqrt(n log2(n)) / 2, which is 123 at n = 5000.  Then M^-1 T is the
identity plus a rank-2k term, and the loop runs in the 2k corner
coordinates (see _corner_path).  An iteration is two dense 2k-by-2k
products: one with a block of M^-1 and one with the block D_S of T - M on
the corners (see _corner_split).  A cycle makes three order-n transform
pairs, whatever its iterations: a division by M to start, one to form x,
and a product with M for the true residual; the corner path transforms at
length n only.  Each cycle is accurate to about eps cond(M), so the
refinement cycles matter there.  Any other operator or preconditioner
takes the product path: the optimal and superoptimal ones, Strang's of a
dense T, whose corners are n/2 wide, and Strang's of a T whose band is
too wide for the second test.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass

import numpy as np

from ._structured import as_square, cyclic_reverse
from ._util import as_operand, require_finite
from .circulant import Circulant
from .config import Config, config_get
from .dft import fast_len, forward, inverse
from .errors import (
    BreakdownError,
    RankDeficientError,
    SingularMatrixError,
    StructmatError,
    UnderdeterminedError,
)
from .preconditioners import _optimal_normal
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
# levinson_solve raises when its answer's normwise backward error exceeds
# this.  On a sweep of 552 gallery and random systems, every well-conditioned
# one read at most 1.6e-15 (random, n = 4000).  tprolate with b = ones(200)
# read 1.8e-11 at a relative residual of 9.2, and tprolate and tdramadah
# with b = T*ones read 7e-6 and above; see CHANGES.md.
BACKWARD_RTOL = 1e-12
# levinson_solve runs order steps one by one in blocks of at most this many.
LEVINSON_LEAF = 96
# _step_block rescales its rows when their common factor leaves this range.
_SCALE_MIN, _SCALE_MAX = 1e-150, 1e150
# Every Levinson refusal ends with this: the dense path needs no leading
# minor, only T itself, to be well conditioned (see _dense_solve).
_FALLBACK_ADVICE = (
    "a dense factorization (intsolve off) helps when T is well conditioned "
    "but a leading minor is not, and refuses when cond_1(T) * eps >= 1"
)
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


def _finite_rhs(b, rows):
    """The right-hand side vector b under the operand rule, every entry finite."""
    return require_finite(as_operand(b, "right-hand side", rows), "right-hand side")


def _check_overdetermined(m: int, n: int) -> None:
    if m <= n:
        raise UnderdeterminedError(
            f"underdetermined system: {m}x{n} has no more rows than columns"
        )


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def levinson_solve(T: Toeplitz, b) -> np.ndarray:
    """Solve a square nonsingular Toeplitz system by a superfast Levinson
    recursion, the Gohberg-Semencul formula and one refinement step.

    The recursion computes only the generators of the inverse, its first
    column f = T^-1 e_0 and last column w = T^-1 e_(n-1), by the order steps
    of the Levinson recursion.  It requires every leading principal minor to
    be (numerically) nonsingular; a vanishing step denominator raises
    BreakdownError at that order.  At order 1 that is |t_0| at most
    BREAKDOWN_RTOL times the largest |t_k|, a relative test, so the
    recursion does not depend on the scale of T.  The steps run in
    divide-and-conquer form (see _order_steps): O(n LEVINSON_LEAF) work in
    blocks of plain steps and O(n log^2 n) in the FFT merges above them.
    The solution is x = T^-1 b by the Gohberg-Semencul formula (see
    _gs_solve), refined once by x += T^-1 (b - T x), all with FFT products
    of length fast_len(2n - 1).

    The answer carries a certificate: its normwise backward error
    ||b - T x||_1 / (||T||_1 ||x||_1 + ||b||_1) must not exceed
    BACKWARD_RTOL, or BreakdownError is raised.  So an ill-conditioned
    system whose recursion loses all accuracy, or overflows, raises instead
    of returning a meaningless x, and numpy emits no warning on the way.
    A certified x can still be meaningless.  For x = T^-1 b,
    cond_1(T) >= ||T||_1 ||x||_1 / ||b||_1, so SingularMatrixError is raised
    when eps ||T||_1 ||x||_1 >= ||b||_1: then T is numerically singular by
    the dense path's rule cond_1(T) eps >= 1 (see _dense_solve), or x is
    far from T^-1 b.  tprolate 300 with a random b passes the certificate
    with ||x|| = 2.6e24 at a relative residual of 1.2e9, and raises here.
    """
    if not isinstance(T, Toeplitz):
        raise TypeError("levinson_solve expects a Toeplitz matrix")
    n = as_square(T, "levinson_solve").shape[0]
    bv = _finite_rhs(b, n)
    a = T.t  # a[d + n - 1] holds diagonal d
    t0 = a[n - 1]
    if abs(t0) <= BREAKDOWN_RTOL * np.abs(a).max():
        raise BreakdownError(
            f"Levinson breakdown at order 1: zero leading entry; {_FALLBACK_ADVICE}")
    f, w = _inverse_generators(a, n)
    dtype = np.result_type(a.dtype, bv.dtype, np.float64)
    bv = bv.astype(dtype, copy=False)
    size = fast_len(2 * n - 1)
    real = not np.iscomplexobj(bv) and T.isreal
    solve = _gs_solve(f, w, size, real)
    product = T._products(size)[0]
    x = solve(bv)
    x += solve(bv - product(x))
    r = bv - product(x)
    # ||T||_1: column j holds diagonals -j .. n-1-j, a window sum of |a|
    sums = np.concatenate(([0.0], np.cumsum(np.abs(a))))
    norm_T = (sums[n:] - sums[:n]).max()
    error = np.abs(r).sum()
    norm_x, norm_b = np.abs(x).sum(), np.abs(bv).sum()
    bound = norm_T * norm_x + norm_b
    # written to fail on NaN, and on an overflowed x, whose bound is not finite
    if not (error <= BACKWARD_RTOL * bound and np.isfinite(bound)):
        cause = (f"backward error {error / bound:.1e} exceeds {BACKWARD_RTOL:.0e}"
                 if np.isfinite(bound) else "overflow in the solution")
        raise BreakdownError(f"Levinson {cause}; {_FALLBACK_ADVICE}")
    # cond_1(T) >= ||T||_1 ||x||_1 / ||b||_1 for x = T^-1 b: _dense_solve's
    # rule, written to fail on NaN, with x = 0 for b = 0 let through
    if not (np.finfo(x.dtype).eps * norm_T * norm_x < norm_b or norm_x == 0):
        raise SingularMatrixError(
            f"numerically singular: ||T||_1 ||x||_1 / ||b||_1 = "
            f"{norm_T * norm_x / norm_b:.1e} is at least 1/eps")
    return x


def _inverse_generators(a, n):
    """f = T^-1 e_0 and w = T^-1 e_(n-1) for the square Toeplitz matrix
    with diagonal vector `a`, whose t_0 = a[n - 1] is nonzero.

    Order 1 has f = w = 1/t_0.  The remaining n - 1 order steps start from
    F_1 = 1/t_0 and G_1 = z/t_0 (G = z W, see _order_steps); their windows
    are those of the residual series A_1 = t(z)/t_0 and B_1 = z t(z)/t_0.
    """
    t0 = a[n - 1]
    windows = np.empty((2, 2, n - 1), dtype=a.dtype)
    windows[0, 0] = a[n:]  # A_1 at indices 1 .. n-1
    windows[1, 0] = a[n - 1: 2 * n - 2]  # B_1 at indices 1 .. n-1
    windows[0, 1] = a[1:n]  # A_1 at indices 2-n .. 0
    windows[1, 1] = a[: n - 1]  # B_1 at indices 2-n .. 0
    windows /= t0
    theta = _order_steps(windows, 1)
    f = theta[0, 0].copy()  # F_n = (theta_00 + z theta_01) / t0
    f[1:] += theta[0, 1, : n - 1]
    w = theta[1, 1].copy()  # G_n = (theta_10 + z theta_11) / t0 = z W_n
    w[:-1] += theta[1, 0, 1:]
    return f / t0, w / t0


def _order_steps(windows, k0):
    """The transform theta of order steps k0, ..., k0 + h - 1, where
    `windows` has shape (2, 2, h).

    Levinson order step k takes F = T_k^-1 e_0 and G = z W, with
    W = T_k^-1 e_(k-1), as polynomials in z, to

        F' = (F - eps G) / d,    G' = z (G - delta F) / d,    d = 1 - eps delta,

    where eps is the coefficient of z^k in A = t(z) F, and delta the
    coefficient of z^0 in B = t(z) G.  A and B step along with F and G, so
    a run of h steps is one 2-by-2 matrix theta of polynomials of degree
    <= h, returned with shape (2, 2, h + 1).  Its reflection coefficients
    depend only on two windows of (A, B) at order k0: `windows[:, 0]` holds
    (A, B) at indices k0 .. k0 + h - 1 and `windows[:, 1]` at indices
    1 - h .. 0.

    Up to LEVINSON_LEAF steps run one by one (_step_block).  Longer runs
    split in half: theta_1 of the first half transforms both windows, whose
    positions [h1, h) are the windows of the second half, and
    theta = theta_2 theta_1.  Both products are FFT products of length
    fast_len(h + 1) that share one transform of theta_1.
    """
    h = windows.shape[-1]
    if h <= LEVINSON_LEAF:
        return _step_block(windows, k0)
    h1 = h // 2
    first = _order_steps(
        np.stack([windows[:, 0, :h1], windows[:, 1, h - h1:]], axis=1), k0)
    size = fast_len(h + 1)
    real = not np.iscomplexobj(windows)
    both = np.zeros((2, 4, h), dtype=windows.dtype)
    both[:, :2, : h1 + 1] = first
    both[:, 2:] = windows
    spec = forward(both, size, real)
    spec1 = spec[:, :2]
    second = _order_steps(
        inverse(_poly_matmul(spec1, spec[:, 2:]), size, real)[..., h1:h], k0 + h1)
    return inverse(_poly_matmul(forward(second, size, real), spec1), size, real)[..., : h + 1]


def _poly_matmul(p, q):
    """The 2-by-2 matrix p times the 2-by-k matrix q, entrywise in frequency."""
    return p[:, :1] * q[0] + p[:, 1:] * q[1]


def _step_block(windows, k0):
    """theta of h = windows.shape[-1] order steps, one at a time.

    A buffer holds rows R = (F-like, G-like) over positions -1 .. h + 1, with
    four columns each: theta's two columns and the two windows.  A step is
    R <- R - [eps; delta] R[::-1] and a shift of the second row by one
    position (the factor z).  Reading from one buffer and writing into the
    other through a view whose second row starts one position further, the
    shift costs nothing, and position -1, kept zero, fills position 0.  The
    division by d is deferred: the rows carry a common factor c, divided out
    of the reflection coefficients and, at the end, out of theta.
    """
    h = windows.shape[-1]
    row = (h + 3) * 4  # one buffer row: positions -1 .. h + 1, four columns
    width = (h + 2) * 4  # positions -1 .. h
    bufs = np.zeros((2, 2 * row + 8), dtype=windows.dtype)
    start = bufs[0, : 2 * row].reshape(2, h + 3, 4)
    start[0, 1, 0] = start[1, 1, 1] = 1.0  # theta = identity
    start[:, 1: h + 1, 2:] = windows.transpose(0, 2, 1)
    reads = [buf[: 2 * row].reshape(2, row)[:, :width] for buf in bufs]
    writes = [buf[: 2 * row + 8].reshape(2, row + 4)[:, :width] for buf in bufs]
    flipped = [r[::-1] for r in reads]
    coef = np.empty((2, 1), dtype=windows.dtype)
    tmp = np.empty_like(reads[0])
    at_delta = row + h * 4 + 3  # second row, position h - 1, delta window
    c = 1.0
    flats = list(bufs)
    for s in range(h):
        cur = flats[s & 1]
        eps = cur.item((s + 1) * 4 + 2) / c
        delta = cur.item(at_delta) / c
        coupling = eps * delta
        denom = 1.0 - coupling
        if abs(denom) <= BREAKDOWN_RTOL * max(1.0, abs(coupling)):
            raise BreakdownError(f"Levinson breakdown at order {k0 + s + 1}: "
                                 f"singular leading minor; {_FALLBACK_ADVICE}")
        coef[0, 0] = eps
        coef[1, 0] = delta
        out = writes[(s + 1) & 1]
        np.multiply(flipped[s & 1], coef, out=tmp)
        np.subtract(reads[s & 1], tmp, out=out)
        c *= denom
        if not _SCALE_MIN < abs(c) < _SCALE_MAX:
            out *= 1.0 / c
            c = 1.0
    rows = bufs[h & 1, : 2 * row].reshape(2, h + 3, 4)
    return rows[:, 1: h + 2, :2].transpose(0, 2, 1) / c


def _gs_solve(f, w, size, real):
    """x -> T^-1 x by the Gohberg-Semencul formula

        T^-1 = (1/f_0) [L(f) U(J w) - L(Z w) U(Z J f)],

    with L(v) and U(v) the lower and upper triangular Toeplitz matrices of
    first column (row) v, J the reversal and Z the down shift.  U(J u) x is
    entries n-1 .. 2n-2 of the convolution u * x, so the formula is two
    rounds of FFT products of length `size` >= 2n - 1: the upper factors,
    cropped, then the lower ones.  `real` says f, w and every operand are
    real.
    """
    n = f.shape[0]
    gens = np.zeros((4, n), dtype=np.result_type(f, w))
    gens[0] = w
    gens[1, : n - 1] = f[1:]  # J Z J f, so that U(Z J f) = U(J gens[1])
    gens[2] = f / f[0]
    gens[3, 1:] = w[: n - 1] / f[0]  # Z w
    spec = forward(gens, size, real)
    upper, lower = spec[:2], spec[2:]

    def solve(x):
        u = inverse(upper * forward(x, size, real), size, real)[:, n - 1: 2 * n - 1]
        v = lower * forward(u, size, real)
        return inverse(v[0] - v[1], size, real)[:n]

    return solve


def toep_lstsq(T: Toeplitz, b) -> np.ndarray:
    """Least-squares solution of a strictly overdetermined Toeplitz system.

    Below LSTSQ_DENSE_CUTOFF columns _dense_solve's Householder QR is used;
    above it, preconditioned conjugate gradient on the normal equations
    T* T x = T* b with fast Toeplitz products (CGLS, see _cgls), which
    iterates in PCG's loop, _cg_cycle.  It divides by the optimal circulant
    of the normal matrix (T. Chan, SIAM J. Sci. Stat. Comput. 9 (1988);
    R. Chan, Nagy and Plemmons, SIAM J. Matrix Anal. Appl. 15 (1994)),
    which takes 3:1 complex random systems from 51-62 iterations to about
    30, and it stops when ||T*(b - T x)|| <= LSTSQ_RTOL ||T* b||.
    Underdetermined input raises.

    Only the QR path detects numerical rank deficiency and raises
    RankDeficientError.  A full-rank system has one least-squares
    solution; on numerically rank-deficient input the preconditioned
    iterates leave the range of T*, so CGLS returns a least-squares
    solution but not, in general, the minimum-norm one (the 128-by-64
    all-ones T with b = ones gives ||x|| = 0.59, not 0.125).  CGLS raises
    RankDeficientError when it does not converge, at the 5n iteration cap
    or at the first iteration whose A p = T p is zero or not finite (or
    whose residual has a non-finite entry, after an overflow); the
    message says which stopped it and after how many iterations, and names
    both causes it cannot tell apart: rank deficiency, or a full-rank
    system too ill-conditioned for the normal equations.
    """
    if not isinstance(T, Toeplitz):
        raise TypeError("toep_lstsq expects a Toeplitz matrix")
    m, n = T.shape
    _check_overdetermined(m, n)
    if n < LSTSQ_DENSE_CUTOFF:
        return _dense_solve(T.full(), b)
    return _cgls(T, _finite_rhs(b, m))


def _solver_size(T: Toeplitz) -> int:
    """Transform length of the CGLS and PCG products with T (see the
    module docstring)."""
    return fast_len(T._exact_order())


def _cgls(T: Toeplitz, b):
    """Preconditioned CGLS: conjugate gradient on T^H T x = T^H b with
    T's products at _solver_size(T), dividing by P, the leading n-by-n
    block of M^-1 for the circulant M = _optimal_normal(T, N) of order
    N >= n (see the module docstring).  P is Hermitian positive definite,
    applied as x -> M.solve([x; 0])[:n].  It runs _cg_cycle on the residual
    r = b - T x with the curvature ||T p||^2, and the gradient T^H r
    recomputed from r every iteration, never updated; the stop tests the
    unpreconditioned ||T^H r|| (see toep_lstsq)."""
    n = T.shape[1]
    product, adjoint = T._products(_solver_size(T))
    dtype = np.result_type(T.dtype, b.dtype, np.float64)
    r = b.astype(dtype)
    if not r.any():  # b = 0
        return np.zeros(n, dtype=dtype)
    M = _optimal_normal(T, fast_len(n + n // 8))
    padded = np.zeros(M.n, dtype=dtype)

    def precond(s):
        padded[:n] = s
        z = M.solve(padded)[:n]
        return z, np.real(np.vdot(s, z))

    def gradient(r):
        s = adjoint(r)
        return s, np.linalg.norm(s)

    s = adjoint(r)
    x, k, flag = _cg_cycle(r, s, product, lambda q, p: np.real(np.vdot(q, q)), gradient,
                           precond, LSTSQ_RTOL * np.linalg.norm(s), 5 * n)
    if flag is SolveFlag.CONVERGED:
        return x
    stop = ("A p is zero or not finite" if flag is SolveFlag.BREAKDOWN
            else "iteration cap 5n reached")
    raise RankDeficientError(
        f"CGLS did not converge: {stop}; normal-equations residual stagnated after "
        f"{k} iteration{'s' if k > 1 else ''}; the input is rank deficient or too "
        "ill-conditioned"
    )


def _as_operator(A):
    """The product with an operator argument, a callable or what passed
    as_square: a Toeplitz operator's at _solver_size, any other's own @."""
    if callable(A):
        return A
    if isinstance(A, Toeplitz):
        return A._products(_solver_size(A))[0]
    return A.__matmul__


def _corner_split(T: Toeplitz, M: Circulant):
    """The corner positions of D = T - M and its dense block there, or None.

    T is square Toeplitz and M circulant, both of order n, so D is Toeplitz
    with diagonal d_l = t_l - c_(l mod n).  Let k be the least width with
    D zero on every lag |l| < n - k.  Then D is the sum of the k-by-k
    Toeplitz blocks D[:k, n-k:] and D[n-k:, :k], and D v lives on the 2k
    corner positions S = (n-k, ..., n-1, 0, ..., k-1), in this cyclic
    order, and depends only on v[S]: (D v)[S] = D_S v[S] with the dense
    2k-by-2k block D_S = D[S][:, S].  For a T of band beta and its Strang
    preconditioner, k <= beta.

    The split is taken when 4k <= n and (2k)^2 <= n log2(n): PCG on the
    split then works in the 2k corner coordinates (see _corner_path), two
    dense 2k-by-2k products an iteration, and the second test weighs
    them against the order-n transform pair that the product path makes
    per iteration.  For a dense T, k = floor(n/2) under Strang.  Returns
    (S, D_S).  Entries of D_S below the smallest normal double are set to
    zero: a Gaussian kernel's tail holds hundreds of subnormals (342 at
    n = 5000, k = 86), and they make the block product several times slower.
    They are zeroed once in D's folded diagonal, of length n, before the
    block copies each of them along a whole diagonal.
    """
    n = M.n
    d = T.t - np.concatenate((M.col[1:], M.col))
    # nonzero runs several times faster on a boolean mask than on floats
    lags = np.flatnonzero(d != 0) - (n - 1)
    k = n - int(np.abs(lags).min()) if lags.size else 0
    if 4 * k > n or 4 * k * k > n * np.log2(n):
        return None
    S = np.arange(n - k, n + k) % n
    # D's lags folded mod n hold the lags between the corners exactly: q - n
    # at q = 1 .. 2k-1 and q at q = n-2k+1 .. n-1, as D is zero on the other
    # lag of each pair.  Within a corner the lags are |l| < k, where D is zero.
    folded = d[n - 1:].copy()
    folded[1:] += d[: n - 1]
    parts = folded.view(folded.real.dtype)  # real and imaginary parts
    parts[np.abs(parts) < np.finfo(parts.dtype).tiny] = 0
    block = _corner_gram(folded, 2 * k)
    block[:k, :k] = block[k:, k:] = 0
    return S, block


def _corner_gram(w, m):
    """Gamma[i, j] = w[(i - j) mod n] for i, j < m: the block of the
    circulant with first column w on m cyclically consecutive positions,
    which is Toeplitz, read as windows over its 2m - 1 diagonals."""
    if m == 0:
        return np.zeros((0, 0), dtype=w.dtype)
    # w at lags m-1 .. 1-m: row i is the window that starts at lag i
    diagonals = w[np.arange(m - 1, -m, -1) % w.shape[0]]
    return np.ascontiguousarray(np.lib.stride_tricks.sliding_window_view(diagonals, m)[::-1])


def pcg_solve(
    apply_A,
    b,
    M: Circulant | None = None,
    tol: float = 1e-7,
    maxit: int | None = None,
) -> tuple[np.ndarray, SolveReport]:
    """Preconditioned conjugate gradient for Hermitian positive definite
    operators.

    `apply_A` may be a callable, or a square matrix under as_square: a
    structured matrix or a dense array; a Toeplitz operator's products run
    at _solver_size (see the module docstring).  M is a Circulant or None.
    The circulant preconditioner is applied by `M.solve`, which raises
    SingularMatrixError for a singular M; b's length is checked against M
    up front, and b must be finite.

    The solve is a run of refinement cycles.  Each cycle is one run of the
    conjugate-gradient loop _cg_cycle, which CGLS shares, from zero on the
    residual r0 = b - A x of the current x, starting with r0 = b, and stops
    when its recurrence residual satisfies ||r|| <= tol * ||b||.  Then x += dx, and the true residual is
    recomputed; the solve stops when it meets tol (converged), on
    breakdown, or after `maxit` iterations over all cycles.  The report
    carries the last true relative residual.  A cycle that misses tol,
    because its recurrence drifted from the true residual, is a step of
    iterative refinement, and its successor starts with p = M^-1 r0.

    A Toeplitz operator T whose difference from M lives in two k-by-k
    corner blocks with 4k <= n and (2k)^2 <= n log2(n) (see _corner_split;
    so for the Strang preconditioner of a banded T) runs its cycles in the
    2k corner coordinates of _corner_path: an iteration makes no order-n
    transform, only products with two dense 2k-by-2k blocks, a cycle
    calls M.solve once to start and once to form dx, and T's own spectrum
    is never built.  The true residual is b - (M x + (T - M) x).  A cycle
    is accurate to about eps cond(M).
    """
    if not tol > 0:  # NaN fails this too
        raise ValueError(f"tol must be positive, got {tol}")
    if M is not None and not isinstance(M, Circulant):
        raise TypeError(f"pcg_solve's M must be a Circulant or None, got {type(M).__name__}")
    if not callable(apply_A):
        apply_A = as_square(apply_A, "pcg_solve")
    bv = _finite_rhs(b, None if callable(apply_A) else apply_A.shape[0])
    if maxit is None:
        maxit = bv.shape[0]
    if maxit < 1:
        raise ValueError(f"maxit must be at least 1, got {maxit}")
    bnorm = np.linalg.norm(bv)
    if bnorm == 0.0:
        return np.zeros_like(bv), SolveReport(0, 0.0, SolveFlag.CONVERGED)

    split, solve = None, (lambda v: v) if M is None else M.solve
    if M is not None:
        # _corner_split reads M before any solve checks b's length
        as_operand(bv, "right-hand side", M.n)
        if isinstance(apply_A, Toeplitz):
            split = _corner_split(apply_A, M)

    if split is None:
        product = _as_operator(apply_A)
        rules = _pcg_callables(np.vdot, np.linalg.norm, solve)

        def cycle(r0):
            return r0, product, *rules, lambda x: x
    else:
        product, cycle = _corner_path(M, split)

    x, r0, iterations = 0.0, bv, 0
    while True:
        r, *callables, lift = cycle(r0)
        dx, steps, flag = _cg_cycle(r, r, *callables, tol * bnorm, maxit - iterations)
        iterations += steps
        x = x + lift(dx)
        r0 = bv - product(x)
        rel = float(np.linalg.norm(r0) / bnorm)
        if flag is SolveFlag.BREAKDOWN or rel <= tol or iterations == maxit:
            break
    if flag is not SolveFlag.BREAKDOWN:
        flag = SolveFlag.CONVERGED if rel <= tol else SolveFlag.MAX_ITERATIONS
    return x, SolveReport(iterations, rel, flag)


def _pcg_callables(inner, norm, solve):
    """PCG's curvature, gradient and preconditioner for _cg_cycle, from the
    inner product inner(r, z) = r^H z of a residual r and a direction z,
    the norm of a residual and the map `solve` of a residual to a direction.
    The gradient is the residual itself."""

    def precond(r):
        z = solve(r)
        return z, inner(r, z)

    return (lambda q, p: np.conj(inner(q, p))), (lambda r: (r, norm(r))), precond


def _cg_cycle(r, g, product, curvature, gradient, precond, target, maxit):
    """Preconditioned conjugate gradient from x = 0: the one CG loop of
    PCG and CGLS, in whatever coordinates its callables share.

    r is the residual and g the gradient at x = 0.  product(p) maps a
    direction p to q, so that the step x + alpha p leaves the residual
    r - alpha q; curvature(q, p) is p's curvature, p^H A p for PCG's
    operator A and ||T p||^2 for CGLS; gradient(r) is (g, ||g||) at the
    residual r; and precond(g) is (z, rho) for the preconditioned gradient
    z and rho = g^H z.

    Stops with CONVERGED when ||g|| <= target, with MAX_ITERATIONS after
    `maxit` iterations, or with BREAKDOWN: a curvature zero or not finite,
    or a residual with a non-finite entry.  Returns (x, iterations, flag).
    """
    z, rho = precond(g)
    x = np.zeros(z.shape, dtype=np.result_type(r, z))
    p = z
    for iterations in range(1, maxit + 1):
        q = product(p)
        pq = curvature(q, p)
        if not np.isfinite(pq) or pq == 0.0:
            return x, iterations, SolveFlag.BREAKDOWN
        alpha = rho / pq
        x = x + alpha * p  # out of place: a complex operator upcasts a real x
        r = r - alpha * q
        g, gnorm = gradient(r)
        # a non-finite entry makes the norm non-finite, but an overflowing
        # norm alone is no breakdown
        if not np.isfinite(gnorm) and not np.all(np.isfinite(r)):
            return x, iterations, SolveFlag.BREAKDOWN
        if gnorm <= target:
            return x, iterations, SolveFlag.CONVERGED
        z, rho_new = precond(g)
        p = z + (rho_new / rho) * p
        rho = rho_new
    return x, maxit, SolveFlag.MAX_ITERATIONS


def _corner_path(M, split):
    """The product and the cycle coordinates of PCG for T = M + D, D = T - M
    living on the 2k corner positions S (see _corner_split).

    A cycle on the residual r0 divides once: g = M.solve(r0).  With E the
    n-by-2k selection of S, every residual of the cycle is a r0 + E c and
    every direction and iterate a g + M^-1 E c, for a scalar a and a
    2k-vector c, because M^-1 T = I + M^-1 E D_S E^T.  A residual is held
    as the vector (a, c), and a direction as (a, c, v_S), with v_S its
    values on S, which every linear combination carries along.  So M p is
    (a, c) read as a residual, and T p is (a, c + D_S v_S).  The
    preconditioner's v_S = a g[S] + Gamma c, with Gamma = E^T M^-1 E a
    Toeplitz block of M^-1's first column, M.inv().col (see _corner_gram).
    The inner product needs rho0 = <r0, g>, Gamma's product and
    h[S] = (M^-H r0)[S], which is g[S] when M is Hermitian (its column its
    own conjugate cyclic reverse, tested exactly; M == M.H would build a
    value) and else costs one more division, M.H.solve(r0); and
    ||r||^2 = |a|^2 ||r0 off S||^2 + ||a r0[S] + c||^2.  An iteration is
    one product with Gamma and one with D_S.  One M.solve lifts the
    iterate to an n-vector.

    Returns (product, cycle): the product with T as M.matvec(x) + D x, for
    the true residual, and the map from r0 to the cycle's start in these
    coordinates: the residual, _cg_cycle's callables and lift.
    """
    S, block = split
    n, m = M.n, S.shape[0]
    k = m // 2
    hermitian = np.array_equal(M.col, np.conj(cyclic_reverse(M.col)))
    gamma = _corner_gram(M.inv().col, m)

    def product(v):
        out = M.matvec(v)
        out[S] += block @ v[S]
        return out

    def corner_product(p):
        return np.concatenate((p[:1], p[1: m + 1] + block @ p[m + 1:]))

    def cycle(r0):
        g = M.solve(r0)
        rho0, g_S, r0_S = np.vdot(r0, g), g[S], r0[S]
        h_S = g_S if hermitian else M.H.solve(r0)[S]
        off = r0[k: n - k]
        off2 = np.vdot(off, off).real

        def corner_precond(r):
            return np.concatenate((r, r[0] * g_S + gamma @ r[1:]))

        def inner(r, z):
            c_z = z[1: m + 1]
            return np.conj(r[0]) * (z[0] * rho0 + np.vdot(h_S, c_z)) + np.vdot(r[1:], z[m + 1:])

        def norm(r):
            r_S = r[0] * r0_S + r[1:]
            return np.sqrt(abs(r[0]) ** 2 * off2 + np.vdot(r_S, r_S).real)

        def lift(x):
            v = x[0] * r0
            v[S] += x[1: m + 1]
            return M.solve(v)

        r = np.zeros(m + 1, dtype=np.result_type(r0, g, block))
        r[0] = 1.0
        return r, corner_product, *_pcg_callables(inner, norm, corner_precond), lift

    return product, cycle


# -- user-replaceable direct solvers --------------------------------------


def _dense_solve(A: np.ndarray, b) -> np.ndarray:
    """Solve with a dense matrix: LU when square, Householder QR when tall.
    Wide input raises UnderdeterminedError, and a tall A whose R diagonal
    spans more than 1 / LSTSQ_RDIAG_RTOL raises RankDeficientError.

    A square A whose reciprocal 1-norm condition number is at most eps
    raises SingularMatrixError, after the solve, so an exactly singular A
    still raises numpy's LinAlgError.  LU's backward error stays small on
    such input (5e-17 on tdramadah 200 with b = T 1, cond 4e50), so only the
    condition number tells that its answer is meaningless."""
    m, n = A.shape
    if m == n:
        x = np.linalg.solve(A, _finite_rhs(b, m))
        with np.errstate(all="ignore"):
            cond = np.linalg.cond(A, 1)
        if not cond * np.finfo(x.dtype).eps < 1:  # written to fail on NaN
            raise SingularMatrixError(f"numerically singular: condition number {cond:.1e}")
        return x
    _check_overdetermined(m, n)
    bv = _finite_rhs(b, m)
    q, r = np.linalg.qr(A)
    rd = np.abs(np.diag(r))
    if rd.min() <= LSTSQ_RDIAG_RTOL * rd.max():
        raise RankDeficientError(
            "rank deficient: QR diagonal spans more than "
            f"{1 / LSTSQ_RDIAG_RTOL:.0e}"
        )
    return np.linalg.solve(r, q.conj().T @ bv)


def _dense_tsolve(T: Toeplitz, b) -> np.ndarray:
    """Default registered solver of both division routes: _dense_solve on
    the full matrix."""
    return _dense_solve(T.full(), b)


_solver_lock = threading.Lock()
_user_solvers = {"tsolve": _dense_tsolve, "tsolvels": _dense_tsolve}


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


def _solve(A, b, method: str = "auto", **pcg) -> tuple[np.ndarray, SolveReport]:
    """Solve A x = b for a Toeplitz, circulant or dense A: the one route
    that picks the algorithm from the operand kind and `method`.

    "pcg" is pcg_solve(A, b, **pcg), with its own report; the direct
    methods ignore `pcg`.  "levinson" and "lstsq" are levinson_solve and
    toep_lstsq, and need a Toeplitz A.  "auto" is toep_divide under the
    active configuration for a Toeplitz A, Circulant.solve for a circulant
    and _dense_solve for a dense array.  A direct answer's report is
    SolveReport(0, ||b - A x|| / ||b||, CONVERGED), with 0.0 when b = 0.
    Every solver is looked up by its module name at the call, so a wrapper
    installed on this module, such as a tracer, sees it.
    """
    if method == "pcg":
        return pcg_solve(A, b, **pcg)
    if method == "auto":
        x = (toep_divide(A, b) if isinstance(A, Toeplitz)
             else A.solve(_finite_rhs(b, A.n)) if isinstance(A, Circulant)
             else _dense_solve(A, b))
    elif not isinstance(A, Toeplitz):
        raise StructmatError(f"--method {method} requires a Toeplitz matrix file")
    else:
        x = {"levinson": levinson_solve, "lstsq": toep_lstsq}[method](A, b)
    bnorm = np.linalg.norm(b)
    residual = float(np.linalg.norm(b - A @ x) / bnorm) if bnorm else 0.0
    return x, SolveReport(0, residual, SolveFlag.CONVERGED)
