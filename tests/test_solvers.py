import re
from collections import Counter

import numpy as np
import pytest

from structmat import (
    BreakdownError,
    Circulant,
    Config,
    DimensionMismatchError,
    EmbeddingPolicy,
    RankDeficientError,
    SingularMatrixError,
    SolveFlag,
    StructmatError,
    Toeplitz,
    UnderdeterminedError,
    config_set,
    embedded_size,
    fast_len,
    levinson_solve,
    optimal,
    pcg_solve,
    register_tsolve,
    register_tsolvels,
    smtgallery,
    solvers,
    strang,
    superoptimal,
    toep_divide,
    toep_lstsq,
)
from structmat import _structured, circulant

from structmat.dft import spectral_apply

from conftest import dense_toeplitz, random_complex, rel_err, same_bits


def dominant_toeplitz(rng, n, complex_entries=True):
    t = random_complex(rng, 2 * n - 1) if complex_entries else rng.standard_normal(2 * n - 1)
    t[n - 1] += 4.0 * np.sqrt(n)  # diagonal dominance keeps every minor nonsingular
    return Toeplitz.from_diagonals(t, n, n)


# -- levinson ---------------------------------------------------------------


def test_levinson_identity():
    ident = Circulant([1.0, 0.0, 0.0]).to_toeplitz()
    b = np.array([4.0, -1.0, 2.0])
    assert np.allclose(levinson_solve(ident, b), b)


def test_levinson_kms_example():
    K = smtgallery("tkms", 3, rho=0.5)
    b = np.array([1.75, 2.0, 1.75])
    x = levinson_solve(K, b)
    assert np.allclose(x, np.ones(3), atol=1e-12)
    assert np.allclose(np.linalg.solve(K.full(), b), x, atol=1e-12)


def test_levinson_breakdown_on_singular_leading_minor():
    for T, order, cause in [
        (Toeplitz([0.0, 1.0, 0.5]), 1, "zero leading entry"),  # t0 = 0: first pivot vanishes
        (Toeplitz.from_diagonals(np.ones(5), 3, 3), 2, "singular leading minor"),
        (smtgallery("tphans", 12), 9, "singular leading minor"),  # rank 8
        (smtgallery("tchow", 12), 2, "singular leading minor"),
        (smtgallery("ttoeppen", 8), 1, "zero leading entry"),  # its main diagonal is 0
    ]:
        message = f"Levinson breakdown at order {order}: {cause}; {solvers._FALLBACK_ADVICE}"
        with pytest.raises(BreakdownError, match=f"^{re.escape(message)}$"):
            levinson_solve(T, np.ones(T.shape[0]))


def test_levinson_shape_errors():
    T = Toeplitz.from_diagonals([1.0, 2.0, 3.0, 4.0], 2, 3)
    with pytest.raises(DimensionMismatchError):
        levinson_solve(T, np.ones(3))
    with pytest.raises(DimensionMismatchError):
        levinson_solve(smtgallery("tkms", 3), np.ones(4))


def test_levinson_certificate_rejects_ill_conditioned_systems():
    # cond ~1e17: the recursion keeps going, but the answer's backward error
    # lands at 1e-11 (relative residual 9.2) up to 1e-2, above BACKWARD_RTOL
    for name, n in [("tprolate", 61), ("tprolate", 200), ("tprolate", 257),
                    ("tdramadah", 200)]:
        T = smtgallery(name, n)
        for b in (T @ np.ones(n), np.ones(n)):
            with pytest.raises(BreakdownError, match=r"^Levinson backward error \S+ exceeds "
                               rf"1e-12; {re.escape(solvers._FALLBACK_ADVICE)}$"):
                levinson_solve(T, b)


@pytest.mark.parametrize("n", [300, 800])
@pytest.mark.parametrize("solve", [levinson_solve, toep_divide])
def test_levinson_refuses_numerically_singular_answers(n, solve):
    # cond_1 1.1e19 and 9.7e19: the recursion and the backward-error
    # certificate pass, but x reaches 2.6e24 at a relative residual of 1.2e9
    # (n = 300); eps ||T||_1 ||x||_1 >= ||b||_1 refuses it, as the dense
    # path's rule cond_1(T) eps >= 1 refuses both systems
    T = smtgallery("tprolate", n)
    b = np.random.default_rng(0).standard_normal(n)
    with pytest.raises(SingularMatrixError,
                       match=r"^numerically singular: \|\|T\|\|_1 \|\|x\|\|_1 / \|\|b\|\|_1 = "
                       r"\S+ is at least 1/eps$"):
        solve(T, b)
    with pytest.raises(SingularMatrixError):
        solvers._dense_solve(T.full(), b)
    assert not solve(T, np.zeros(n)).any()  # b = 0 still gives x = 0


def test_levinson_answers_an_ill_conditioned_regular_system():
    # gaussian 800 has cond_1 2.6e10, far from eps^-1: no refusal
    n = 800
    T = smtgallery("gaussian", n)
    b = np.random.default_rng(0).standard_normal(n)
    x = levinson_solve(T, b)
    A = T.full()
    assert np.linalg.norm(b - A @ x) / np.linalg.norm(b) <= 1e-6
    assert rel_err(x, np.linalg.solve(A, b)) <= 1e-4


@pytest.mark.parametrize("n", [527, 1100])
def test_levinson_overflow_raises_a_typed_error(n):
    # ttriw's inverse grows like 2^n: from n = 527 the Gohberg-Semencul
    # products overflow, and near n = 1030 the order steps too.  Tier 1 turns
    # any numpy warning into an error, so this also checks that none leaks.
    T = smtgallery("ttriw", n)
    with pytest.raises(BreakdownError, match=r"^Levinson overflow in the solution; "
                       rf"{re.escape(solvers._FALLBACK_ADVICE)}$"):
        levinson_solve(T, T @ np.ones(n))


LEAF = solvers.LEVINSON_LEAF


# n - 1 order steps run as one block up to n = LEAF + 1, and split above it
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 61, 64, LEAF - 1, LEAF, LEAF + 1,
                               LEAF + 2, 2 * LEAF + 1, 2 * LEAF + 2, 256, 257])
def test_levinson_matches_dense_lu(n):
    rng = np.random.default_rng(300 + n)
    reps = 4 if n >= 61 else 17
    for _ in range(reps):
        systems = [
            (dominant_toeplitz(rng, n), random_complex(rng, n)),
            (dominant_toeplitz(rng, n, complex_entries=False), random_complex(rng, n)),
            (dominant_toeplitz(rng, n), rng.standard_normal(n)),
            (dominant_toeplitz(rng, n, complex_entries=False), rng.standard_normal(n)),
            (dominant_toeplitz(rng, n, complex_entries=False), rng.integers(-9, 10, n)),
        ]
        for T, b in systems:
            x = levinson_solve(T, b)
            assert x.dtype == np.result_type(T.dtype, b.dtype, np.float64)
            assert rel_err(x, np.linalg.solve(T.full(), b)) <= 1e-8
    K = smtgallery("ttoeppd", n, seed=n)  # a symmetric positive definite gallery matrix
    b = rng.standard_normal(n)
    x = levinson_solve(K, b)
    assert x.dtype == np.float64
    assert rel_err(x, np.linalg.solve(K.full(), b)) <= 1e-8


@pytest.mark.parametrize("n", [1, 2, 7, 96, 97, 98, 300])
def test_levinson_matches_scipy_solve_toeplitz(n):
    linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(700 + n)
    for complex_entries in (True, False):
        T = dominant_toeplitz(rng, n, complex_entries)
        b = random_complex(rng, n) if complex_entries else rng.standard_normal(n)
        a = T.t
        want = linalg.solve_toeplitz((a[n - 1:], a[n - 1::-1]), b)
        x = levinson_solve(T, b)
        assert x.dtype == want.dtype
        assert rel_err(x, want) <= 1e-12


# -- least squares ----------------------------------------------------------


def test_lstsq_mean_of_ones_column():
    T = Toeplitz.from_diagonals([1.0, 1.0, 1.0], 3, 1)
    assert np.allclose(toep_lstsq(T, [1.0, 2.0, 3.0]), [2.0])


def test_lstsq_recovers_exact_solution():
    rng = np.random.default_rng(17)
    t = random_complex(rng, 12)
    T = Toeplitz.from_diagonals(t, 8, 5)
    x0 = random_complex(rng, 5)
    b = T @ x0
    assert rel_err(toep_lstsq(T, b), x0) <= 1e-8


def test_lstsq_underdetermined_errors():
    T = Toeplitz.from_diagonals(np.ones(9), 4, 6)
    with pytest.raises(UnderdeterminedError, match="underdetermined"):
        toep_lstsq(T, np.ones(4))
    square = smtgallery("tkms", 4)
    with pytest.raises(UnderdeterminedError):
        toep_lstsq(square, np.ones(4))


def test_lstsq_rank_deficient_errors():
    # column space has rank 1: every column is the same constant vector
    T = Toeplitz.from_diagonals(np.ones(7), 5, 3)
    with pytest.raises(RankDeficientError):
        toep_lstsq(T, np.arange(5.0))


@pytest.mark.parametrize("shape", [(9, 4), (20, 7), (90, 70), (130, 96)])
def test_lstsq_matches_dense_qr(shape):
    m, n = shape
    rng = np.random.default_rng(m * 7 + n)
    t = random_complex(rng, m + n - 1)
    T = Toeplitz.from_diagonals(t, m, n)
    b = random_complex(rng, m)
    got = toep_lstsq(T, b)
    want, *_ = np.linalg.lstsq(dense_toeplitz(t, m, n), b, rcond=None)
    assert rel_err(got, want) <= 1e-7


def test_lstsq_real_cgls_stays_real():
    rng = np.random.default_rng(29)
    m, n = 192, 80  # n >= LSTSQ_DENSE_CUTOFF: the CGLS path
    t = rng.standard_normal(m + n - 1)
    t[n - 1] += 2.0 * np.sqrt(m)
    T = Toeplitz.from_diagonals(t, m, n)
    b = rng.standard_normal(m)
    got = toep_lstsq(T, b)
    want, *_ = np.linalg.lstsq(dense_toeplitz(t, m, n), b, rcond=None)
    assert got.dtype == np.float64
    assert rel_err(got, want) <= 1e-10


def test_lstsq_normal_equations_residual():
    rng = np.random.default_rng(23)
    t = random_complex(rng, 100)
    T = Toeplitz.from_diagonals(t, 65, 36)
    b = random_complex(rng, 65)
    x = toep_lstsq(T, b)
    lhs = np.linalg.norm(T.H @ (T @ x - b))
    assert lhs <= 1e-8 * np.linalg.norm(T.H @ b)


# -- pcg ----------------------------------------------------------------------


def test_pcg_identity_one_iteration():
    ident = Circulant([1.0, 0, 0, 0])
    b = np.array([1.0, 2.0, 3.0, 4.0])
    x, report = pcg_solve(ident, b)
    assert report.flag is SolveFlag.CONVERGED and report.iterations == 1
    assert np.allclose(x, b)


def test_pcg_perfect_preconditioner_one_iteration():
    A = Circulant([6.0, 1.0, 0.5, 1.0])  # symmetric positive definite
    b = np.arange(1.0, 5.0)
    x, report = pcg_solve(A, b, M=A, tol=1e-12)
    assert report.flag is SolveFlag.CONVERGED and report.iterations == 1
    assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_pcg_reported_residual_is_true_residual():
    T = smtgallery("gaussian", 200)
    b = T @ np.ones(200)
    x, report = pcg_solve(T, b, M=strang(T), tol=1e-8, maxit=500)
    A = T.full()
    recomputed = np.linalg.norm(b - A @ x) / np.linalg.norm(b)
    assert report.flag is SolveFlag.CONVERGED
    assert abs(report.relative_residual - recomputed) <= 1e-12


def test_pcg_checks_its_preconditioner_as_solve_does(monkeypatch):
    A = Circulant([4.0, 1.0, 0.0, 1.0])
    b = np.ones(4)
    with pytest.raises(DimensionMismatchError,
                       match="right-hand side has leading dimension 4, expected 3"):
        pcg_solve(A, b, M=Circulant([2.0, 1.0, 1.0]))
    singular = Circulant([1.0, 1.0, 1.0, 1.0])
    with pytest.raises(SingularMatrixError, match="singular circulant"):
        pcg_solve(A, b, M=singular)
    assert pcg_solve(A, np.zeros(4), M=singular)[1].iterations == 0  # M never consulted
    # every preconditioner step equals M.solve bit for bit
    T = smtgallery("gaussian", 200)
    M = strang(T)
    divisions = []

    def recording(spec, arr, rows, real, divide=False):
        out = spectral_apply(spec, arr, rows, real, divide)
        if divide:
            divisions.append((arr.copy(), out))
        return out

    monkeypatch.setattr(circulant, "spectral_apply", recording)
    _, report = pcg_solve(T, T @ np.ones(200), M=M, tol=1e-10)
    monkeypatch.undo()
    assert len(divisions) == report.iterations
    for r, z in divisions:
        assert same_bits(z, M.solve(r))


def test_pcg_split_path_divisions_equal_solve(monkeypatch):
    # gaussian 1000 with p = 0.5 has Strang corners of width 38, and
    # 4 * 38^2 <= 1000 log2(1000), so PCG takes the corner path; its
    # divisions too are M.solve's: one per cycle, and one to form x
    T = smtgallery("gaussian", 1000, p=0.5)
    M = strang(T)
    splits, divisions = [], []
    split_of = solvers._corner_split

    def corner_split(*args):
        splits.append(split_of(*args))
        return splits[-1]

    def recording(spec, arr, rows, real, divide=False):
        out = spectral_apply(spec, arr, rows, real, divide)
        if divide:
            divisions.append((arr.copy(), out))
        return out

    monkeypatch.setattr(solvers, "_corner_split", corner_split)
    monkeypatch.setattr(circulant, "spectral_apply", recording)
    _, report = pcg_solve(T, T @ np.ones(1000), M=M, tol=1e-10)
    monkeypatch.undo()
    assert report.flag is SolveFlag.CONVERGED and report.iterations > 2
    assert len(splits) == 1 and splits[0] is not None and splits[0][0].size == 76
    assert len(divisions) == 2
    for r, z in divisions:
        assert same_bits(z, M.solve(r))


def test_pcg_validation_and_operator_forms():
    b = np.ones(4)
    A = Circulant([4.0, 1.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        pcg_solve(A, b, tol=0.0)
    T = smtgallery("tkms", 200)
    with pytest.raises(ValueError, match="tol must be positive, got nan"):
        pcg_solve(T, np.ones(200), tol=float("nan"))
    with pytest.raises(ValueError):
        pcg_solve(A, b, maxit=0)
    with pytest.raises(DimensionMismatchError, match="pcg_solve requires a square operator"):
        pcg_solve(np.ones((4, 3)), b)
    dense = A.full()
    x1, _ = pcg_solve(dense, b, tol=1e-12)
    x2, _ = pcg_solve(lambda v: dense @ v, b, tol=1e-12)
    assert np.allclose(x1, x2, atol=1e-10)


def test_pcg_preconditioning_reduces_iterations():
    T = smtgallery("gaussian", 1024)
    b = T @ np.ones(1024)
    _, plain = pcg_solve(T, b, tol=1e-7, maxit=3000)
    _, prec = pcg_solve(T, b, M=strang(T), tol=1e-7, maxit=3000)
    assert prec.flag is SolveFlag.CONVERGED
    assert prec.iterations < plain.iterations


@pytest.mark.parametrize("name", ["gaussian", "expdec", "algdec"])
def test_pcg_strang_never_slower_on_gallery(name):
    T = smtgallery(name, 512)
    b = T @ np.ones(512)
    _, plain = pcg_solve(T, b, tol=1e-7, maxit=4000)
    _, prec = pcg_solve(T, b, M=strang(T), tol=1e-7, maxit=4000)
    assert prec.iterations <= plain.iterations



def counted(A):
    """A callable operator for dense `A` that counts its applications."""
    def apply(v):
        apply.calls += 1
        return A @ v
    apply.calls = 0
    return apply


def assert_true_residual(A, b, x, report):
    assert report.relative_residual == np.linalg.norm(b - A @ x) / np.linalg.norm(b)


def test_pcg_breakdown_on_zero_curvature():
    A, b = np.diag([1.0, -1.0]), np.ones(2)  # p* A p = 0 at iteration 1
    x, report = pcg_solve(A, b)
    assert report.flag is SolveFlag.BREAKDOWN and report.iterations == 1
    assert np.array_equal(x, np.zeros(2))
    assert_true_residual(A, b, x, report)


def test_pcg_breakdown_on_overflowing_residual():
    # p* A p = 0.5, so alpha = 2, and alpha * (A p)[1] overflows in r
    A, b = np.array([[0.5, 0.0], [1e308, 1.0]]), np.array([1.0, 0.0])
    with np.errstate(over="ignore"):
        x, report = pcg_solve(A, b)
        assert report.flag is SolveFlag.BREAKDOWN and report.iterations == 1
        assert np.array_equal(x, np.array([2.0, 0.0]))
        assert_true_residual(A, b, x, report)


def test_pcg_recurrence_drift_restarts_from_true_residual():
    # an operator rounded to single precision: the recurrence residual falls
    # below 1e-12 while the true one stays near 1e-8, so the loop restarts
    rng = np.random.default_rng(41)
    n, maxit = 8, 40
    A = smtgallery("tkms", n, rho=0.5).full()
    b = rng.standard_normal(n)
    rounded = counted(A)

    def apply(v):
        return rounded(v).astype(np.float32).astype(np.float64)

    x, report = pcg_solve(apply, b, tol=1e-12, maxit=maxit)
    assert report.flag is SolveFlag.MAX_ITERATIONS and report.iterations == maxit
    assert rounded.calls > maxit + 1  # a true residual was taken mid-run
    assert report.relative_residual == np.linalg.norm(b - apply(x)) / np.linalg.norm(b)


def test_pcg_stops_at_maxit():
    A = smtgallery("gaussian", 64).full()
    b = A @ np.ones(64)
    apply = counted(A)
    x, report = pcg_solve(apply, b, tol=1e-12, maxit=3)
    assert report.flag is SolveFlag.MAX_ITERATIONS and report.iterations == 3
    assert apply.calls == 4  # three iterations, then the true residual
    assert_true_residual(A, b, x, report)


# -- division dispatcher -----------------------------------------------------


def test_divide_routes_square_to_levinson():
    K = smtgallery("tkms", 64, rho=0.5)
    b = K @ np.ones(64)
    x = toep_divide(K, b)
    assert np.allclose(x, levinson_solve(K, b))


def test_divide_toggle_matches_dense_fallback():
    K = smtgallery("tkms", 64, rho=0.5)
    b = K @ np.ones(64)
    fast = toep_divide(K, b)
    config_set("intsolve", "off")
    fallback = toep_divide(K, b)
    assert rel_err(fast, fallback) <= 1e-8
    assert np.allclose(fallback, np.ones(64), atol=1e-8)


def test_divide_routes_overdetermined_to_lstsq():
    rng = np.random.default_rng(29)
    t = rng.standard_normal(12)
    T = Toeplitz.from_diagonals(t, 8, 5)
    b = T @ np.ones(5)
    assert np.allclose(toep_divide(T, b), toep_lstsq(T, b))
    config_set("intsolvels", "off")
    assert rel_err(toep_divide(T, b), toep_lstsq(T, b)) <= 1e-9


def test_divide_underdetermined_errors():
    T = Toeplitz.from_diagonals(np.ones(9), 4, 6)
    with pytest.raises(UnderdeterminedError):
        toep_divide(T, np.ones(4))


def test_divide_errors_when_user_solver_cleared():
    K = smtgallery("tkms", 8)
    config_set("intsolve", "off")
    register_tsolve(None)
    try:
        with pytest.raises(StructmatError, match="no tsolve routine"):
            toep_divide(K, np.ones(8))
    finally:
        from structmat.solvers import _dense_tsolve

        register_tsolve(_dense_tsolve)


def test_user_solver_is_called():
    calls = []

    def my_solver(T, b):
        calls.append(T.shape)
        return np.linalg.solve(T.full(), b)

    K = smtgallery("tkms", 6)
    config_set("intsolve", "off")
    register_tsolve(my_solver)
    try:
        toep_divide(K, np.ones(6))
        assert calls == [(6, 6)]
    finally:
        from structmat.solvers import _dense_tsolve

        register_tsolve(_dense_tsolve)


def test_user_least_squares_solver_is_called():
    calls = []

    def my_solver(T, b):
        calls.append(T.shape)
        return np.zeros(T.shape[1])

    tall = smtgallery("tprand", (9, 4), seed=3)
    default = solvers._user_solvers["tsolvels"]
    register_tsolvels(my_solver)
    try:
        assert np.array_equal(toep_divide(tall, np.ones(9), config=Config(intsolvels=False)),
                              np.zeros(4))
        assert calls == [(9, 4)]
        toep_divide(tall, np.ones(9))  # intsolvels on: the internal solver
        assert calls == [(9, 4)]
    finally:
        register_tsolvels(default)


def test_dense_fallbacks_raise_on_rank_deficient_tall_input():
    # rank 1 of 5: the registered fallback applies the QR path's rank rule
    T = Toeplitz.from_diagonals(np.ones(12), 8, 5)
    b = T @ np.arange(5.0)
    off = Config(intsolvels=False)
    for solve in (lambda: toep_lstsq(T, b), lambda: toep_divide(T, b, config=off)):
        with pytest.raises(RankDeficientError, match="QR diagonal spans"):
            solve()


@pytest.mark.parametrize("shape", [(6, 6), (9, 4), (70, 40)])
def test_dense_fallbacks_match_lapack(shape):
    m, n = shape
    rng = np.random.default_rng(m)
    t = random_complex(rng, m + n - 1)
    t[n - 1] += 4.0 * np.sqrt(n)
    T, b = Toeplitz.from_diagonals(t, m, n), random_complex(rng, m)
    A = dense_toeplitz(t, m, n)
    want = np.linalg.solve(A, b) if m == n else np.linalg.lstsq(A, b, rcond=None)[0]
    off = Config(intsolve=False, intsolvels=False)
    assert rel_err(toep_divide(T, b, config=off), want) <= 1e-12


def test_dense_fallback_rejects_wide_input():
    T = Toeplitz.from_diagonals(np.arange(1.0, 10.0), 4, 6)
    with pytest.raises(UnderdeterminedError):
        toep_divide(T, np.ones(4), config=Config(intsolvels=False))


@pytest.mark.parametrize("solve", [levinson_solve, toep_lstsq, toep_divide],
                         ids=lambda f: f.__name__)
def test_solvers_reject_non_toeplitz(solve):
    with pytest.raises(TypeError, match="Toeplitz"):
        solve(np.eye(3), np.ones(3))
    with pytest.raises(TypeError, match="Toeplitz"):
        solve(Circulant([2.0, 1.0, 0.0]), np.ones(3))


# -- the solve route -----------------------------------------------------------


def _route_operands():
    rng = np.random.default_rng(43)
    n = 24
    square = dominant_toeplitz(rng, n, complex_entries=False)
    tall_t = rng.standard_normal(3 * n - 1)
    tall_t[2 * n - 1] += 8.0
    wide_t = random_complex(rng, 269)  # 200 x 70: CGLS, above the QR cutoff
    wide_t[69] += 30.0
    col = rng.standard_normal(n)
    col[0] += 2.0 * n
    return {
        "toeplitz": square,
        "complex": dominant_toeplitz(rng, n),
        "tall": Toeplitz.from_diagonals(tall_t, 2 * n, n),
        "tall-cgls": Toeplitz.from_diagonals(wide_t, 200, 70),
        "circulant": Circulant(col),
        "dense": square.full() + 0.1 * rng.standard_normal((n, n)),
        "tall-dense": rng.standard_normal((2 * n, n)),
    }


ROUTE_OPERANDS = _route_operands()
NOT_TOEPLITZ = (StructmatError, "requires a Toeplitz matrix file")
# (operand kind, method) -> the public call that the route makes, or the
# error it raises
ROUTES = {
    ("toeplitz", "auto"): toep_divide,
    ("toeplitz", "levinson"): levinson_solve,
    ("toeplitz", "lstsq"): (UnderdeterminedError, "underdetermined"),
    ("complex", "auto"): toep_divide,
    ("complex", "levinson"): levinson_solve,
    ("tall", "auto"): toep_divide,
    ("tall", "levinson"): (DimensionMismatchError, "square"),
    ("tall", "lstsq"): toep_lstsq,
    ("tall-cgls", "auto"): toep_divide,
    ("tall-cgls", "lstsq"): toep_lstsq,
    ("circulant", "auto"): lambda C, b: C.solve(b),
    ("circulant", "levinson"): NOT_TOEPLITZ,
    ("circulant", "lstsq"): NOT_TOEPLITZ,
    ("dense", "auto"): solvers._dense_solve,
    ("dense", "levinson"): NOT_TOEPLITZ,
    ("dense", "lstsq"): NOT_TOEPLITZ,
    ("tall-dense", "auto"): solvers._dense_solve,
    ("tall-dense", "lstsq"): NOT_TOEPLITZ,
}


def direct_report(A, x, b):
    bnorm = np.linalg.norm(b)
    residual = float(np.linalg.norm(b - A @ x) / bnorm) if bnorm else 0.0
    return solvers.SolveReport(0, residual, SolveFlag.CONVERGED)


@pytest.mark.parametrize("kind, method", list(ROUTES), ids=lambda v: v)
def test_route_is_the_public_call(kind, method):
    A = ROUTE_OPERANDS[kind]
    v = random_complex(np.random.default_rng(3), A.shape[1])
    b = A @ (v if kind == "complex" else v.real)  # consistent, so the residual is small
    want = ROUTES[kind, method]
    if isinstance(want, tuple):
        error, message = want
        with pytest.raises(error, match=message):
            solvers._solve(A, b, method)
        return
    x, report = solvers._solve(A, b, method, M=None, tol=1e-3, maxit=1)  # ignored
    assert same_bits(x, want(A, b))
    assert report == direct_report(A, x, b)
    assert report.relative_residual <= 1e-6


@pytest.mark.parametrize("kind", ["toeplitz", "complex", "circulant", "dense"])
@pytest.mark.parametrize("precond", [False, True])
def test_route_pcg_is_pcg_solve(kind, precond):
    A = ROUTE_OPERANDS[kind]
    M = strang(ROUTE_OPERANDS["toeplitz"]) if precond else None
    b = np.random.default_rng(4).standard_normal(A.shape[0])
    x, report = solvers._solve(A, b, "pcg", M=M, tol=1e-9, maxit=40)
    want, want_report = pcg_solve(A, b, M=M, tol=1e-9, maxit=40)
    assert same_bits(x, want) and report == want_report


@pytest.mark.parametrize("kind, method", [key for key, want in ROUTES.items()
                                          if not isinstance(want, tuple)]
                         + [("toeplitz", "pcg"), ("dense", "pcg")], ids=lambda v: v)
def test_route_of_a_zero_rhs(kind, method):
    # CGLS (tall-cgls) used to stop at once on p = 0 and report non-convergence
    A = ROUTE_OPERANDS[kind]
    x, report = solvers._solve(A, np.zeros(A.shape[0]), method)
    assert not x.any() and x.shape == (A.shape[1],)
    assert report == solvers.SolveReport(0, 0.0, SolveFlag.CONVERGED)


SINGULAR_SQUARE = ["tdramadah", "tprolate", "ttriw", "tphans"]  # cond_1 1.3e19 and above


@pytest.mark.parametrize("name", SINGULAR_SQUARE)
def test_dense_square_path_raises_when_numerically_singular(name):
    T = smtgallery(name, 200)
    b = T @ np.ones(200)
    with pytest.raises(SingularMatrixError, match="numerically singular"):
        solvers._dense_solve(T.full(), b)
    with pytest.raises(SingularMatrixError, match="numerically singular"):
        toep_divide(T, b, config=Config(intsolve=False))


@pytest.mark.parametrize("name, kwargs", [("gaussian", {}), ("ttridiag", {}),
                                          ("tkms", {"rho": 0.5})])
def test_dense_square_path_keeps_well_conditioned_answers(name, kwargs):
    T = smtgallery(name, 200, **kwargs)
    b = T @ np.ones(200)
    x = toep_divide(T, b, config=Config(intsolve=False))
    assert same_bits(x, np.linalg.solve(T.full(), b))


# -- result dtypes -------------------------------------------------------------


def _solver_cases(n, t, b, M):
    T = Toeplitz.from_diagonals(t[: 2 * n - 1], n, n)
    tall = Toeplitz.from_diagonals(t, 2 * n, n)
    off = Config(intsolve=False, intsolvels=False)
    return {
        "levinson": lambda: levinson_solve(T, b[:n]),
        "lstsq": lambda: toep_lstsq(tall, b),
        "dense tsolve": lambda: toep_divide(T, b[:n], config=off),
        "dense tsolvels": lambda: toep_divide(tall, b, config=off),
        "pcg": lambda: pcg_solve(T, b[:n], maxit=3)[0],
        "pcg with M": lambda: pcg_solve(T, b[:n], M=M, maxit=3)[0],
    }


@pytest.mark.parametrize("n", [5, 70])  # QR below the lstsq cutoff, CGLS above
@pytest.mark.parametrize("t_complex, b_complex, m_complex", [
    (False, False, False), (True, False, False), (False, True, False),
    (True, True, True), (False, False, True),
])
def test_solver_result_dtypes(n, t_complex, b_complex, m_complex):
    rng = np.random.default_rng(n)
    t = random_complex(rng, 3 * n - 1) if t_complex else rng.standard_normal(3 * n - 1)
    t[n - 1] += 4.0 * np.sqrt(3 * n)  # the main diagonal of both shapes
    b = random_complex(rng, 2 * n) if b_complex else rng.standard_normal(2 * n)
    c = random_complex(rng, n) if m_complex else rng.standard_normal(n)
    c[0] += np.abs(c).sum() + 1.0
    want = np.complex128 if t_complex or b_complex else np.float64
    for name, solve in _solver_cases(n, t, b, Circulant(c)).items():
        expected = np.complex128 if name == "pcg with M" and m_complex else want
        assert solve().dtype == expected, name


# -- transform lengths of the iterative solvers -------------------------------


@pytest.fixture
def fft_lengths(monkeypatch):
    """Records (direction, length) of every numpy transform while active."""
    calls = []

    def recording(fn, direction):
        # every irfft in the package passes its output length n
        def wrapped(a, n=None, axis=-1, **kwargs):
            calls.append((direction, np.shape(a)[axis] if n is None else n))
            return fn(a, n, axis, **kwargs)
        return wrapped

    for name, direction in (("fft", "forward"), ("rfft", "forward"),
                            ("ifft", "inverse"), ("irfft", "inverse")):
        monkeypatch.setattr(np.fft, name, recording(getattr(np.fft, name), direction))
    return calls


POLICIES = [EmbeddingPolicy.TIGHT, EmbeddingPolicy.POW2]


def _tall(rng, m, n, complex_entries, policy):
    t = random_complex(rng, m + n - 1) if complex_entries else rng.standard_normal(m + n - 1)
    return Toeplitz.from_diagonals(t, m, n, config=Config(embedding=policy)), t


def _hpd(rng, n, complex_entries, policy, toeprem=True):
    """Hermitian positive definite Toeplitz of order n."""
    col = random_complex(rng, n) if complex_entries else rng.standard_normal(n)
    col /= 1.0 + np.arange(n)
    col[0] = np.abs(col).sum() * 2.0 + 1.0  # diagonal dominance
    return Toeplitz(col, config=Config(embedding=policy, toeprem=toeprem))


def _cgls_precond_orders(m, n):
    """The order N of the circulant that CGLS on an m-by-n T divides by, and
    the transform length of its construction."""
    N = fast_len(n + n // 8)
    return N, fast_len(m + 2 * N - 2)


@pytest.mark.parametrize("policy", POLICIES)
def test_cgls_runs_at_fast_len(fft_lengths, policy):
    # m + n - 1 = 269 is prime: tight embeds at 269, pow2 at 512
    T, _ = _tall(np.random.default_rng(1), 200, 70, True, policy)
    b = random_complex(np.random.default_rng(2), 200)
    fft_lengths.clear()  # T's own cev at construction
    toep_lstsq(T, b)
    N, L = _cgls_precond_orders(200, 70)
    assert {n for _, n in fft_lengths} == {fast_len(269), N, L} == {270, 80, 360}
    at = Counter(fft_lengths)
    assert at["forward", 270] == at["inverse", 270] + 1  # one transform builds the spectrum
    # M's Gram correlations: one forward call on three rows, one inverse
    assert (at["forward", L], at["inverse", L]) == (1, 1)
    # M's spectrum and column, then a transform pair per division
    assert at["forward", N] == at["inverse", N] > 2
    fft_lengths.clear()
    T @ b[:70]
    assert {n for _, n in fft_lengths} == {T.embed_order}
    assert T.embed_order == embedded_size(200, 70, policy)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("complex_entries", [False, True])
def test_pcg_runs_at_fast_len(fft_lengths, policy, complex_entries):
    # 2n - 1 = 261 = 9 * 29: tight embeds at 261, pow2 at 512
    T = _hpd(np.random.default_rng(3), 131, complex_entries, policy)
    cev = T.cev
    fft_lengths.clear()
    pcg_solve(T, np.ones(131), tol=1e-10)
    forward = [n for d, n in fft_lengths if d == "forward"]
    inverse = [n for d, n in fft_lengths if d == "inverse"]
    assert set(forward) == set(inverse) == {fast_len(261)} == {270}
    assert len(forward) == len(inverse) + 1
    assert T.cev is cev and T.embed_order == embedded_size(131, 131, policy)


@pytest.mark.parametrize("solve, T, precond", [
    # tight at m + n - 1 = 1024 and pow2 at 2n - 1 = 1023 both embed at 1024
    (lambda T: toep_lstsq(T, np.ones(768)),
     _tall(np.random.default_rng(4), 768, 257, True, EmbeddingPolicy.TIGHT)[0],
     _cgls_precond_orders(768, 257)),
    (lambda T: pcg_solve(T, np.ones(512), tol=1e-10),
     _hpd(np.random.default_rng(5), 512, False, EmbeddingPolicy.POW2), ()),
], ids=["cgls-tight", "pcg-pow2"])
def test_solvers_reuse_cev_at_fast_len(fft_lengths, solve, T, precond):
    assert T.embed_order == fast_len(sum(T.shape) - 1) == 1024
    solve(T)
    # every product at 1024, none building a spectrum; CGLS's preconditioner
    # transforms at its own two lengths, 300 and 1440
    assert {n for _, n in fft_lengths} == {1024, *precond}
    at = Counter(fft_lengths)
    assert at["forward", 1024] == at["inverse", 1024]


def _banded_tall(rng, m, n, lo, hi, complex_entries, policy):
    """m-by-n Toeplitz with random entries on lags lo .. hi only."""
    t = np.zeros(m + n - 1, dtype=complex if complex_entries else float)
    width = hi - lo + 1
    t[lo + n - 1: hi + n] = (random_complex(rng, width) if complex_entries
                             else rng.standard_normal(width))
    return Toeplitz.from_diagonals(t, m, n, config=Config(embedding=policy))


@pytest.mark.parametrize("policy", POLICIES)
def test_banded_solvers_run_at_their_exact_order(fft_lengths, policy):
    # lags -3 .. 5: max(200 + 3, 70 + 5) = 203, rounded up to 216 = 2^3 3^3
    T = _banded_tall(np.random.default_rng(11), 200, 70, -3, 5, True, policy)
    fft_lengths.clear()
    toep_lstsq(T, np.ones(200))
    # the products at 216; the preconditioner, built from all of t, at 80 and 360
    assert {n for _, n in fft_lengths} == {fast_len(203), *_cgls_precond_orders(200, 70)}
    assert fast_len(203) == 216
    # Hermitian, lags -10 .. 10: 131 + 10 = 141, rounded up to 144
    col = np.zeros(131)
    col[:11] = 1.0 / (1.0 + np.arange(11))
    col[0] = 4.0
    H = Toeplitz(col, config=Config(embedding=policy))
    fft_lengths.clear()
    pcg_solve(H, np.ones(131), tol=1e-10)
    assert {n for _, n in fft_lengths} == {fast_len(141)} == {144}
    fft_lengths.clear()
    H @ np.ones(131)
    assert {n for _, n in fft_lengths} == {H.embed_order}


def _gallery(name, n, policy, **params):
    G = smtgallery(name, n, **params)
    return Toeplitz.from_diagonals(G.t, n, n, config=Config(embedding=policy))


# Gaussian kernels with p = 0.5 underflow to an exact 0.0 beyond lag 38
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("T", [
    lambda pol: _gallery("ttridiag", 150, pol),
    lambda pol: _gallery("ttoeppen", 150, pol, a=1.0, b=-4.0, c=8.0, d=-4.0, e=1.0),
    lambda pol: _gallery("gaussian", 300, pol, p=0.5),
    lambda pol: Toeplitz(np.r_[20.0, random_complex(np.random.default_rng(12), 6),
                               np.zeros(193)], config=Config(embedding=pol)),
    lambda pol: Toeplitz([3.0], config=Config(embedding=pol)),
], ids=["ttridiag", "ttoeppen", "gaussian", "complex-band", "1x1"])
def test_pcg_on_banded_matches_dense_solve(policy, T):
    T = T(policy)
    n = T.shape[0]
    assert T._exact_order() < 2 * n - 1 or n == 1
    b = random_complex(np.random.default_rng(n), n)
    x, report = pcg_solve(T, b, tol=1e-12, maxit=10 * n)
    assert report.flag is SolveFlag.CONVERGED
    assert rel_err(x, np.linalg.solve(dense_toeplitz(T.t, n, n), b)) <= 1e-9


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("T, full_rank", [
    (lambda pol: _gallery("ttridiag", 240, pol, d=4.0)[:, :160], True),
    (lambda pol: _gallery("ttoeppen", 240, pol)[:, :160], True),
    (lambda pol: _gallery("tgrcar", 240, pol)[:, :160], True),
    (lambda pol: _gallery("gaussian", 240, pol, p=0.5)[:, :160], True),
    (lambda pol: _banded_tall(np.random.default_rng(13), 200, 80, -5, 7, True, pol), True),
    (lambda pol: _banded_tall(np.random.default_rng(14), 200, 80, 2, 9, False, pol), True),
    # lags -3 .. 0: an upper triangular band over zero rows, cond 2.7e20
    (lambda pol: _banded_tall(np.random.default_rng(15), 200, 80, -3, 0, False, pol), False),
], ids=["ttridiag", "ttoeppen", "tgrcar", "gaussian", "complex-band", "lower", "upper"])
def test_cgls_on_banded_matches_dense_lstsq(policy, T, full_rank):
    T = T(policy)
    m, n = T.shape
    assert T._exact_order() < m + n - 1 and T.policy is policy
    b = random_complex(np.random.default_rng(m + n), m)
    A = dense_toeplitz(T.t, m, n)
    want, *_ = np.linalg.lstsq(A, b, rcond=None)
    x = toep_lstsq(T, b)
    # the least-squares residual is unique; x is unique only at full rank,
    # and numerically rank-deficient input need not give lstsq's minimum-norm x
    assert rel_err(b - A @ x, b - A @ want) <= 1e-9
    if full_rank:
        assert rel_err(x, want) <= 1e-9


@pytest.mark.parametrize("policy", POLICIES)
def test_one_by_one_cgls(policy):
    T = Toeplitz([-4.0], config=Config(embedding=policy))
    x = solvers._cgls(T, np.array([2.0]))
    assert np.allclose(x, [-0.5], rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("policy", POLICIES)
def test_zero_matrix_outcomes(policy):
    cfg = Config(embedding=policy)
    Z = Toeplitz.from_diagonals(np.zeros(199), 100, 100, config=cfg)
    assert Z._band() == (0, 0) and Z._exact_order() == 100
    _, report = pcg_solve(Z, np.ones(100))
    assert report.flag is SolveFlag.BREAKDOWN
    with pytest.raises(RankDeficientError, match="stagnated"):
        toep_lstsq(Toeplitz.from_diagonals(np.zeros(279), 200, 80, config=cfg), np.ones(200))


def test_cgls_names_non_convergence():
    # full rank (cond 6.8e3): its normal equations (cond 4.6e7) need the
    # circulant preconditioner to reach LSTSQ_RTOL within 5n = 800
    # iterations (about 100 with it)
    T = smtgallery("ttridiag", 240)[:, :160]
    b = random_complex(np.random.default_rng(0), 240)
    want, *_ = np.linalg.lstsq(T.full(), b, rcond=None)
    assert rel_err(toep_lstsq(T, b), want) <= 1e-10


@pytest.mark.parametrize("T", [
    lambda: smtgallery("ttridiag", 400)[:, :300],  # cond 2.4e4
    lambda: smtgallery("ttridiag", 600)[:, :500],  # cond 6.5e4
    lambda: smtgallery("tkms", 300, rho=0.999)[:, :200],  # cond 4.5e5
], ids=["ttridiag-400", "ttridiag-600", "tkms"])
def test_cgls_converges_on_full_rank_slices(T):
    # full rank, but unpreconditioned CGLS hits the 5n cap on each
    T = T()
    m, _ = T.shape
    b = random_complex(np.random.default_rng(m), m)
    want, *_ = np.linalg.lstsq(T.full(), b, rcond=None)
    assert rel_err(toep_lstsq(T, b), want) <= 1e-9


def test_cgls_iterations_on_a_random_tall_system(monkeypatch):
    # 900-by-300 complex normal diagonals, like direct_complex's tall ops:
    # 51-62 iterations unpreconditioned; an iteration is one product with T,
    # made in PCG's loop
    rng = np.random.default_rng(31)
    t = random_complex(rng, 1199)
    T = Toeplitz.from_diagonals(t, 900, 300)
    b = random_complex(rng, 900)
    calls, loops = [], []
    products = Toeplitz._products
    cycle = solvers._cg_cycle

    def counting(self, size):
        product, adjoint = products(self, size)
        return (lambda x: calls.append(1) or product(x)), adjoint

    def spy(*args):
        out = cycle(*args)
        loops.append(out[1])
        return out

    monkeypatch.setattr(Toeplitz, "_products", counting)
    monkeypatch.setattr(solvers, "_cg_cycle", spy)
    x = toep_lstsq(T, b)
    assert 0 < len(calls) <= 45
    assert loops == [len(calls)]
    want, *_ = np.linalg.lstsq(dense_toeplitz(t, 900, 300), b, rcond=None)
    assert rel_err(x, want) <= 1e-10


@pytest.mark.parametrize("case", ["zero", "cap"])
def test_cgls_says_what_stopped_it(case):
    # both ways out of the loop without convergence: A p = 0 on the zero
    # matrix at the first iteration, and the 5n cap on the tprolate slice
    # (cond 6.9e15)
    if case == "zero":
        T, b = Toeplitz.from_diagonals(np.zeros(279), 200, 80), np.ones(200)
        stop, ran = "A p is zero or not finite", "1 iteration"
    else:
        T = smtgallery("tprolate", 200)[:, :120]
        b = random_complex(np.random.default_rng(0), 200)
        stop, ran = "iteration cap 5n reached", "600 iterations"
    message = (f"CGLS did not converge: {stop}; normal-equations residual stagnated after "
               f"{ran}; the input is rank deficient or too ill-conditioned")
    with pytest.raises(RankDeficientError, match=f"^{re.escape(message)}$"):
        toep_lstsq(T, b)


def test_lazy_cev_fills_only_when_its_order_is_fast():
    rng = np.random.default_rng(6)
    T = _hpd(rng, 512, False, EmbeddingPolicy.POW2, toeprem=False)
    pcg_solve(T, np.ones(512), tol=1e-10)
    assert T.cev is not None and T.cev.shape == (1024,)
    U = _hpd(rng, 131, False, EmbeddingPolicy.POW2, toeprem=False)
    pcg_solve(U, np.ones(131), tol=1e-10)
    assert U.cev is None  # the solve's own spectrum at 270 is not cached


# m + n - 1: 269 prime, 267 = 3 * 89, 254 = 2 * 127
@pytest.mark.parametrize("shape", [(200, 70), (201, 67), (190, 65)])
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("complex_entries", [False, True])
def test_cgls_matches_dense_lstsq(shape, policy, complex_entries):
    m, n = shape
    rng = np.random.default_rng(m + n)
    T, t = _tall(rng, m, n, complex_entries, policy)
    b = random_complex(rng, m) if complex_entries else rng.standard_normal(m)
    got = toep_lstsq(T, b)
    want, *_ = np.linalg.lstsq(dense_toeplitz(t, m, n), b, rcond=None)
    assert got.dtype == want.dtype
    assert rel_err(got, want) <= 1e-9


# 2n - 1: 133 = 7 * 19, 201 = 3 * 67, 499 prime
@pytest.mark.parametrize("n", [67, 101, 250])
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("complex_entries", [False, True])
def test_pcg_matches_dense_solve(n, policy, complex_entries):
    rng = np.random.default_rng(n)
    T = _hpd(rng, n, complex_entries, policy)
    b = random_complex(rng, n) if complex_entries else rng.standard_normal(n)
    x, report = pcg_solve(T, b, tol=1e-12)
    want = np.linalg.solve(dense_toeplitz(T.t, n, n), b)
    assert report.flag is SolveFlag.CONVERGED
    assert rel_err(x, want) <= 1e-10


# -- PCG's corner split: T p = M p + (T - M) p --------------------------------


def split_product(split, Mv, v):
    """M v + (T - M) v from M v and the corner split of T - M."""
    S, block = split
    out = Mv.copy()
    out[S] += block @ v[S]
    return out


def flushed(a):
    """A copy of `a` with every real or imaginary part of magnitude below
    the smallest normal double set to zero."""
    out = a.copy()
    tiny = np.finfo(float).tiny
    parts = (out.real, out.imag) if np.iscomplexobj(out) else (out,)
    for part in parts:
        part[np.abs(part) < tiny] = 0
    return out


def corner_path(n, k):
    """Whether PCG takes the corner path for corners of width k at order n."""
    return 4 * k <= n and (2 * k) ** 2 <= n * np.log2(n)


def _strang_cases(policy, band):
    """Toeplitz matrices with lags -band .. band, real symmetric, real
    nonsymmetric and complex non-Hermitian, at odd and even orders."""
    rng = np.random.default_rng(16 + band)
    cfg = Config(embedding=policy)
    cases = []
    for n in (1, 2, 3, 8, 9, 40, 41):
        lags = np.arange(1 - n, n)
        inside = np.abs(lags) <= band
        col = np.where(inside, rng.standard_normal(2 * n - 1), 0.0)[n - 1:]
        cases += [Toeplitz(col, config=cfg)]
        for t in (rng.standard_normal(2 * n - 1), random_complex(rng, 2 * n - 1)):
            cases.append(Toeplitz.from_diagonals(np.where(inside, t, 0), n, n, config=cfg))
    return cases


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("band", [0, 1, 2, 10, 40])
def test_corner_split_matches_dense_product(policy, band):
    rng = np.random.default_rng(17)
    for T in _strang_cases(policy, band):
        n = T.shape[0]
        M = strang(T)
        split = solvers._corner_split(T, M)
        A = T.full()
        i, j = np.nonzero(A - M.full())
        k = n - np.abs(i - j).min() if i.size else 0  # D is zero on |l| < n - k
        assert (split is not None) == corner_path(n, k), (n, band)
        if split is None:
            continue
        S = split[0]
        assert np.array_equal(S, np.r_[n - k: n, :k])
        assert np.array_equal(split[1], flushed((A - M.full())[np.ix_(S, S)]))
        for p in (rng.standard_normal(n), random_complex(rng, n)):
            got = split_product(split, (M @ p).astype(complex), p)
            assert rel_err(got, A @ p) <= 1e-14, (n, T.dtype, p.dtype)


def test_corner_split_is_decided_by_the_data():
    rng = np.random.default_rng(18)
    T = _gallery("ttridiag", 64, EmbeddingPolicy.POW2)
    assert solvers._corner_split(T, strang(T)) is not None
    for M in (optimal(T), superoptimal(T), Circulant(rng.standard_normal(64) + 8.0)):
        assert solvers._corner_split(T, M) is None
    # a dense T's Strang corners are n/2 wide and save no transform work
    D = smtgallery("tkms", 64, rho=0.5)
    assert solvers._corner_split(D, strang(D)) is None
    # any circulant qualifies that T differs from only near the corners
    C = Circulant(rng.standard_normal(64))
    p = rng.standard_normal(64)
    # (k = 14 fails 4k^2 <= 64 log2(64) = 384; k = 7 passes it)
    for lags, splits in (([-63, 57], True), ([-63, 50], False), ([-60, 61], True),
                         ([], True), ([40], False)):
        t = C.to_toeplitz().t.copy()
        t[np.add(lags, 63).astype(int)] += 1.0
        U = Toeplitz.from_diagonals(t, 64, 64)
        split = solvers._corner_split(U, C)
        assert (split is not None) == splits
        if splits:
            S = split[0]
            assert np.array_equal(split[1], flushed((U.full() - C.full())[np.ix_(S, S)]))
            assert rel_err(split_product(split, C @ p, p), U.full() @ p) <= 1e-14


def test_corner_block_holds_no_subnormal():
    # the Gaussian kernel's tail: the exact block of T - M at k = 86 holds
    # 342 subnormal entries, which make its product several times slower
    T = smtgallery("gaussian", 5000)
    M = strang(T)
    S, block = solvers._corner_split(T, M)
    assert S.size == 2 * 86
    lags = S[:, None] - S[None, :]
    exact = T.t[lags + 4999] - M.col[lags % 5000]  # (T - M)[S][:, S], entry by entry
    tiny = np.finfo(float).tiny
    assert np.count_nonzero((exact != 0) & (np.abs(exact) < tiny)) == 342
    assert not np.any((block != 0) & (np.abs(block) < tiny))
    assert np.array_equal(block, flushed(exact))


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("T, splits", [
    # zero beyond lag 38: 4 * 38^2 > 300 log2(300), so the product path
    (lambda pol: _gallery("gaussian", 300, pol, p=0.5), False),
    # the default ttridiag's Strang preconditioner is singular
    (lambda pol: _gallery("ttridiag", 150, pol, d=4.0), True),
    (lambda pol: _gallery("ttoeppen", 151, pol, a=1.0, b=-4.0, c=8.0, d=-4.0, e=1.0), True),
    (lambda pol: Toeplitz(np.r_[20.0, random_complex(np.random.default_rng(12), 6),
                                np.zeros(193)], config=Config(embedding=pol)), True),
    (lambda pol: _gallery("tkms", 120, pol, rho=0.5), False),
], ids=["gaussian", "ttridiag", "ttoeppen", "complex-band", "tkms"])
def test_pcg_with_strang_matches_dense_solve(policy, T, splits):
    T = T(policy)
    n = T.shape[0]
    M = strang(T)
    assert (solvers._corner_split(T, M) is not None) == splits
    b = random_complex(np.random.default_rng(n), n)
    x, report = pcg_solve(T, b, M=M, tol=1e-12, maxit=10 * n)
    A = dense_toeplitz(T.t, n, n)
    assert report.flag is SolveFlag.CONVERGED
    assert rel_err(x, np.linalg.solve(A, b)) <= 1e-9
    assert abs(report.relative_residual
               - np.linalg.norm(b - A @ x) / np.linalg.norm(b)) <= 1e-14


@pytest.mark.parametrize("policy", POLICIES)
def test_split_pcg_never_transforms_at_the_solver_length(fft_lengths, policy):
    # Hermitian, lags -10 .. 10: T - strang(T) lives in two 10-by-10 corners
    col = np.zeros(131)
    col[:11] = 1.0 / (1.0 + np.arange(11))
    col[0] = 4.0
    H = Toeplitz(col, config=Config(embedding=policy))
    M = strang(H)
    fft_lengths.clear()
    pcg_solve(H, np.ones(131), M=M, tol=1e-10)
    assert {n for _, n in fft_lengths} == {131}
    assert solvers._solver_size(H) == 144


def test_split_pcg_restart_reports_the_true_residual(monkeypatch):
    # tol below attainable accuracy: the recurrence residual passes it while
    # the true one stalls near 1e-15, so new cycles start from the true one
    T = smtgallery("ttridiag", 64, d=4.0)
    M = strang(T)
    b = np.random.default_rng(3).standard_normal(64)
    events = []  # "d" a division by M, "m" a product with M

    def recording(spec, arr, rows, real, divide=False):
        if spec is M.ev:
            events.append("d" if divide else "m")
        return spectral_apply(spec, arr, rows, real, divide)

    # M.solve divides in circulant.py, M.matvec multiplies in _structured.py
    monkeypatch.setattr(circulant, "spectral_apply", recording)
    monkeypatch.setattr(_structured, "spectral_apply", recording)
    x, report = pcg_solve(T, b, M=M, tol=1e-16, maxit=60)
    assert report.flag is SolveFlag.MAX_ITERATIONS and report.iterations == 60
    # a cycle divides once for g = M^-1 r0 and once to form x, then takes
    # M x for the true residual; there is no other order-n transform
    trail = "".join(events)
    assert re.fullmatch(r"(ddm)+", trail) and len(trail) >= 6
    monkeypatch.undo()
    r = b - split_product(solvers._corner_split(T, M), M @ x, x)
    assert report.relative_residual == np.linalg.norm(r) / np.linalg.norm(b)
    dense = np.linalg.norm(b - T.full() @ x) / np.linalg.norm(b)
    assert abs(report.relative_residual - dense) <= 1e-15


@pytest.mark.parametrize("path", ["corner", "product", "callable"])
def test_pcg_cycles_share_maxit_and_report_the_true_residual(path, monkeypatch):
    # tol below attainable accuracy: each cycle ends when its recurrence
    # residual passes tol, and the next starts from the true residual, with
    # what is left of maxit, until all of it is spent
    T = smtgallery("ttridiag", 64, d=4.0)
    A = T.full()
    if path == "corner":
        M = strang(T)
        split = solvers._corner_split(T, M)
        assert split is not None

        def product(v):
            return split_product(split, M @ v, v)
    elif path == "product":
        M = optimal(T)
        assert solvers._corner_split(T, M) is None
        product = solvers._as_operator(T)
    else:
        M, product = None, T.matvec  # an FFT product, which rounds
    b = np.random.default_rng(3).standard_normal(64)
    cycles = []  # (the cycle's maxit, its iterations)
    cycle = solvers._cg_cycle

    def spy(*args):
        out = cycle(*args)
        cycles.append((args[-1], out[1]))
        return out

    monkeypatch.setattr(solvers, "_cg_cycle", spy)
    x, report = pcg_solve(product if path == "callable" else T, b, M=M, tol=1e-16, maxit=60)
    assert report.flag is SolveFlag.MAX_ITERATIONS and report.iterations == 60
    assert len(cycles) >= 2
    left = 60
    for budget, steps in cycles:
        assert budget == left
        left -= steps
    assert left == 0
    assert report.relative_residual == np.linalg.norm(b - product(x)) / np.linalg.norm(b)
    dense = np.linalg.norm(b - A @ x) / np.linalg.norm(b)
    assert abs(report.relative_residual - dense) <= 1e-15


# -- PCG in the corner coordinates --------------------------------------------


def dense_pcg(A, M, b, iterations):
    """The PCG loop of pcg_solve on dense matrices, without a stopping test."""
    Minv = np.linalg.inv(M)
    x = np.zeros(b.shape[0], dtype=np.result_type(A, Minv, b))
    r = b.astype(x.dtype)
    z = Minv @ r
    p, rho = z, np.vdot(r, z)
    for _ in range(iterations):
        q = A @ p
        alpha = rho / np.vdot(p, q)
        x = x + alpha * p
        r = r - alpha * q
        z = Minv @ r
        rho, rho_old = np.vdot(r, z), rho
        p = z + (rho / rho_old) * p
    return x


def banded_residual(T, x, b, k):
    """||b - T x|| / ||b|| for a T with lags -k .. k, by direct convolution."""
    n = T.shape[0]
    Tx = np.convolve(x, T.t[n - 1 - k: n + k])[k: n + k]
    return np.linalg.norm(b - Tx) / np.linalg.norm(b)


def _band_hpd(rng, n, k, complex_entries, policy):
    """Hermitian positive definite Toeplitz of lags -k .. k, t_k != 0."""
    col = np.zeros(n, dtype=complex if complex_entries else float)
    col[1: k + 1] = random_complex(rng, k) if complex_entries else rng.standard_normal(k)
    col[0] = 2.0 * np.abs(col).sum() + 1.0  # diagonal dominance
    return Toeplitz(col, config=Config(embedding=policy))


def _corner_cases(n, policy):
    """(T, M) pairs whose T - M is two k-by-k corners with 4k <= n: real
    symmetric and complex Hermitian bands with M = strang(T), and a
    non-Hermitian complex circulant M with T = M plus corner entries."""
    rng = np.random.default_rng(n)
    cases = []
    for complex_entries in (False, True):
        T = _band_hpd(rng, n, 3, complex_entries, policy)
        cases.append((T, strang(T)))
    col = random_complex(rng, n) / (1.0 + np.arange(n))
    col[0] = 2.0 * np.abs(col).sum()
    M = Circulant(col)
    t = M.to_toeplitz().t.copy()
    t[[0, 1, 2 * n - 3, 2 * n - 2]] += random_complex(rng, 4)  # lags +-(n-1), +-(n-2)
    cases.append((Toeplitz.from_diagonals(t, n, n, config=Config(embedding=policy)), M))
    return cases


# 64 even, 81 odd, 97 prime
@pytest.mark.parametrize("n", [64, 81, 97])
@pytest.mark.parametrize("policy", POLICIES)
def test_corner_pcg_follows_dense_pcg(n, policy, monkeypatch):
    divisions = []

    def recording(spec, arr, rows, real, divide=False):
        divisions.append(divide)
        return spectral_apply(spec, arr, rows, real, divide)

    for (T, M), hermitian in zip(_corner_cases(n, policy), (True, True, False)):
        A, Md = T.full(), M.full()
        assert np.array_equal(M.col, np.conj(M.col[-np.arange(n)])) == hermitian
        assert solvers._corner_split(T, M) is not None
        b = random_complex(np.random.default_rng(n + 1), n)
        # iterates: the same PCG in other coordinates, one cycle (tol is
        # out of reach); a non-Hermitian M takes one more division
        divisions.clear()
        monkeypatch.setattr(circulant, "spectral_apply", recording)
        x, report = pcg_solve(T, b, M=M, tol=1e-300, maxit=4)
        monkeypatch.undo()
        assert report.flag is SolveFlag.MAX_ITERATIONS and report.iterations == 4
        assert divisions.count(True) == (2 if hermitian else 3)
        assert rel_err(x, dense_pcg(A, Md, b, 4)) <= 1e-10
        dense = np.linalg.norm(b - A @ x) / np.linalg.norm(b)
        assert abs(report.relative_residual - dense) <= 1e-14
        if not hermitian:
            continue  # PCG need not converge on a non-Hermitian T
        # the solution, and the true residual against the dense one
        x, report = pcg_solve(T, b, M=M, tol=1e-12, maxit=10 * n)
        assert report.flag is SolveFlag.CONVERGED
        assert rel_err(x, np.linalg.solve(A, b)) <= 1e-9
        dense = np.linalg.norm(b - A @ x) / np.linalg.norm(b)
        assert dense <= 1e-12 and abs(report.relative_residual - dense) <= 1e-14


@pytest.mark.parametrize("policy", POLICIES)
def test_corner_coordinates_match_dense_vectors(policy):
    # each callable of a corner cycle against its n-vector meaning: a
    # residual (a, c) is a r0 + E c, a direction (a, c, v_S) is
    # M^-1 (a r0 + E c) with v_S its values on S
    n = 81
    rng = np.random.default_rng(19)
    for T, M in _corner_cases(n, policy):
        split = solvers._corner_split(T, M)
        S = split[0]
        m = S.size
        A, Minv = T.full(), np.linalg.inv(M.full())
        r0 = random_complex(rng, n)
        product, cycle = solvers._corner_path(M, split)
        _, corner_product, curvature, gradient, precond, lift = cycle(r0)

        def residual(r):
            out = r[0] * r0
            out[S] += r[1:]
            return out

        r, s = random_complex(rng, 2, m + 1)
        z, rho = precond(s)
        assert np.array_equal(z[: m + 1], s)
        want = Minv @ residual(s)
        assert rel_err(z[m + 1:], want[S]) <= 1e-12
        assert rel_err(rho, np.vdot(residual(s), want)) <= 1e-12
        assert rel_err(lift(z), want) <= 1e-12
        assert rel_err(residual(corner_product(z)), A @ want) <= 1e-12
        # curvature(q, p) = p^H q for a residual q and a direction p
        assert rel_err(curvature(r, z), np.vdot(want, residual(r))) <= 1e-12
        g, norm = gradient(r)
        assert g is r
        assert rel_err(norm, np.linalg.norm(residual(r))) <= 1e-12
        assert rel_err(product(r0), A @ r0) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 64, 81, 97])
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("complex_entries", [False, True])
def test_corner_pcg_without_corners(n, policy, complex_entries):
    # T is the Toeplitz matrix of a circulant M, so T - M = 0 (k = 0)
    rng = np.random.default_rng(n)
    col = random_complex(rng, n) if complex_entries else rng.standard_normal(n)
    col = col + np.conj(col[-np.arange(n)])  # Hermitian
    col[0] = 2.0 * np.abs(col).sum() + 1.0
    M = Circulant(col)
    T = Toeplitz.from_diagonals(M.to_toeplitz().t, n, n, config=Config(embedding=policy))
    assert solvers._corner_split(T, M)[0].size == 0
    b = random_complex(rng, n)
    x, report = pcg_solve(T, b, M=M, tol=1e-12)
    assert report.flag is SolveFlag.CONVERGED and report.iterations == 1
    A = T.full()
    assert rel_err(x, np.linalg.solve(A, b)) <= 1e-13
    assert np.linalg.norm(b - A @ x) / np.linalg.norm(b) <= 1e-12


def test_corner_pcg_breakdown_on_zero_curvature():
    # T = I - (e_0 e_7^T + e_7 e_0^T) and M = I: p* T p = 0 at iteration 1
    t = np.zeros(15)
    t[7], t[0], t[14] = 1.0, -1.0, -1.0
    T = Toeplitz.from_diagonals(t, 8, 8)
    M = Circulant(np.eye(8)[0])
    assert solvers._corner_split(T, M)[0].size == 2
    b = np.eye(8)[0] + np.eye(8)[7]
    x, report = pcg_solve(T, b, M=M)
    assert report.flag is SolveFlag.BREAKDOWN and report.iterations == 1
    assert np.array_equal(x, np.zeros(8)) and report.relative_residual == 1.0


def test_corner_pcg_refines_in_a_second_cycle(monkeypatch):
    # cond(M) is near 3e10, so a cycle is accurate to about 3e-6 and a b
    # outside T's smooth range needs a second cycle from the true residual
    T = smtgallery("gaussian", 5000)
    M = strang(T)
    b = np.random.default_rng(0).standard_normal(5000)
    divisions = []

    def recording(spec, arr, rows, real, divide=False):
        if divide:
            divisions.append(arr)
        return spectral_apply(spec, arr, rows, real, divide)

    monkeypatch.setattr(circulant, "spectral_apply", recording)
    x, report = pcg_solve(T, b, M=M, tol=1e-6, maxit=100)
    assert report.flag is SolveFlag.CONVERGED
    assert len(divisions) == 4  # two cycles, each g and x
    k = solvers._corner_split(T, M)[0].size // 2
    assert k == 86 and np.all(T.t[: 5000 - 1 - k] == 0.0)
    assert banded_residual(T, x, b, k) <= 1e-6


@pytest.mark.parametrize("n, k, corners", [
    (1000, 49, True),  # (2k)^2 = 9604 <= 1000 log2(1000) = 9966
    (1000, 50, False),  # 10000 > 9966
    (2000, 86, False),  # 29584 > 21932
    (3000, 61, True),  # 14884 <= 34652
])
def test_corner_path_selection(n, k, corners, monkeypatch):
    T = _band_hpd(np.random.default_rng(k), n, k, False, EmbeddingPolicy.POW2)
    M = strang(T)
    assert (solvers._corner_split(T, M) is not None) == corners
    taken = []
    corner_path = solvers._corner_path

    def spy(*args):
        taken.append(True)
        return corner_path(*args)

    monkeypatch.setattr(solvers, "_corner_path", spy)
    b = np.random.default_rng(n).standard_normal(n)
    x, report = pcg_solve(T, b, M=M, tol=1e-10)
    assert bool(taken) == corners
    assert report.flag is SolveFlag.CONVERGED
    assert banded_residual(T, x, b, k) <= 1e-10


@pytest.mark.parametrize("policy", POLICIES)
def test_corner_pcg_transform_count_is_fixed(fft_lengths, policy):
    # Hermitian, lags -10 .. 10, n = 131: 7 order-n transforms per
    # one-cycle solve (g, M^-1's column, x and M x), whatever the iterations
    H = _band_hpd(np.random.default_rng(7), 131, 10, True, policy)
    M = strang(H)
    counts = []
    for tol in (1e-3, 1e-12):
        fft_lengths.clear()
        _, report = pcg_solve(H, np.ones(131), M=M, tol=tol)
        assert report.flag is SolveFlag.CONVERGED
        lengths = [n for _, n in fft_lengths]
        assert lengths.count(131) == 7
        assert set(lengths) == {131}
        assert solvers._solver_size(H) not in lengths
        counts.append(report.iterations)
    assert counts[0] < counts[1]


def test_pcg_restart_resets_the_search_direction():
    # gaussian 700's Strang corners (k = 86) take the product path, which
    # restarts once from the true residual here and must then take p = z
    T = smtgallery("gaussian", 700, p=0.1)
    M = strang(T)
    assert solvers._corner_split(T, M) is None
    b = np.random.default_rng(0).standard_normal(700)
    x, report = pcg_solve(T, b, M=M, tol=1e-6)
    assert report.flag is SolveFlag.CONVERGED and report.iterations < 100
    assert np.linalg.norm(b - T.full() @ x) / np.linalg.norm(b) <= 1e-6
    # after a restart the next direction is z = r itself (M = None): the
    # product after a true residual is taken with bv - A x
    rng = np.random.default_rng(41)
    A = smtgallery("tkms", 8, rho=0.5).full()
    b = rng.standard_normal(8)
    calls = []

    def apply(v):
        out = (A @ v).astype(np.float32).astype(np.float64)
        calls.append((v.copy(), out))
        return out

    pcg_solve(apply, b, tol=1e-12, maxit=40)
    assert len(calls) > 41
    restarts = [i for i in range(len(calls) - 1)
                if np.array_equal(calls[i + 1][0], b - calls[i][1])]
    assert restarts
