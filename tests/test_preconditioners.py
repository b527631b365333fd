import numpy as np
import pytest

from structmat import (
    Circulant,
    Config,
    DimensionMismatchError,
    EmbeddingPolicy,
    SingularMatrixError,
    Toeplitz,
    optimal,
    register_preconditioner,
    smtcprec,
    smtgallery,
    strang,
    superoptimal,
)

from structmat.preconditioners import _gram_projection_ev

from conftest import dense_circulant, dense_toeplitz, random_complex, rel_err, same_bits


def shift_basis(n):
    """The n circulant shift matrices S^k spanning the circulant algebra."""
    S = np.roll(np.eye(n), 1, axis=0)
    out = [np.eye(n)]
    for _ in range(n - 1):
        out.append(S @ out[-1])
    return out


def projection_oracle(A):
    """Least-squares fit of A over the shift basis (independent of the
    closed-form formulas under test)."""
    n = A.shape[0]
    basis = shift_basis(n)
    coeffs = [np.vdot(B, A) / n for B in basis]  # basis matrices are orthogonal
    return np.array(coeffs)


def gram_projection_by_unit_vectors(T):
    """ev(optimal(T T*)) column by column: T T* e_j via two fast matvecs per
    unit vector, folded onto the circulant lags (the O(n^2 log n) reference)."""
    n = T.shape[0]
    TH = T.H
    c = np.zeros(n, dtype=np.complex128)
    e = np.zeros(n)
    rows = np.arange(n)
    for j in range(n):
        e[j] = 1.0
        col = T.matvec(TH.matvec(e))
        e[j] = 0.0
        np.add.at(c, (rows - j) % n, col)
    return np.fft.fft(c / n)


def frob2_identity_residual(C: Circulant, A: np.ndarray) -> float:
    return float(np.sum(np.abs(np.eye(A.shape[0]) - C.solve(A)) ** 2))


def test_strang_copy_rule():
    T = smtgallery("ttridiag", 4)
    assert np.array_equal(strang(T).col, [2, -1, 0, -1])
    assert np.array_equal(strang(Toeplitz([7])).col, [7])


def test_strang_fixed_point_on_circulants():
    C = Circulant([3.0, 1.0, -2.0, 0.5, 0.25])  # odd order: exact fixed point
    got = strang(C.to_toeplitz())
    assert np.array_equal(got.col, C.col)
    even = Circulant([3.0, 1.0, -2.0, 1.0])  # t_{n/2} = t_{-n/2} by symmetry
    assert np.array_equal(strang(even.to_toeplitz()).col, even.col)


@pytest.mark.parametrize("col", [[3.0, 1.0, -2.0, 0.5, 0.25], [3.0, 1.0 + 1j, -2.0, 1.0 - 1j]])
def test_strang_of_a_circulant_is_itself(col):
    C = Circulant(col)
    got = strang(C)
    assert isinstance(got, Circulant)
    assert np.array_equal(got.col, C.col)


@pytest.mark.parametrize("n", [1, 2, 5, 8, 13, 64])
@pytest.mark.parametrize("complex_entries", [False, True])
def test_strang_returns_its_circulant_input(n, complex_entries):
    # the Toeplitz route copies the column and transforms it to the same bits,
    # so strang hands a circulant back as optimal and superoptimal do
    rng = np.random.default_rng(n)
    C = Circulant(random_complex(rng, n) if complex_entries else rng.standard_normal(n))
    assert strang(C) is C and optimal(C) is C and superoptimal(C) is C
    via = strang(C.to_toeplitz())
    assert same_bits(via.col, C.col) and same_bits(via.ev, C.ev)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 13])
@pytest.mark.parametrize("complex_entries", [False, True])
def test_strang_matches_per_diagonal_rule(n, complex_entries):
    rng = np.random.default_rng(n)
    t = rng.standard_normal(2 * n - 1)
    if complex_entries:
        t = t + 1j * rng.standard_normal(2 * n - 1)
    T = Toeplitz.from_diagonals(t, n, n)
    # c_j = t_j up to the midpoint (inclusive for even n), t_{j-n} above it
    want = [t[j + n - 1] if j <= n // 2 else t[j - 1] for j in range(n)]
    got = strang(T).col
    assert got.dtype == t.dtype
    assert np.array_equal(got, want)


def test_strang_requires_square_toeplitz():
    with pytest.raises(DimensionMismatchError):
        strang(Toeplitz.from_diagonals([1, 2, 3, 4], 2, 3))
    with pytest.raises(TypeError):
        strang(np.eye(4))


@pytest.mark.parametrize("build, operand, error, message", [
    (strang, Toeplitz.from_diagonals([1, 2, 3, 4], 2, 3), DimensionMismatchError,
     "the Strang preconditioner requires a square matrix, got 2x3"),
    (optimal, Toeplitz.from_diagonals([1, 2, 3, 4], 3, 2), DimensionMismatchError,
     "the optimal preconditioner requires a square matrix, got 3x2"),
    (optimal, np.ones((2, 3)), DimensionMismatchError,
     "the optimal preconditioner requires a square matrix, got 2x3"),
    (optimal, np.ones(3), ValueError,
     r"the optimal preconditioner expects a matrix, got shape \(3,\)"),
    (superoptimal, Toeplitz.from_diagonals([1, 2, 3, 4], 2, 3), DimensionMismatchError,
     "the superoptimal preconditioner requires a square matrix, got 2x3"),
    (superoptimal, np.ones((3, 4)), DimensionMismatchError,
     "the superoptimal preconditioner requires a square matrix, got 3x4"),
    (superoptimal, [[1.0, 2.0]], DimensionMismatchError,
     "the superoptimal preconditioner requires a square matrix, got 1x2"),
    (superoptimal, np.ones(3), ValueError,
     r"the superoptimal preconditioner expects a matrix, got shape \(3,\)"),
], ids=["strang-toeplitz", "optimal-toeplitz", "optimal-dense", "optimal-vector",
        "superoptimal-toeplitz", "superoptimal-dense", "superoptimal-list",
        "superoptimal-vector"])
def test_operand_errors_name_the_constructor_called(build, operand, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        build(operand)


def test_optimal_projection_fixed_point():
    rng = np.random.default_rng(1)
    C = Circulant(random_complex(rng, 6))
    assert np.allclose(optimal(C).col, C.col, atol=1e-14)
    assert np.allclose(optimal(C.full()).col, C.col, atol=1e-12)


def test_optimal_tridiagonal_value():
    T = smtgallery("ttridiag", 4)
    got = optimal(T)
    assert np.allclose(got.col, [2, -0.75, 0, -0.75], atol=1e-14)
    assert np.allclose(projection_oracle(T.full()), got.col, atol=1e-13)


def test_optimal_strips_orthogonal_perturbation():
    rng = np.random.default_rng(2)
    n = 8
    C = Circulant(random_complex(rng, n))
    E = random_complex(rng, n, n)
    E -= dense_circulant(projection_oracle(E))  # remove the circulant component
    got = optimal(C.full() + E)
    assert np.allclose(got.col, C.col, atol=1e-11)


def test_optimal_toeplitz_formula_matches_dense_path():
    rng = np.random.default_rng(3)
    for n in (1, 2, 5, 12):
        t = random_complex(rng, 2 * n - 1)
        T = Toeplitz.from_diagonals(t, n, n)
        fast = optimal(T)
        dense = optimal(T.full())
        assert np.max(np.abs(fast.col - dense.col)) <= 1e-12 * max(
            1.0, np.max(np.abs(dense.col))
        )


@pytest.mark.parametrize("n", [1, 2, 7, 13])
def test_optimal_dense_matches_projection_oracle(n):
    rng = np.random.default_rng(40 + n)
    A = random_complex(rng, n, n)
    got = optimal(A).col
    assert rel_err(got, projection_oracle(A)) <= 1e-13
    real = optimal(A.real).col
    assert not np.iscomplexobj(real)
    assert rel_err(real, projection_oracle(A.real)) <= 1e-13


def test_optimal_is_frobenius_minimizer():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(2, 16))
        A = random_complex(rng, n, n)
        P = optimal(A)
        best = np.linalg.norm(P.full() - A)
        for _ in range(25):
            C = dense_circulant(random_complex(rng, n))
            assert best <= np.linalg.norm(C - A) + 1e-10
        # residual orthogonal to every shift-basis matrix
        resid = A - P.full()
        for B in shift_basis(n):
            assert abs(np.vdot(B, resid)) <= 1e-10


def test_optimal_hermitian_psd_preserved():
    for name in ("tkms", "gaussian", "expdec"):
        T = smtgallery(name, 12)
        P = optimal(T)
        S = strang(T)
        assert np.allclose(P.full(), P.full().conj().T, atol=1e-13)
        assert np.allclose(S.full(), S.full().conj().T, atol=1e-13)
        assert np.min(P.ev.real) >= -1e-12
        assert np.max(np.abs(P.ev.imag)) <= 1e-12


def test_superoptimal_fixed_point_and_scaled_identity():
    rng = np.random.default_rng(5)
    C = Circulant(random_complex(rng, 7) + 4 * np.eye(1)[0, 0])
    got = superoptimal(C)
    assert got == C
    alpha = 2.5 - 1.0j
    aye = Circulant(np.concatenate([[alpha], np.zeros(5)]))
    assert np.allclose(superoptimal(aye).col, aye.col, atol=1e-13)


def test_superoptimal_local_minimality_perturbation_scan():
    rng = np.random.default_rng(6)
    t = rng.standard_normal(15)
    t[7] += 4.0
    T = Toeplitz.from_diagonals(t, 8, 8)
    S = superoptimal(T)
    A = T.full()
    base = frob2_identity_residual(S, A)
    for i in range(8):
        for direction in (1.0, -1.0, 1.0j, -1.0j):
            ev = S.ev.copy()
            ev[i] += 1e-4 * direction * max(1.0, abs(ev[i]))
            perturbed = Circulant._from_spectrum(ev, real=False)
            assert frob2_identity_residual(perturbed, A) >= base - 1e-9


def test_superoptimal_toeplitz_path_matches_dense_path():
    rng = np.random.default_rng(7)
    t = random_complex(rng, 19)
    t[9] += 5.0
    T = Toeplitz.from_diagonals(t, 10, 10)
    fast = superoptimal(T)
    dense = superoptimal(T.full())
    assert np.max(np.abs(fast.col - dense.col)) <= 1e-10 * max(
        1.0, np.max(np.abs(dense.col))
    )


def refuse_transform(*args, **kwargs):
    raise AssertionError("unexpected complex transform")


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 257])
@pytest.mark.parametrize("complex_entries", [False, True])
def test_gram_projection_matches_dense_oracle(n, complex_entries, monkeypatch):
    rng = np.random.default_rng(100 + n)
    t = rng.standard_normal(2 * n - 1)
    if complex_entries:
        t = t + 1j * rng.standard_normal(2 * n - 1)
    # random diagonals: row != conj(col), so T is not Hermitian for n > 1
    A = Toeplitz.from_diagonals(t, n, n).full()
    want = optimal(A @ A.conj().T).ev
    for policy in EmbeddingPolicy:
        T = Toeplitz.from_diagonals(t, n, n, config=Config(embedding=policy))
        with monkeypatch.context() as m:
            if not complex_entries:  # real input takes rfft/irfft only
                for name in ("fft", "ifft"):
                    m.setattr(np.fft, name, refuse_transform)
            got = _gram_projection_ev(np.conj(T.t[::-1]), n, n)  # T T* = (T*)* T*
        assert rel_err(got, want) <= 1e-14
        if n <= 64:
            assert rel_err(got, gram_projection_by_unit_vectors(T)) <= 1e-14


@pytest.mark.parametrize("m, n, N", [(9, 3, 4), (30, 10, 12), (65, 64, 72), (5, 4, 9)])
@pytest.mark.parametrize("complex_entries", [False, True])
def test_gram_projection_at_a_larger_order_matches_its_definition(m, n, N, complex_entries):
    # the order-N projection of T'^H T', T' the m-by-N extension of T by
    # zero diagonals above: c_s = sum over (j - k) mod N = s of (T'^H T')_jk / N
    rng = np.random.default_rng(m * N)
    t = random_complex(rng, m + n - 1) if complex_entries else rng.standard_normal(m + n - 1)
    wide = dense_toeplitz(np.concatenate((np.zeros(N - n), t)), m, N)
    gram = wide.conj().T @ wide
    lags = np.subtract.outer(np.arange(N), np.arange(N)) % N
    c = np.array([gram[lags == s].sum() for s in range(N)]) / N
    got = _gram_projection_ev(t, m, N)
    assert got.dtype == np.float64
    assert rel_err(got, np.fft.fft(c)) <= 1e-14


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 257])
@pytest.mark.parametrize("complex_entries", [False, True])
def test_dense_superoptimal_matches_the_gram_product(n, complex_entries, monkeypatch):
    rng = np.random.default_rng(300 + n)
    A = rng.standard_normal((n, n)) + 2.0 * n * np.eye(n)  # optimal(A) well away from 0
    if complex_entries:
        A = A + 1j * rng.standard_normal((n, n))
    want = Circulant._from_spectrum(optimal(A @ A.conj().T).ev / np.conj(optimal(A).ev),
                                    not complex_entries)
    with monkeypatch.context() as m:
        if not complex_entries:  # real input takes rfft only
            for name in ("fft", "ifft"):
                m.setattr(np.fft, name, refuse_transform)
        got = superoptimal(A)
    assert got.isreal == (not complex_entries)
    assert rel_err(got.col, want.col) <= 1e-14


def test_superoptimal_of_huge_entries_does_not_overflow():
    # A A* squares the entries: 1e200^2 overflows (a numpy warning, an
    # error under this suite's filter) unless superoptimal scales A first
    C = superoptimal(Toeplitz([1e200, 1.0, 0.5]))
    assert np.allclose(C.col, [1e200, 0.0, 0.0], rtol=1e-12, atol=1e188)


@pytest.mark.parametrize("k", [-600, -500, 0, 500, 600])
@pytest.mark.parametrize("kind", ["toeplitz", "dense"])
def test_superoptimal_is_homogeneous_bit_for_bit(k, kind):
    rng = np.random.default_rng(17)
    col, row = random_complex(rng, 9), random_complex(rng, 9)
    col[0] = row[0] = 9.0
    A = Toeplitz(col, row) if kind == "toeplitz" else Toeplitz(col, row).full()
    scale = 2.0 ** k  # at |k| = 600, A A* overflows or underflows unless scaled
    assert np.array_equal(superoptimal(scale * A).col, scale * superoptimal(A).col)


def test_superoptimal_of_toeplitz_makes_no_matvec(monkeypatch):
    calls = []
    apply = Toeplitz._apply  # every fast product (matvec and @) runs through it

    def counted(self, x):
        calls.append(self.shape)
        return apply(self, x)

    monkeypatch.setattr(Toeplitz, "_apply", counted)
    T = smtgallery("gaussian", 200)
    T.matvec(np.ones(200))
    T @ np.ones((200, 2))
    assert calls == [(200, 200)] * 2  # the counter is live
    calls.clear()
    superoptimal(T)
    assert calls == []


def test_superoptimal_undefined_for_singular_projection():
    with pytest.raises(SingularMatrixError, match="superoptimal undefined"):
        superoptimal(Circulant([1.0, 1.0, 1.0, 1.0]))


def test_dispatch():
    T = smtgallery("gaussian", 9)
    C = smtcprec("strang", T)
    assert isinstance(C, Circulant) and C.n == 9
    circ = Circulant([4.0, 1.0, 0.0, 1.0])
    assert np.allclose(smtcprec("optimal", circ.full()).col, circ.col, atol=1e-12)
    K = smtgallery("tkms", 8, rho=0.5)
    assert np.allclose(smtcprec("superoptimal", K).col, superoptimal(K).col)
    with pytest.raises(ValueError, match="unknown preconditioner"):
        smtcprec("jacobi", T)
    with pytest.raises(TypeError):
        smtcprec("strang", T.full())


def test_registry_extension():
    register_preconditioner("unit", lambda A: Circulant(np.eye(A.shape[0])[:, 0]))
    try:
        got = smtcprec("unit", smtgallery("gaussian", 5))
        assert np.array_equal(got.full(), np.eye(5))
    finally:
        import structmat.preconditioners as pmod

        with pmod._registry_lock:
            pmod._REGISTRY.pop("unit", None)
