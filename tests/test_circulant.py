import zlib

import numpy as np
import pytest

from structmat import (
    Circulant,
    Config,
    DimensionMismatchError,
    EmbeddingPolicy,
    SingularMatrixError,
    Toeplitz,
    config_set,
    dft,
)
from structmat.circulant import SINGULARITY_RTOL

from conftest import dense_circulant, random_complex, rel_err

EV_1234 = np.array([10, -2 + 2j, -2, -2 - 2j])


def test_construction_and_display_values():
    C = Circulant([1, 2, 3, 4])
    want = np.array([[1, 4, 3, 2], [2, 1, 4, 3], [3, 2, 1, 4], [4, 3, 2, 1]])
    assert np.array_equal(C.full(), want)
    assert np.allclose(C.ev, EV_1234, atol=1e-13)
    assert repr(C) == "Circulant(n=4, dtype=float64)"


def test_one_by_one():
    C = Circulant([5])
    assert np.array_equal(C.full(), [[5.0]])
    assert np.allclose(C.ev, [5.0])


def test_construction_errors():
    with pytest.raises(ValueError):
        Circulant([])
    with pytest.raises(ValueError):
        Circulant([1.0, np.inf])
    with pytest.raises(ValueError):
        Circulant([1.0, np.nan])
    with pytest.raises(ValueError, match=r"must be one-dimensional, got shape \(1, 2\)"):
        Circulant([[1.0, 2.0]])
    with pytest.raises(TypeError, match="first column must be numeric, got dtype <U1"):
        Circulant(["a", "b"])


def test_full_special_columns():
    assert np.array_equal(Circulant([1, 0, 0, 0]).full(), np.eye(4))
    shift = Circulant([0, 1, 0, 0]).full()
    e0 = np.zeros(4)
    e0[0] = 1
    assert np.array_equal(shift @ e0, [0, 1, 0, 0])  # cyclic down shift


def test_add():
    C = Circulant([1, 2, 3, 4])
    zero = C + (-C)
    assert np.allclose(zero.col, 0) and np.allclose(zero.ev, 0)
    S = C + Circulant([1, 0, 0, 0])
    assert np.array_equal(S.col, [2, 2, 3, 4])
    rng = np.random.default_rng(3)
    A = Circulant(random_complex(rng, 9))
    B = Circulant(random_complex(rng, 9))
    out = A + B
    assert np.max(np.abs(out.ev - dft(out.col))) <= 1e-13 * np.max(np.abs(out.col))
    with pytest.raises(DimensionMismatchError):
        A + Circulant([1, 2])


def test_scale():
    C = Circulant([1, 2, 3, 4])
    assert C.scale(1) == C
    assert np.allclose((0 * C).col, 0)
    assert np.allclose((2 * C).ev, 2 * EV_1234, atol=1e-12)
    assert np.allclose((C / 2).col, [0.5, 1, 1.5, 2])


def test_add_scalar():
    C = Circulant([1, 2, 3, 4])
    assert (C + 0) == C
    S = C + 1
    assert np.array_equal(S.col, [2, 3, 4, 5])
    # only the DC eigenvalue shifts
    want = EV_1234.copy()
    want[0] += 4
    assert np.allclose(S.ev, want, atol=1e-12)
    assert np.allclose(S.ev, dft(S.col), atol=1e-12)
    assert np.array_equal((1 + C).col, S.col)
    assert np.array_equal((C - 1).col, [0, 1, 2, 3])


def test_matvec():
    C = Circulant([1, 2, 3, 4])
    e0 = np.zeros(4)
    e0[0] = 1
    assert np.allclose(C.matvec(e0), C.col, atol=1e-13)
    assert np.allclose(C @ np.ones(4), [10, 10, 10, 10], atol=1e-12)
    rng = np.random.default_rng(16)
    col = random_complex(rng, 16)
    x = random_complex(rng, 16)
    assert rel_err(Circulant(col) @ x, dense_circulant(col) @ x) <= 1e-12
    with pytest.raises(DimensionMismatchError):
        C @ np.ones(5)


def test_mul_matrix_product():
    C = Circulant([1, 2, 3, 4])
    ident = Circulant([1, 0, 0, 0])
    assert (C @ ident) == C or np.allclose((C @ ident).col, C.col, atol=1e-14)
    shift = Circulant([0, 1, 0, 0])
    assert np.allclose((shift @ shift).col, [0, 0, 1, 0], atol=1e-14)
    rng = np.random.default_rng(8)
    a, b = random_complex(rng, 8), random_complex(rng, 8)
    got = (Circulant(a) @ Circulant(b)).full()
    assert rel_err(got, dense_circulant(a) @ dense_circulant(b)) <= 1e-12


def test_mul_dense():
    rng = np.random.default_rng(4)
    col = random_complex(rng, 8)
    C = Circulant(col)
    assert np.allclose(C @ np.eye(8), C.full(), atol=1e-12)
    e1 = np.zeros((8, 1))
    e1[1, 0] = 1
    assert np.allclose((C @ e1).ravel(), C.full()[:, 1], atol=1e-12)
    M = random_complex(rng, 8, 3)
    assert rel_err(C @ M, dense_circulant(col) @ M) <= 1e-12
    with pytest.raises(DimensionMismatchError):
        C @ np.zeros((5, 3))


def test_solve():
    ident = Circulant([1, 0, 0])
    b = np.array([4.0, 5.0, 6.0])
    assert np.allclose(ident.solve(b), b)
    C = Circulant([1, 2, 3, 4])
    b = C @ np.ones(4)
    x = C.solve(b)
    assert np.linalg.norm(C @ x - b) <= 1e-12 * np.linalg.norm(b)
    with pytest.raises(SingularMatrixError):
        Circulant([1, 1, 1, 1]).solve(np.ones(4))
    for bad in (3.0, np.ones(3), np.ones((5, 2))):
        for side in ("left", "right"):
            with pytest.raises(DimensionMismatchError):
                C.solve(bad, side=side)


def test_solve_right():
    rng = np.random.default_rng(5)
    col = random_complex(rng, 6)
    C = Circulant(col)
    b = random_complex(rng, 6)
    x = C.solve(b, side="right")
    assert np.linalg.norm(x @ C.full() - b) <= 1e-11 * np.linalg.norm(b)
    with pytest.raises(ValueError):
        C.solve(b, side="sideways")


def test_inv():
    ident = Circulant([1, 0, 0, 0])
    assert np.allclose(ident.inv().full(), np.eye(4))
    assert np.allclose((2 * ident).inv().full(), 0.5 * np.eye(4))
    C = Circulant([1, 2, 3, 4])
    assert np.allclose((C.inv() @ C).full(), np.eye(4), atol=1e-12)
    assert rel_err(C.inv().full(), np.linalg.inv(C.full())) <= 1e-12
    with pytest.raises(SingularMatrixError):
        Circulant([1, 1, 1, 1]).inv()


def test_det():
    assert Circulant([1, 0, 0, 0]).det() == pytest.approx(1.0)
    assert Circulant([1, 1, 1, 1]).det() == pytest.approx(0.0, abs=1e-12)
    C = Circulant([1, 2, 3, 4])
    assert C.det() == pytest.approx(-160.0, rel=1e-12)
    assert C.det() == pytest.approx(np.linalg.det(C.full()), rel=1e-11)


def test_eig():
    vals, vecs = Circulant([1, 0, 0, 0]).eig()
    assert np.allclose(vals, 1.0)
    C = Circulant([1, 2, 3, 4])
    vals, vecs = C.eig()
    dense_vals = np.linalg.eigvals(C.full())
    assert np.allclose(sorted(vals, key=lambda z: (z.real, z.imag)),
                       sorted(dense_vals, key=lambda z: (z.real, z.imag)), atol=1e-11)
    rng = np.random.default_rng(9)
    C = Circulant(random_complex(rng, 8))
    vals, vecs = C.eig()
    for k in range(8):
        assert np.linalg.norm(C @ vecs[:, k] - vals[k] * vecs[:, k]) <= 1e-12 * max(
            1.0, abs(vals[k])
        )


def test_matrix_power():
    C = Circulant([1, 2, 3, 4])
    assert np.allclose((C ** 0).full(), np.eye(4))
    assert np.allclose((C ** 1).col, C.col, atol=1e-13)
    shift = Circulant([0, 1, 0, 0])
    assert np.allclose((shift ** 2).col, [0, 0, 1, 0], atol=1e-13)
    assert np.allclose((C ** 3).full(), np.linalg.matrix_power(C.full(), 3), atol=1e-9)
    assert np.allclose((C ** -1).full(), np.linalg.inv(C.full()), atol=1e-12)
    with pytest.raises(SingularMatrixError):
        Circulant([1, 1, 1, 1]) ** -1


def test_transpose():
    sym = Circulant([1, 2, 3, 2])
    assert sym.T == sym
    C = Circulant([1, 2, 3, 4])
    assert np.array_equal(C.T.col, [1, 4, 3, 2])
    assert np.array_equal(C.T.full(), C.full().T)
    rng = np.random.default_rng(12)
    R = Circulant(random_complex(rng, 7))
    assert R.T.T == R
    assert np.allclose(R.H.full(), R.full().conj().T)
    assert np.max(np.abs(R.T.ev - dft(R.T.col))) <= 1e-12
    assert np.max(np.abs(R.H.ev - dft(R.H.col))) <= 1e-12


def test_matrix_power_requires_an_integer_exponent():
    C = Circulant([2.0, 1.0, 0.0])
    with pytest.raises(TypeError, match="integer exponent"):
        C.matrix_power(1.5)
    assert np.allclose(C.matrix_power(2.0).full(), C.full() @ C.full())


def test_map_entries():
    R = Circulant([1.0, 2.0, 3.0])
    assert R.map_entries("real") == R
    assert np.array_equal(abs(Circulant([-1, 2, -3, 4])).col, [1, 2, 3, 4])
    Z = Circulant([1 + 1j, 2, 3, 4 - 2j])
    im = Z.map_entries("imag")
    assert np.array_equal(im.col, [1, 0, 0, -2])
    assert np.allclose(im.ev, dft(im.col), atol=1e-12)
    with pytest.raises(ValueError, match="unknown entrywise map"):
        Z.map_entries("sqrt")


def test_indexing():
    C = Circulant([1, 2, 3, 4])
    assert C[1, 2] == 4  # displayed matrix entry (2, 3) in 1-based terms
    sub = C[0:3, 0:3]
    assert isinstance(sub, Toeplitz)
    assert np.array_equal(sub.full(), C.full()[:3, :3])
    assert C[:, :] is C
    fancy = C[[0, 2], [1, 3]]
    assert isinstance(fancy, np.ndarray)
    assert np.array_equal(fancy, C.full()[np.ix_([0, 2], [1, 3])])
    row = C[2, :]
    assert isinstance(row, np.ndarray) and np.array_equal(row, C.full()[2])
    with pytest.raises(IndexError):
        C[5, 0]


def test_index_wraparound_is_toeplitz():
    rng = np.random.default_rng(2)
    col = rng.standard_normal(8)
    C = Circulant(col)
    sub = C[0:3, 3:7]
    assert isinstance(sub, Toeplitz)
    assert np.array_equal(sub.full(), C.full()[0:3, 3:7])


def test_to_toeplitz():
    ident = Circulant([1, 0, 0])
    assert np.array_equal(ident.to_toeplitz().full(), np.eye(3))
    C = Circulant([1, 2, 3, 4])
    T = C.to_toeplitz()
    assert np.array_equal(T.full()[0], [1, 4, 3, 2])
    rng = np.random.default_rng(21)
    R = Circulant(random_complex(rng, 9))
    assert np.array_equal(R.to_toeplitz().full(), R.full())


def test_reductions():
    C = Circulant([1, 2, 3, 4])
    assert np.array_equal(C.sum(), [10, 10, 10, 10])
    assert np.array_equal(C.prod(), np.full(4, 24))
    assert np.array_equal(C.diag(), [1, 1, 1, 1])
    assert np.array_equal(C.diag(1), np.full(3, C.full()[0, 1]))
    assert np.array_equal(C.diag(-2), np.full(2, C.full()[2, 0]))
    up = C.triu()
    assert isinstance(up, Toeplitz)
    assert np.array_equal(up.full(), np.triu(C.full()))
    assert np.array_equal(up.full()[:, 0], [1, 0, 0, 0])
    assert np.array_equal(up.full()[0], [1, 4, 3, 2])
    lo = C.tril(-1)
    assert np.array_equal(lo.full(), np.tril(C.full(), -1))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 64])
def test_fast_paths_match_dense_oracles(n):
    rng = np.random.default_rng(100 + n)
    col = random_complex(rng, n)
    C = Circulant(col)
    A = dense_circulant(col)
    x = random_complex(rng, n)
    assert rel_err(C @ x, A @ x) <= 1e-11
    D = Circulant(random_complex(rng, n))
    assert rel_err((C @ D).full(), A @ dense_circulant(D.col)) <= 1e-11
    assert abs(C.det() - np.linalg.det(A)) <= 1e-11 * max(abs(np.linalg.det(A)), 1e-300)
    assert rel_err(C.inv().full(), np.linalg.inv(A)) <= 1e-11
    b = random_complex(rng, n)
    assert rel_err(C.solve(b), np.linalg.solve(A, b)) <= 1e-11
    p = 3
    assert rel_err((C ** p).full(), np.linalg.matrix_power(A, p)) <= 1e-9 * np.linalg.norm(
        np.linalg.matrix_power(A, p)
    ) + 1e-11


ALGEBRA_OPS = {
    "add": lambda A, B: A + B,
    "sub": lambda A, B: A - B,
    "neg": lambda A, B: -A,
    "scale": lambda A, B: 2.5j * A,
    "div": lambda A, B: A / (2.0 - 1j),
    "add_scalar": lambda A, B: A + (1.5 - 2j),
    "sub_scalar": lambda A, B: A - (0.5 + 1j),
    "transpose": lambda A, B: A.T,
    "adjoint": lambda A, B: A.H,
    "elementwise": lambda A, B: A * B,
    "map_entries": lambda A, B: A.map_entries("abs"),
    "tril": lambda A, B: A.tril(1),
    "triu": lambda A, B: A.triu(-1),
    "slice": lambda A, B: A[1:, :-1],
    "mul": lambda A, B: A @ B,
    "inv": lambda A, B: A.inv(),
    "pow": lambda A, B: A ** 2,
}

# the operations that mean the same on the dense matrices
DENSE_ALIKE = ("add", "sub", "neg", "scale", "div", "add_scalar", "sub_scalar", "transpose",
               "elementwise", "slice", "mul")

# the same operations, made to overflow: H has an entry 1.5e308 (1 + 1j),
# so doubling it, dividing it by 1e-300, squaring it or taking its modulus
# leaves the doubles; the rest (a sign, a transpose, a selection of entries)
# cannot overflow
OVERFLOWS = {
    "add": lambda H: H + H,
    "sub": lambda H: H - (-H),
    "scale": lambda H: 1e300 * H,
    "div": lambda H: H / np.float64(1e-300),
    "add_scalar": lambda H: H + 1.5e308,
    "sub_scalar": lambda H: H - (-1.5e308),
    "elementwise": lambda H: H * H,
    "map_entries": lambda H: H.map_entries("abs"),
    "mul": lambda H: H @ H,
    "inv": lambda H: Circulant([1e-310, 0.0]).inv(),  # 1 / 1e-310 overflows
    "pow": lambda H: H ** 2,
}


def _operands(kind, rng, toeprem):
    if kind == "circulant":
        return Circulant(random_complex(rng, 12)), Circulant(random_complex(rng, 12))
    # a tall shape, so the transposes must swap it
    first = EmbeddingPolicy.TIGHT if kind == "tight-pow2" else EmbeddingPolicy.POW2
    return tuple(Toeplitz.from_diagonals(random_complex(rng, 11), 7, 5,
                                         config=Config(embedding=p, toeprem=toeprem))
                 for p in (first, EmbeddingPolicy.POW2))


def _assert_coherent(out):
    # a carried spectrum must equal the transform of the value's own entries
    spec, data = (out.ev, out.col) if isinstance(out, Circulant) else (out.cev, out.embed())
    tol = 1e-11 * max(1.0, np.max(np.abs(data)))
    assert np.max(np.abs(spec - dft(data))) <= tol


@pytest.mark.parametrize("kind, op", [
    *(pytest.param("circulant", op, id=op) for op in ALGEBRA_OPS),
    # a Toeplitz value has no structured product, inverse or power
    *(pytest.param("toeplitz", op, id=f"toeplitz-{op}") for op in ALGEBRA_OPS
      if op not in ("mul", "inv", "pow")),
    *(pytest.param("tight-pow2", op, id=f"tight-pow2-{op}") for op in ("add", "sub")),
])
def test_algebra_closure_and_cache_coherence(kind, op):
    # every derived value comes out of _like: its entries are finite, and
    # under toeprem every Toeplitz one carries its spectrum
    rng = np.random.default_rng(zlib.crc32(op.encode()))  # str hash() is salted per process
    A, B = _operands(kind, rng, toeprem=True)
    out = ALGEBRA_OPS[op](A, B)
    # a triangle or a strict block of a circulant is Toeplitz
    assert type(out) is (Toeplitz if op in ("tril", "triu", "slice") else type(A))
    _assert_coherent(out)
    if op in DENSE_ALIKE:
        assert rel_err(out.full(), ALGEBRA_OPS[op](A.full(), B.full())) <= 1e-13

    # with toeprem off a Toeplitz result stays lazy until a product fills it
    config_set("toeprem", "off")  # for the Toeplitz values a circulant converts to
    A, B = _operands(kind, rng, toeprem=False)
    out = ALGEBRA_OPS[op](A, B)
    if isinstance(out, Toeplitz):
        assert out.cev is None
        out @ np.ones(out.shape[1])
    _assert_coherent(out)

    if op in OVERFLOWS:
        big = np.array([1.0, 1.5e308 * (1 + 1j), 2.0])
        # the 2-entry column keeps a finite spectrum, 1 +- 1.5e308 (1 + 1j);
        # the overflow raises ValueError and prints no numpy warning
        H = (Circulant(big[:2]) if kind == "circulant"
             else Toeplitz.from_diagonals(big, 2, 2))
        with pytest.raises(ValueError, match="non-finite"):
            OVERFLOWS[op](H)


def test_solve_matvec_round_trip():
    rng = np.random.default_rng(77)
    col = random_complex(rng, 32)
    col[0] += 12.0  # keeps the spectrum away from zero
    C = Circulant(col)
    b = random_complex(rng, 32)
    x = C.solve(b)
    assert np.linalg.norm(C @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_refresh():
    C = Circulant([1, 2, 3, 4])
    again = C.refresh()
    assert again == C
    assert np.allclose(again.ev, C.ev, atol=1e-14)


def test_real_inputs_stay_real():
    rng = np.random.default_rng(6)
    C = Circulant(rng.standard_normal(10))
    D = Circulant(rng.standard_normal(10))
    assert (C @ D).isreal
    assert C.inv().isreal
    assert C.solve(rng.standard_normal(10)).dtype.kind == "f"
    assert isinstance(C.det(), float)


def _full_spectrum_verdict(C):
    """The singularity message from every eigenvalue, or "" if nonsingular."""
    mags = np.abs(C.ev)
    lo, hi = mags.min(), mags.max()
    if lo > SINGULARITY_RTOL * hi:
        return ""
    return (f"singular circulant: smallest eigenvalue magnitude {lo:.3e} "
            f"is below {SINGULARITY_RTOL:g} * {hi:.3e}")


def _singularity_cases():
    rng = np.random.default_rng(8)
    cases = [Circulant([2.0]), Circulant([0.0]), Circulant([1.0, 1.0]),
             Circulant([1.0, -1.0, 1.0, -1.0]), Circulant(np.ones(7)),
             Circulant([1.0, 1e-14, 0.0, 0.0, 0.0]), Circulant(1j * np.ones(4))]
    for n in (6, 9):
        C = Circulant(rng.standard_normal(n))
        D = Circulant(rng.standard_normal(n))
        cases += [C, C.inv(), C @ D, C ** 3, C ** -2, C - C, C + 0.0 * D,
                  Circulant(random_complex(rng, n))]
        # zero the eigenvalue pair j, n - j of a real circulant, or its DC term
        for j in (0, 1, n // 2):
            ev = np.fft.fft(rng.standard_normal(n))
            ev[j] = ev[-j] = 0.0
            cases.append(Circulant(np.fft.ifft(ev).real))
    return cases


@pytest.mark.parametrize("C", _singularity_cases())
def test_singularity_verdict_matches_full_spectrum(C):
    want = _full_spectrum_verdict(C)
    if want:
        with pytest.raises(SingularMatrixError) as info:
            C._check_nonsingular()
        assert str(info.value) == want
    else:
        C._check_nonsingular()
