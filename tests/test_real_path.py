"""The half-length real-FFT path of the spectral kernel, against dense oracles.

Real values with real operands take rfft/irfft; every other mix keeps the
full complex transforms.  The stored spectra stay full length.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import structmat
from structmat import Circulant, Config, EmbeddingPolicy, SingularMatrixError, Toeplitz
from structmat._structured import reversal_index

from conftest import dense_circulant, dense_toeplitz, random_complex, rel_err

ORDERS = (1, 2, 3, 7, 64, 257, 1009)
POLICIES = (EmbeddingPolicy.TIGHT, EmbeddingPolicy.POW2)


def real_circulant(rng, n):
    c = rng.standard_normal(n)
    c[0] += np.abs(c).sum() + 1.0  # every eigenvalue has modulus >= 1
    return c


def _forbid(monkeypatch, *names):
    def refuse(*args, **kwargs):
        raise AssertionError("unexpected transform")
    for name in names:
        monkeypatch.setattr(np.fft, name, refuse)


@pytest.mark.parametrize("n", ORDERS)
def test_real_circulant_matches_dense_oracle(n):
    rng = np.random.default_rng(n)
    c = real_circulant(rng, n)
    C, A = Circulant(c), dense_circulant(c)
    x, X = rng.standard_normal(n), rng.standard_normal((n, 3))
    checks = [
        (C @ x, A @ x),
        (C @ X, A @ X),
        (X.T @ C, X.T @ A),
        (C.solve(x), np.linalg.solve(A, x)),
        (C.solve(X), np.linalg.solve(A, X)),
        (C.solve(x, side="right"), np.linalg.solve(A.T, x)),
        (C.inv().full(), np.linalg.inv(A)),
        (C.matrix_power(-2).full(), np.linalg.matrix_power(np.linalg.inv(A), 2)),
        ((C @ C).full(), A @ A),
    ]
    for got, ref in checks:
        assert got.dtype == np.float64
        assert rel_err(got, ref) <= 1e-12
    # a 2-d float32 operand is transformed in single precision
    X32 = X.astype(np.float32)
    for got, ref in ((C @ X32, A @ X32.astype(np.float64)),
                     (C.solve(X32), np.linalg.solve(A, X32.astype(np.float64)))):
        assert got.dtype == np.float64
        assert rel_err(got, ref) <= 1e-5


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("shape", [(n, n) for n in ORDERS] + [(5, 3), (3, 5), (6, 3)])
def test_real_toeplitz_matches_dense_oracle(shape, policy):
    # tight square orders 2n-1 are odd; 6x3 gives an even tight order, and
    # 1x1 an odd pow2 order
    m, n = shape
    rng = np.random.default_rng(m * 10007 + n)
    t = rng.standard_normal(m + n - 1)
    T = Toeplitz.from_diagonals(t, m, n, config=Config(embedding=policy))
    A = dense_toeplitz(t, m, n)
    x, X, Y = rng.standard_normal(n), rng.standard_normal((n, 2)), rng.standard_normal((4, m))
    for got, ref in ((T @ x, A @ x), (T @ X, A @ X), (Y @ T, Y @ A)):
        assert got.dtype == np.float64
        assert rel_err(got, ref) <= 1e-12
    X32 = X.astype(np.float32)  # transformed in single precision
    got = T @ X32
    assert got.dtype == np.float64
    assert rel_err(got, A @ X32.astype(np.float64)) <= 1e-5


@pytest.mark.parametrize("n", (1, 2, 7, 64))
def test_real_complex_mixes_take_the_complex_branch(n, monkeypatch):
    rng = np.random.default_rng(100 + n)
    c, z = real_circulant(rng, n), random_complex(rng, n)
    z[0] += np.abs(z).sum() + 1.0
    t, u = rng.standard_normal(2 * n - 1), random_complex(rng, 2 * n - 1)
    x, w = rng.standard_normal(n), random_complex(rng, n)
    pairs = ((Circulant(c), w), (Circulant(z), x),
             (Toeplitz.from_diagonals(t, n, n), w), (Toeplitz.from_diagonals(u, n, n), x))
    _forbid(monkeypatch, "rfft", "irfft")
    for V, operand in pairs:
        A = V.full()
        got = V @ operand
        assert np.iscomplexobj(got) and rel_err(got, A @ operand) <= 1e-12
        if isinstance(V, Circulant):
            got = V.solve(operand)
            assert np.iscomplexobj(got)
            assert rel_err(got, np.linalg.solve(A, operand)) <= 1e-12


def test_real_products_and_solves_make_no_complex_transform(monkeypatch):
    rng = np.random.default_rng(3)
    C = Circulant(real_circulant(rng, 64))
    T = Toeplitz.from_diagonals(rng.standard_normal(127), 64, 64)
    x = rng.standard_normal(64)
    _forbid(monkeypatch, "fft", "ifft")
    for got in (T @ x, C @ x, C.solve(x), C.solve(x, side="right"),
                Toeplitz.from_diagonals(rng.standard_normal(9), 5, 5).cev,
                C.inv().col, (C @ C).col):
        assert np.all(np.isfinite(got))


def test_package_never_calls_the_public_transforms():
    # dft/idft validate their input for users; internal calls skip that
    package = Path(structmat.__file__).parent
    for path in package.glob("*.py"):
        if path.name == "dft.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                assert name not in ("dft", "idft"), f"{path.name}:{node.lineno}"


@pytest.mark.parametrize("n", ORDERS)
def test_real_spectra_are_exactly_hermitian(n):
    rng = np.random.default_rng(200 + n)
    c = rng.standard_normal(n)
    spectra = [(Circulant(c).ev, np.fft.fft(c))]
    for policy in POLICIES:
        T = Toeplitz.from_diagonals(rng.standard_normal(2 * n - 1), n, n,
                                    config=Config(embedding=policy))
        spectra.append((T.cev, np.fft.fft(T.embed())))
    for got, ref in spectra:
        assert got.dtype == np.complex128 and got.shape == ref.shape
        assert rel_err(got, ref) <= 1e-13
        assert np.array_equal(got, np.conj(got[reversal_index(got.shape[0])]))
    # complex spectra are the plain full transform, bit for bit
    z = random_complex(rng, n)
    assert np.array_equal(Circulant(z).ev, np.fft.fft(z))


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_constructors_leave_caller_arrays_alone(dtype):
    rng = np.random.default_rng(5)

    def owned(k):
        v = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        return (v if dtype is np.complex128 else v.real).astype(dtype)

    a, c, r, t = owned(6), owned(4), owned(5), owned(8)
    r[0] = c[0]
    values = [Circulant(a), Toeplitz(c, r), Toeplitz(c), Toeplitz.from_diagonals(t, 5, 4)]
    before = [(V.full().copy(), (V.ev if isinstance(V, Circulant) else V.cev).copy())
              for V in values]
    for arr in (a, c, r, t):
        assert arr.flags.writeable
        arr[:] = 99.0
    for V, (full, spec) in zip(values, before):
        assert np.array_equal(V.full(), full)
        assert np.array_equal(V.ev if isinstance(V, Circulant) else V.cev, spec)


def test_singularity_verdict_is_computed_once_per_value(monkeypatch):
    import structmat.circulant as circulant_module

    C = Circulant([4.0, 1.0, 0.0, 1.0])
    b = np.ones(4)
    x = C.solve(b)
    # with every circulant now below the cutoff, only a fresh value notices
    monkeypatch.setattr(circulant_module, "SINGULARITY_RTOL", 2.0)
    assert np.array_equal(C.solve(b), x)
    C.inv()
    with pytest.raises(SingularMatrixError, match="singular circulant"):
        Circulant(C.col).solve(b)
    monkeypatch.undo()

    S = Circulant([1.0, 1.0, 1.0, 1.0])
    messages = set()
    for attempt in (lambda: S.solve(b), lambda: S.solve(b, side="right"),
                    S.inv, lambda: S ** -1, lambda: S.matrix_power(-2)):
        with pytest.raises(SingularMatrixError) as info:
            attempt()
        messages.add(str(info.value))
    assert len(messages) == 1
    assert messages.pop().startswith("singular circulant: smallest eigenvalue magnitude")
