import operator

import numpy as np
import pytest

from structmat import (
    Circulant,
    Config,
    DimensionMismatchError,
    EmbeddingPolicy,
    Toeplitz,
    UnsupportedOperationError,
    config_set,
)

from structmat.dft import spectral_apply, spectrum_of

from conftest import dense_toeplitz, random_complex, rel_err, same_bits


def paper_example():
    return Toeplitz([4, 5, 6, 7], [4, 3, 2, 1])


def test_construction_from_col_row():
    T = paper_example()
    assert np.array_equal(T.t, [1, 2, 3, 4, 5, 6, 7])
    want = np.array([[4, 3, 2, 1], [5, 4, 3, 2], [6, 5, 4, 3], [7, 6, 5, 4]])
    assert np.array_equal(T.full(), want)


def test_hermitian_completion():
    T = Toeplitz([2, -1, 0, 0])
    assert np.array_equal(T.full(), T.full().T)
    Z = Toeplitz([1 + 1j, 2])
    assert Z.full()[0, 1] == 2  # conj of the real subdiagonal value
    assert np.array_equal(Z.full(), np.array([[1 + 1j, 2], [2, 1 + 1j]]))


def test_construction_errors():
    with pytest.raises(ValueError):
        Toeplitz([])
    with pytest.raises(ValueError, match="disagree"):
        Toeplitz([1, 2], [3, 4])
    with pytest.raises(ValueError):
        Toeplitz([np.nan, 1.0])
    with pytest.raises(DimensionMismatchError):
        Toeplitz.from_diagonals([1, 2, 3], 2, 3)
    for m, n in ((0, 2), (2, 0), (-1, 3)):
        with pytest.raises(ValueError, match=f"dimensions must be positive, got {m}x{n}"):
            Toeplitz.from_diagonals([1.0], m, n)


def test_full_one_by_one_and_diag_constancy():
    assert np.array_equal(Toeplitz([9]).full(), [[9.0]])
    rng = np.random.default_rng(0)
    T = Toeplitz.from_diagonals(rng.standard_normal(10), 4, 7)
    A = T.full()
    for d in range(-3, 7):
        diag = np.diagonal(A, offset=d)
        assert np.all(diag == diag[0])


def test_embed_orders_and_layout():
    T = paper_example()
    tight = T.embed(EmbeddingPolicy.TIGHT)
    assert np.array_equal(tight, [4, 5, 6, 7, 1, 2, 3])
    padded = T.embed(EmbeddingPolicy.POW2)
    assert np.array_equal(padded, [4, 5, 6, 7, 0, 1, 2, 3])
    assert np.array_equal(Toeplitz([3.5]).embed(), [3.5])


def test_toeprem_cache():
    T = paper_example()
    assert T.cev is not None and T.cev.shape == (8,)  # pow2 default
    config_set("embedding", "tight")
    assert paper_example().cev.shape == (7,)
    config_set("embedding", "pow2")
    config_set("toeprem", "off")
    lazy = paper_example()
    assert lazy.cev is None
    assert repr(lazy) == "Toeplitz(shape=4x4, dtype=float64, policy=pow2, cev=none)"
    lazy.toeprem()
    first = lazy.cev
    assert first is not None
    assert repr(lazy) == "Toeplitz(shape=4x4, dtype=float64, policy=pow2, cev=8)"
    lazy.toeprem()
    assert lazy.cev is first  # idempotent fill


def test_matvec_examples():
    T = paper_example()
    e0 = np.zeros(4)
    e0[0] = 1
    assert np.allclose(T @ e0, [4, 5, 6, 7], atol=1e-13)
    assert np.allclose(T @ np.ones(4), [10, 14, 18, 22], atol=1e-12)
    rng = np.random.default_rng(73)
    t = random_complex(rng, 9)
    T = Toeplitz.from_diagonals(t, 7, 3)
    x = random_complex(rng, 3)
    assert rel_err(T @ x, dense_toeplitz(t, 7, 3) @ x) <= 1e-12
    with pytest.raises(DimensionMismatchError):
        T @ np.ones(4)


@pytest.mark.parametrize("policy", [EmbeddingPolicy.TIGHT, EmbeddingPolicy.POW2])
@pytest.mark.parametrize("shape", [(1, 1), (2, 5), (5, 2), (16, 16), (64, 32), (32, 64)])
def test_matvec_matches_dense_both_policies(policy, shape):
    m, n = shape
    rng = np.random.default_rng(m * 131 + n)
    t = random_complex(rng, m + n - 1)
    T = Toeplitz.from_diagonals(t, m, n, config=Config(embedding=policy))
    x = random_complex(rng, n)
    assert rel_err(T @ x, dense_toeplitz(t, m, n) @ x) <= 1e-11


def test_embedding_leading_block():
    rng = np.random.default_rng(5)
    for m, n in [(4, 4), (3, 6), (6, 3)]:
        t = rng.standard_normal(m + n - 1)
        T = Toeplitz.from_diagonals(t, m, n)
        C = Circulant(T.embed(EmbeddingPolicy.TIGHT))
        assert np.array_equal(C.full()[:m, :n], T.full())


def test_cev_coherence():
    rng = np.random.default_rng(55)
    t = random_complex(rng, 12)
    for policy in EmbeddingPolicy:
        T = Toeplitz.from_diagonals(t, 5, 8, config=Config(embedding=policy))
        want = np.fft.fft(T.embed())
        assert np.max(np.abs(T.cev - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


# -- the shortest exact embedding of a banded T -------------------------------


def _band_extents(m, n):
    """Every (lo, hi) extent of the nonzero lags of an m-by-n matrix, with
    (1, 0) for the zero matrix."""
    yield 1, 0
    for lo in range(1 - n, m):
        for hi in range(lo, m):
            yield lo, hi


def _with_band(rng, m, n, lo, hi):
    """Diagonal vector with generic nonzero values on lags lo .. hi only."""
    t = np.zeros(m + n - 1)
    width = max(0, hi - lo + 1)
    t[lo + n - 1: hi + n] = rng.uniform(1.0, 2.0, width) * rng.choice([-1.0, 1.0], width)
    return t


def _circulant_has_block(t, m, n, size):
    """Brute force: whether the order-`size` circulant holding T's nonzero
    lags has T as its leading m-by-n block."""
    c = np.zeros(size)
    for d in range(1 - n, m):
        if t[d + n - 1] != 0.0:
            c[d % size] = t[d + n - 1]
    block = c[(np.arange(m)[:, None] - np.arange(n)[None, :]) % size]
    return np.array_equal(block, dense_toeplitz(t, m, n))


@pytest.mark.parametrize("m", range(1, 9))
def test_exact_order_is_the_least_exact_circulant(m):
    rng = np.random.default_rng(m)
    for n in range(1, 9):
        for lo, hi in _band_extents(m, n):
            t = _with_band(rng, m, n, lo, hi)
            T = Toeplitz.from_diagonals(t, m, n)
            u, l = (max(0, -lo), max(0, hi)) if lo <= hi else (0, 0)
            order = max(m + u, n + l)
            assert T._band() == (u, l) and T._exact_order() == order
            dense = dense_toeplitz(t, m, n)
            # the product is defined from order max(m, n) up, where the
            # operand fits and the result can be cropped
            for size in range(max(m, n), m + n + 1):
                assert _circulant_has_block(t, m, n, size) == (size >= order), (lo, hi, size)
                got = spectral_apply(T._spectrum(size), np.eye(n), m, True)
                if size >= order:
                    assert np.max(np.abs(got - dense)) <= 1e-12 * 2.0 * n
                else:
                    assert np.max(np.abs(got - dense)) >= 0.5


@pytest.mark.parametrize("policy", [EmbeddingPolicy.TIGHT, EmbeddingPolicy.POW2])
@pytest.mark.parametrize("lags", [(-20, 30), (-3, 5), (0, 4), (-6, -2), (2, 2)],
                         ids=["dense", "band", "lower", "upper", "one-lag"])
def test_embed_unchanged_by_the_band(policy, lags):
    # the layout every embedding order from m + n - 1 up had before the band
    # rule, written out here; signed zeros off the band must survive
    m, n = 31, 21
    lo, hi = lags
    t = np.full(m + n - 1, -0.0)
    t[lo + n - 1: hi + n] = np.random.default_rng(hi - lo).standard_normal(hi - lo + 1)
    T = Toeplitz.from_diagonals(t, m, n, config=Config(embedding=policy))
    size = T.embed_order
    want = np.zeros(size)
    want[:m] = t[n - 1:]
    want[size - (n - 1):] = t[: n - 1]
    assert same_bits(T.embed(), want)
    assert same_bits(T.cev, spectrum_of(want))
    x = np.random.default_rng(7).standard_normal(n)
    assert same_bits(T @ x, spectral_apply(spectrum_of(want), x, m, True))


def test_add():
    T = paper_example()
    assert (T + 0) == T
    zero = T + (-T)
    assert np.allclose(zero.t, 0)
    C = Circulant([1, 2, 3, 4])
    S = C + T
    assert isinstance(S, Toeplitz)
    assert np.allclose(S.full(), C.full() + T.full(), atol=1e-13)
    S2 = T + C
    assert isinstance(S2, Toeplitz)
    assert np.allclose(S2.full(), S.full(), atol=1e-13)
    with pytest.raises(DimensionMismatchError):
        T + Toeplitz([1, 2])


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
@pytest.mark.parametrize("active_toeprem", [True, False])
@pytest.mark.parametrize("policy", [EmbeddingPolicy.TIGHT, EmbeddingPolicy.POW2])
def test_mixed_circulant_toeplitz_keeps_the_toeplitz_settings(op, active_toeprem, policy):
    # the active settings differ from T's in both keys, so the result shows
    # whose settings it took, on either side of the operator
    other = EmbeddingPolicy.POW2 if policy is EmbeddingPolicy.TIGHT else EmbeddingPolicy.TIGHT
    config_set("toeprem", active_toeprem)
    config_set("embedding", other.value)
    T = Toeplitz([4.0, 1.0, 0.5], config=Config(toeprem=not active_toeprem, embedding=policy))
    C = Circulant([1.0, 0.2, 0.2])
    for S, ref in ((op(C, T), op(C.full(), T.full())), (op(T, C), op(T.full(), C.full()))):
        assert isinstance(S, Toeplitz)
        assert S.policy is policy
        assert (S.cev is not None) is (not active_toeprem)
        assert rel_err(S.full(), ref) <= 1e-15


def test_add_combines_caches():
    A = paper_example()
    B = paper_example()
    out = A + B
    assert out.cev is not None
    assert np.allclose(out.cev, A.cev + B.cev, atol=1e-13)
    shifted = A + 1.0
    # toeprem fills the shifted value's spectrum at once
    assert np.allclose(shifted.cev, np.fft.fft(shifted.embed()), atol=1e-12)
    assert np.allclose(shifted @ np.ones(4), A @ np.ones(4) + 4.0, atol=1e-12)


def test_scalar_and_map_ops():
    T = paper_example()
    assert T.scale(1.0) == T
    assert np.array_equal(abs(Toeplitz([-2, 3], [-2, -5])).t, [5, 2, 3])
    rng = np.random.default_rng(31)
    t = random_complex(rng, 7)
    Z = Toeplitz.from_diagonals(t, 4, 4)
    assert np.allclose(Z.conj().full(), np.conj(Z.full()), atol=1e-13)
    assert np.array_equal(Z.map_entries("real").full(), Z.full().real)
    with pytest.raises(ValueError):
        Z.map_entries("exp")


def test_matmul_promotions():
    T = paper_example()
    assert np.allclose(T @ np.eye(4), T.full(), atol=1e-12)
    e1 = np.zeros(4)
    e1[1] = 1
    assert np.allclose(T @ e1, [3, 4, 5, 6], atol=1e-12)
    rng = np.random.default_rng(14)
    a = random_complex(rng, 8)
    b = random_complex(rng, 7)
    A = Toeplitz.from_diagonals(a, 5, 4)
    B = Toeplitz.from_diagonals(b, 4, 4)
    got = A @ B
    assert isinstance(got, np.ndarray)
    assert rel_err(got, dense_toeplitz(a, 5, 4) @ dense_toeplitz(b, 4, 4)) <= 1e-12
    with pytest.raises(DimensionMismatchError):
        B @ A


def test_transpose():
    sym = Toeplitz([2, -1, 0])
    assert sym.T == sym
    T = paper_example()
    assert np.array_equal(T.T.full()[:, 0], [4, 3, 2, 1])
    assert np.array_equal(T.T.full()[0], [4, 5, 6, 7])
    rng = np.random.default_rng(8)
    t = random_complex(rng, 8)
    R = Toeplitz.from_diagonals(t, 3, 6)
    assert R.T.T == R
    assert np.array_equal(R.T.full(), R.full().T)
    assert np.array_equal(R.H.full(), R.full().conj().T)
    # the carried-over spectra must agree with a fresh transform
    for derived in (R.T, R.H):
        assert derived.cev is not None
        want = np.fft.fft(derived.embed())
        assert np.max(np.abs(derived.cev - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_indexing():
    T = paper_example()
    assert T[0, 0] == 4
    sub = T[1:4, 0:3]
    assert isinstance(sub, Toeplitz)
    assert sub[0, 0] == 5
    assert np.array_equal(sub.full(), T.full()[1:4, 0:3])
    fancy = T[[0, 2], [0, 1]]
    assert isinstance(fancy, np.ndarray)
    assert np.array_equal(fancy, T.full()[np.ix_([0, 2], [0, 1])])
    assert np.array_equal(T[2, :], T.full()[2])
    with pytest.raises(IndexError):
        T[4, 0]


def test_tri():
    T = paper_example()
    up = Toeplitz([1, 0, 0], [1, 5, 5])
    assert up.triu() == up
    low = T.tril()
    assert np.array_equal(low.full()[0], [4, 0, 0, 0])
    rng = np.random.default_rng(9)
    R = Toeplitz.from_diagonals(rng.standard_normal(10), 5, 6)
    for k in (-1, 0, 2):
        assert np.array_equal(R.tril(k).full(), np.tril(R.full(), k))
        assert np.array_equal(R.triu(k).full(), np.triu(R.full(), k))


def test_reductions():
    rng = np.random.default_rng(10)
    t = random_complex(rng, 8)
    T = Toeplitz.from_diagonals(t, 5, 4)
    A = T.full()
    assert np.allclose(T.sum(), A.sum(axis=0), atol=1e-13)
    assert np.allclose(T.prod(), A.prod(axis=0), atol=1e-12)
    assert np.array_equal(T.diag(), np.diagonal(A))
    assert np.array_equal(T.diag(2), np.diagonal(A, 2))
    assert np.array_equal(T.diag(-3), np.diagonal(A, -3))


def test_forbidden_dense_algebra():
    T = paper_example()
    with pytest.raises(UnsupportedOperationError, match="inverse"):
        T.inv()
    with pytest.raises(UnsupportedOperationError, match="determinant"):
        T.det()
    with pytest.raises(UnsupportedOperationError, match="eig"):
        T.eig()


def test_structure_preserved_and_entrywise_commutes_with_full():
    rng = np.random.default_rng(11)
    t = random_complex(rng, 9)
    T = Toeplitz.from_diagonals(t, 5, 5)
    for out, ref in [
        (T + T, T.full() + T.full()),
        (1.5 * T, 1.5 * T.full()),
        (T * T, T.full() * T.full()),
        (T.T, T.full().T),
        (T.tril(1), np.tril(T.full(), 1)),
        (abs(T), np.abs(T.full())),
    ]:
        assert isinstance(out, Toeplitz)
        assert np.allclose(out.full(), ref, atol=1e-13)


def test_policy_agreement_on_products():
    rng = np.random.default_rng(12)
    t = random_complex(rng, 20)
    x = random_complex(rng, 9)
    tight = Toeplitz.from_diagonals(t, 12, 9, config=Config(embedding=EmbeddingPolicy.TIGHT))
    pow2 = Toeplitz.from_diagonals(t, 12, 9, config=Config(embedding=EmbeddingPolicy.POW2))
    assert rel_err(tight @ x, pow2 @ x) <= 1e-11


def test_real_stays_real():
    rng = np.random.default_rng(13)
    T = Toeplitz.from_diagonals(rng.standard_normal(9), 5, 5)
    assert (T @ np.ones(5)).dtype.kind == "f"
    assert (T + T).isreal and (2.0 * T).isreal and T.T.isreal


def test_concurrent_cache_fill_is_idempotent():
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(99)
    t = rng.standard_normal(1023)
    x = rng.standard_normal(512)
    T = Toeplitz.from_diagonals(t, 512, 512, config=Config(toeprem=False))
    ref = dense_toeplitz(t, 512, 512) @ x
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: T @ x, range(16)))
    for got in results:
        assert rel_err(got, ref) <= 1e-11
    assert T.cev is not None
