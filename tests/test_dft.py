import numpy as np
import pytest

from structmat import dft, fast_len, fourier_matrix, idft, next_pow2
from structmat.dft import forward, inverse

from conftest import dft_direct, random_complex, same_bits


def test_impulse():
    assert np.allclose(dft([1, 0, 0, 0]), np.ones(4))


def test_constant_is_dc_only():
    c = 2.5 - 1.0j
    out = dft([c, c, c, c])
    assert np.allclose(out, [4 * c, 0, 0, 0], atol=1e-14)


def test_known_vector():
    # frozen from the O(N^2) direct-summation oracle
    expected = np.array([10, -2 + 2j, -2, -2 - 2j])
    assert np.allclose(dft([1, 2, 3, 4]), expected, atol=1e-13)
    assert np.allclose(dft_direct([1, 2, 3, 4]), expected, atol=1e-12)


def test_idft_examples():
    assert np.allclose(idft([1, 1, 1, 1]), [1, 0, 0, 0], atol=1e-14)
    assert np.allclose(idft([10, -2 + 2j, -2, -2 - 2j]), [1, 2, 3, 4], atol=1e-13)
    n, c = 6, 3.5
    v = np.zeros(n)
    v[0] = n * c
    assert np.allclose(idft(v), np.full(n, c), atol=1e-13)


def test_empty_operand_errors():
    with pytest.raises(ValueError, match="empty"):
        dft([])
    with pytest.raises(ValueError, match="empty"):
        idft(np.array([]))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 13, 16, 97, 128, 256])
def test_round_trip(n):
    rng = np.random.default_rng(n)
    v = random_complex(rng, n)
    back = idft(dft(v))
    assert np.max(np.abs(back - v)) <= 1e-13 * max(np.max(np.abs(v)), 1.0)


def test_linearity():
    rng = np.random.default_rng(11)
    u = random_complex(rng, 40)
    v = random_complex(rng, 40)
    a, b = 1.3 - 0.2j, -0.7 + 2.1j
    lhs = dft(a * u + b * v)
    rhs = a * dft(u) + b * dft(v)
    assert np.linalg.norm(lhs - rhs) <= 1e-13 * np.linalg.norm(rhs)


@pytest.mark.parametrize("n", [2, 3, 17, 64, 100])
def test_parseval(n):
    rng = np.random.default_rng(n + 1000)
    v = random_complex(rng, n)
    lhs = np.sum(np.abs(dft(v)) ** 2)
    rhs = n * np.sum(np.abs(v) ** 2)
    assert abs(lhs - rhs) <= 1e-12 * rhs


@pytest.mark.parametrize("n", [1, 2, 3, 4, 9, 31, 64, 128])
def test_matches_direct_summation(n):
    rng = np.random.default_rng(n + 2000)
    v = random_complex(rng, n)
    want = dft_direct(v)
    assert np.linalg.norm(dft(v) - want) <= 1e-12 * np.linalg.norm(want)


def test_next_pow2():
    assert next_pow2(7) == 8
    assert next_pow2(8) == 8
    assert next_pow2(9) == 16
    assert next_pow2(1) == 1
    with pytest.raises(ValueError):
        next_pow2(0)


def _is_5_smooth(k):
    for p in (2, 3, 5):
        while k % p == 0:
            k //= p
    return k == 1


def test_fast_len_matches_brute_force():
    smooth = [k for k in range(1, 20481) if _is_5_smooth(k)]
    want, i = [], 0
    for k in range(1, 20001):
        while smooth[i] < k:
            i += 1
        want.append(smooth[i])
    assert [fast_len(k) for k in range(1, 20001)] == want


def test_fast_len_examples_and_bounds():
    assert fast_len(2531) == 2560  # a prime tight embedding order
    assert fast_len(3007) == 3072  # 31 * 97; the 7-smooth 3024 is passed over
    assert fast_len(9999) == 10000  # where next_pow2 gives 16384
    for k in (1, 7, 1023, 4097, 123457):
        assert k <= fast_len(k) <= next_pow2(k)
    assert fast_len(np.int64(11)) == 12


@pytest.mark.parametrize("k", [0, -5])
def test_fast_len_rejects_non_positive(k):
    with pytest.raises(ValueError, match="positive integer"):
        fast_len(k)


def test_fourier_matrix_small():
    assert np.allclose(fourier_matrix(1), [[1.0]])
    f2 = fourier_matrix(2)
    assert np.allclose(f2, np.array([[1, 1], [1, -1]]) / np.sqrt(2))


def test_fourier_matrix_unitary():
    f = fourier_matrix(5)
    assert np.allclose(f @ f.conj().T, np.eye(5), atol=1e-13)
    with pytest.raises(ValueError):
        fourier_matrix(0)


@pytest.mark.parametrize("n", [1, 2, 7, 12, 97])
@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("shape, axis", [((None,), -1), ((None,), 0), ((None, 3), 0),
                                          ((3, None), -1)])
def test_transform_pair_is_numpy_fft(n, real, shape, axis):
    # the pair is rfft/irfft for real data and fft/ifft otherwise, bit for bit
    rng = np.random.default_rng(n)
    shape = tuple(n if k is None else k for k in shape)
    x = rng.standard_normal(shape) if real else random_complex(rng, *shape)
    X = forward(x, n, real, axis)
    want = (np.fft.rfft if real else np.fft.fft)(x, n=n, axis=axis)
    assert same_bits(X, want)
    back = inverse(X, n, real, axis)
    want = (np.fft.irfft if real else np.fft.ifft)(X, n=n, axis=axis)
    assert same_bits(back, want)
    assert np.max(np.abs(back - x)) <= 1e-13 * np.max(np.abs(x))
