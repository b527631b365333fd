"""Discrete Fourier transform engine and transform-size utilities.

The convention is normative for the whole package: the forward transform is
unnormalized,

    X_k = sum_{j=0}^{N-1} x_j exp(-2*pi*i*j*k / N),

and the inverse carries the 1/N factor.  Arbitrary lengths (primes included)
are supported exactly; the heavy lifting is delegated to numpy's pocketfft,
which uses mixed-radix/Bluestein factorizations internally.

Two size rules pick a transform length N >= k: `next_pow2(k)` rounds up to
a power of two, and `fast_len(k)` to the nearest 2*3*5-smooth integer,
which pocketfft transforms with its fast radix kernels and which is never
longer than the power of two.  Lengths with a large prime factor take the
Bluestein path instead, several times slower.  A factor of 7 is left out:
pocketfft's real transforms run slower on 7-smooth lengths than on the
next 5-smooth one (an rfft/irfft pair takes about 147 us at 5103 = 3^6 * 7
and 107 us at 5120 on a 2-core Xeon with numpy 2.4), and complex
transforms gain nothing from it.

Every transform in the package, `dft` and `idft` included, is a `forward`
or `inverse` call, which looks up `np.fft.<name>` as it runs.  With `real`
set, when the operand and the exact result are both real, they take the
half-length rfft and irfft (Sorensen et al., IEEE TASSP 35 (1987)).  A
stored spectrum, `ev` or `cev`, is always the full-length DFT; for real
entries it is Hermitian, its upper half the exact conjugate mirror of the
lower, and the half-length path reads rows 0 .. N//2 only.  `spectrum_of`,
`entries_of` and `spectral_apply` apply this rule along axis 0.
"""

from __future__ import annotations

import numpy as np

from ._util import as_operand

__all__ = ["dft", "idft", "next_pow2", "fast_len", "fourier_matrix", "forward",
           "inverse", "spectrum_of", "entries_of", "spectral_apply"]


def dft(v) -> np.ndarray:
    """Forward DFT of a 1-d vector under the package convention."""
    return forward(as_operand(v), None, False)


def idft(v) -> np.ndarray:
    """Inverse DFT (with 1/N normalization) of a 1-d vector."""
    return inverse(as_operand(v), None, False)


def forward(x, n, real, axis=-1):
    """Unnormalized DFT of length `n` along `axis`: the half spectrum by rfft
    when `real`, else the full one by fft."""
    return np.fft.rfft(x, n, axis) if real else np.fft.fft(x, n, axis)


def inverse(X, n, real, axis=-1):
    """Inverse DFT of length `n` along `axis`: irfft of the half spectrum `X`
    when `real`, else ifft of the full one."""
    return np.fft.irfft(X, n, axis) if real else np.fft.ifft(X, n, axis)


def _half(spec, real):
    return spec[: spec.shape[0] // 2 + 1] if real else spec


@np.errstate(over="ignore", invalid="ignore")
def spectrum_of(x):
    """Full-length DFT of `x` along axis 0; real `x` takes one rfft.  An
    overflow leaves inf or nan entries without a warning: the values that
    store a spectrum check it finite."""
    n = x.shape[0]
    real = not np.iscomplexobj(x)
    spec = forward(x, n, real, 0)
    if not real:
        return spec
    h = spec.shape[0]
    full = np.empty((n,) + spec.shape[1:], dtype=spec.dtype)
    full[:h] = spec
    full[h:] = np.conj(spec[n - h:0:-1])
    return full


@np.errstate(over="ignore", invalid="ignore")
def entries_of(spec, real):
    """Inverse DFT of the full spectrum `spec`, real-valued when `real`.
    Like `spectrum_of`, it leaves an overflow to the finite check of the
    value that stores the entries, without a warning."""
    return inverse(_half(spec, real), spec.shape[0], real, 0)


def spectral_apply(spec, arr, rows, real, divide=False):
    """Multiply (or, with `divide`, solve) along axis 0 of `arr` by the
    circulant whose eigenvalues are `spec`, keeping the first `rows` rows.

    `arr` is zero-padded to N = len(spec), so an embedded Toeplitz product
    and a plain circulant product are the same two transforms.  `real` says
    the matrix is real; the transforms are half-length if `arr` is real too.
    `arr` is float64 or complex128, as the operand rule returns it (see
    _util.py), so the in-place steps below run in double precision.
    """
    N = spec.shape[0]
    real = real and not np.iscomplexobj(arr)
    spec = _half(spec, real)
    spec = spec.reshape(spec.shape + (1,) * (arr.ndim - spec.ndim))
    freq = forward(arr, N, real, 0)
    # keep the operand order: numpy's complex multiply fuses multiply-adds,
    # so spec * freq and freq * spec can differ in the last bit
    if divide:
        np.divide(freq, spec, out=freq)
    else:
        np.multiply(spec, freq, out=freq)
    return inverse(freq, N, real, 0)[:rows]


def next_pow2(k: int) -> int:
    """Smallest power of two >= k (k must be a positive integer)."""
    k = int(k)
    if k < 1:
        raise ValueError(f"next_pow2 requires a positive integer, got {k}")
    return 1 << (k - 1).bit_length()


def fast_len(k: int) -> int:
    """Smallest 2*3*5-smooth integer >= k (k must be a positive integer)."""
    k = int(k)
    if k < 1:
        raise ValueError(f"fast_len requires a positive integer, got {k}")
    best = next_pow2(k)
    # try each odd 5-smooth factor f below best; larger factors cannot win
    p5 = 1
    while p5 < best:
        f = p5
        while f < best:
            # f * 2**e with e the least exponent reaching ceil(k / f)
            cand = f << ((k - 1) // f).bit_length()
            if cand < best:
                best = cand
            f *= 3
        p5 *= 5
    return best


def fourier_matrix(n: int) -> np.ndarray:
    """Unitary Fourier matrix F with F[j, k] = w**(j*k) / sqrt(n), w = exp(2*pi*i/n).

    Its columns are the common eigenvector basis of all order-n circulant
    matrices; it is materialized only for eigenvector reporting and tests.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"fourier_matrix requires a positive order, got {n}")
    j = np.arange(n)
    return np.exp((2j * np.pi / n) * np.outer(j, j)) / np.sqrt(n)
