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
"""

from __future__ import annotations

import numpy as np

from ._util import as_vector

__all__ = ["dft", "idft", "next_pow2", "fast_len", "fourier_matrix"]


def dft(v) -> np.ndarray:
    """Forward DFT of a 1-d vector under the package convention."""
    return np.fft.fft(as_vector(v))


def idft(v) -> np.ndarray:
    """Inverse DFT (with 1/N normalization) of a 1-d vector."""
    return np.fft.ifft(as_vector(v))


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
