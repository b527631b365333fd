"""Shared oracles and helpers.

Dense oracles deliberately use direct O(N^2) / O(n^3) formulas (explicit
index loops, numpy LU/QR/eig) so they stay independent of the fast paths
they are checking.
"""

import numpy as np
import pytest

from structmat import config_reset


@pytest.fixture(autouse=True)
def _fresh_config():
    config_reset()
    yield
    config_reset()


def dft_direct(v):
    """O(N^2) summation oracle for the forward transform."""
    v = np.asarray(v, dtype=complex)
    n = v.shape[0]
    out = np.zeros(n, dtype=complex)
    for k in range(n):
        for j in range(n):
            out[k] += v[j] * np.exp(-2j * np.pi * j * k / n)
    return out


def same_bits(a, b):
    """Equal dtype, shape and bytes: NaN matches NaN, -0.0 differs from 0.0."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def dense_circulant(col):
    """Dense circulant built column by column from cyclic shifts."""
    col = np.asarray(col)
    return np.stack([np.roll(col, j) for j in range(col.shape[0])], axis=1)


def dense_toeplitz(t, m, n):
    """Dense Toeplitz built entry by entry from the diagonal vector."""
    t = np.asarray(t)
    A = np.empty((m, n), dtype=t.dtype)
    for i in range(m):
        for j in range(n):
            A[i, j] = t[i - j + n - 1]
    return A


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def rel_err(got, want):
    got = np.asarray(got)
    want = np.asarray(want)
    denom = np.linalg.norm(want.ravel())
    if denom == 0.0:
        return float(np.linalg.norm(got.ravel()))
    return float(np.linalg.norm((got - want).ravel()) / denom)
