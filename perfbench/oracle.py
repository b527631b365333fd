"""Independent correctness oracle for the benchmark.

Every product and residual here is a direct convolution of the Toeplitz
diagonal vector with the operand (``np.convolve``), never structmat's FFT
path, and solution files are read back with a plain numpy parse rather than
``structmat.read_matrix``.  The diagonal vector ``t`` follows structmat's
layout: ``t[k]`` holds diagonal ``k - (n - 1)``, so entry (i, j) of the
m-by-n matrix is ``t[i - j + n - 1]``.
"""

from __future__ import annotations

import math

import numpy as np

# Largest digit count reported for an exact (zero-residual) solve.
MAX_DIGITS = 17.0


def toeplitz_apply(t, m: int, n: int, x) -> np.ndarray:
    """T @ x for the m-by-n Toeplitz matrix with diagonal vector t."""
    return np.convolve(t, x)[n - 1: n - 1 + m]


def relative_residual(t, m: int, n: int, x, b) -> float:
    """||b - T x|| / ||b||, computed by direct convolution."""
    return float(np.linalg.norm(b - toeplitz_apply(t, m, n, x)) / np.linalg.norm(b))


def digits(relres: float) -> float:
    """Correct digits of a solve, -log10 of its relative residual."""
    if relres <= 0.0:
        return MAX_DIGITS
    return min(MAX_DIGITS, -math.log10(relres))


def read_smt(path, kind: str, dims) -> np.ndarray:
    """Entries of a structmat vector, circulant or toeplitz file, after
    checking its header.

    Raises ValueError when the header or the body does not match the
    expected kind and dimensions.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        body = np.loadtxt(fh, ndmin=2)
    expected = ["smt", kind, *(str(d) for d in dims)]
    if header != expected:
        raise ValueError(f"{path}: header {header} is not {expected}")
    count = dims[0] + dims[1] - 1 if kind == "toeplitz" else dims[0]
    if body.shape != (count, 2):
        raise ValueError(f"{path}: body has shape {body.shape}, expected ({count}, 2)")
    if not np.all(np.isfinite(body)):
        raise ValueError(f"{path}: non-finite entries")
    if np.all(body[:, 1] == 0.0):
        return body[:, 0].copy()
    return body[:, 0] + 1j * body[:, 1]
