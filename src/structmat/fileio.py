"""Text serialization for structured matrices, dense matrices and vectors.

Format: a header line

    smt <circulant|toeplitz|dense|vector> <dims...>

followed by one entry per line as `<re> <im>`, printed with 17 significant
decimal digits so finite doubles round-trip bit-exactly.  Bodies are the
first column for circulants (n lines), the diagonal vector in increasing
diagonal order for Toeplitz (m+n-1 lines), row-major entries for dense
(rows*cols lines) and the entries for vectors (n lines).

Each body is one bulk operation.  Writing makes a single `%` format call
over all entries; the imaginary field of a non-complex array is always
`0`, so only real parts are formatted then.  Reading checks the header and
the line count, then parses the whole body with one `np.loadtxt`.  Only
when that parse fails does a per-line parser run, to name the offending
line in the error; it accepts the same inputs and returns the same values,
so the format and the error messages are those of a line-by-line reader.
"""

from __future__ import annotations

import os

import numpy as np

from .circulant import Circulant
from .errors import MatrixFileError
from .toeplitz import Toeplitz

__all__ = ["write_matrix", "read_matrix", "KINDS"]

KINDS = ("circulant", "toeplitz", "dense", "vector")


def _body(values) -> str:
    flat = np.asarray(values).ravel()
    if np.iscomplexobj(flat):
        # interleaved re, im; the widening to complex128 is exact
        fields = flat.astype(np.complex128, copy=False).view(np.float64)
        line = "%.17g %.17g"
    else:
        fields = flat  # the imaginary part is +0.0, whose .17g is "0"
        line = "%.17g 0"
    return "\n".join([line] * flat.shape[0]) % tuple(fields.tolist()) + "\n"


def write_matrix(path, value) -> None:
    """Serialize a Circulant, Toeplitz, 2-d array (dense) or 1-d array
    (vector) to `path`."""
    if isinstance(value, Circulant):
        header = f"smt circulant {value.n}"
        body = _body(value.col)
    elif isinstance(value, Toeplitz):
        m, n = value.shape
        header = f"smt toeplitz {m} {n}"
        body = _body(value.t)
    else:
        arr = np.asarray(value)
        if arr.ndim == 1:
            header = f"smt vector {arr.shape[0]}"
            body = _body(arr)
        elif arr.ndim == 2:
            header = f"smt dense {arr.shape[0]} {arr.shape[1]}"
            body = _body(arr)
        else:
            raise TypeError(f"cannot serialize object of type {type(value).__name__}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n" + body)


def _parse_entry(line: str, lineno: int) -> complex:
    parts = line.split()
    if len(parts) != 2:
        raise MatrixFileError(
            f"line {lineno}: expected two numeric fields, got {line.strip()!r}"
        )
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        raise MatrixFileError(
            f"line {lineno}: could not parse numeric fields {line.strip()!r}"
        ) from None


def _parse_body(lines) -> np.ndarray:
    """Complex entries of the body `lines`, which start on line 2."""
    try:
        pairs = np.loadtxt(lines, dtype=float, comments=None, ndmin=2)
        if pairs.shape == (len(lines), 2):
            return pairs.view(complex)[:, 0]  # not re + 1j*im: inf*1j is nan
    except ValueError:
        pass
    # blank lines, a wrong field count, or tokens only float() reads (1_0):
    # parse line by line to name the offending line, or to accept the tokens
    return np.array([_parse_entry(line, i + 2) for i, line in enumerate(lines)])


def _decode(raw: bytes, path) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the line holding the bad byte; "x" stands in for that byte
        lineno = len((raw[: exc.start].decode("utf-8") + "x").splitlines())
        raise MatrixFileError(
            f"{os.fspath(path)}: line {lineno}: not UTF-8 text ({exc.reason})"
        ) from None


def read_matrix(path):
    """Parse a structured-matrix file; returns a Circulant, Toeplitz or
    ndarray (2-d for dense, 1-d for vector)."""
    with open(path, "rb") as fh:
        lines = _decode(fh.read(), path).splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise MatrixFileError(f"{os.fspath(path)}: empty file")
    tokens = lines[0].split()
    if len(tokens) < 3 or tokens[0] != "smt":
        raise MatrixFileError(
            "line 1: expected header 'smt <kind> <dims...>', got "
            f"{lines[0].strip()!r}"
        )
    kind = tokens[1]
    if kind not in KINDS:
        raise MatrixFileError(
            f"line 1: unknown kind {kind!r}; expected one of {', '.join(KINDS)}"
        )
    try:
        dims = [int(tok) for tok in tokens[2:]]
    except ValueError:
        raise MatrixFileError(f"line 1: non-integer dimensions in {lines[0]!r}") from None
    if any(d < 1 for d in dims):
        raise MatrixFileError(f"line 1: dimensions must be positive, got {dims}")

    if kind in ("circulant", "vector"):
        if len(dims) != 1:
            raise MatrixFileError(f"line 1: {kind} takes one dimension, got {dims}")
        expected = dims[0]
    else:
        if len(dims) != 2:
            raise MatrixFileError(f"line 1: {kind} takes two dimensions, got {dims}")
        m, n = dims
        expected = m + n - 1 if kind == "toeplitz" else m * n

    body = lines[1:]
    if len(body) != expected:
        raise MatrixFileError(
            f"{os.fspath(path)}: {kind} body needs {expected} entry lines, "
            f"found {len(body)}"
        )
    values = _parse_body(body)
    if np.all(values.imag == 0.0):
        values = values.real

    if kind == "circulant":
        return Circulant(values)
    if kind == "toeplitz":
        return Toeplitz.from_diagonals(values, m, n)
    if kind == "dense":
        return values.reshape(m, n)
    return values
