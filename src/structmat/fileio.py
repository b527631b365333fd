"""Text serialization for structured matrices, dense matrices and vectors.

Format: a header line

    smt <kind> <dims...>

followed by one entry per line as `<re> <im>`, printed with 17 significant
decimal digits so finite doubles round-trip bit-exactly.  `_FORMATS` states
the rule of each kind once; writer, reader and the CLI's report use it:

    kind        dims    body lines   body holds
    circulant   n       n            the first column
    toeplitz    m n     m+n-1        the diagonal vector, in increasing
                                     diagonal order
    dense       m n     m*n          the entries, row-major
    vector      n       n            the entries

Circulant and Toeplitz bodies must be finite (MatrixFileError otherwise);
dense and vector bodies may hold inf/nan.  A finite body whose value the
constructor refuses, such as one whose spectrum overflows, is a
well-formed file: reading it raises the constructor's ValueError, prefixed
with the path.

Each body is one bulk operation.  Writing makes a single `%` format call
over all entries; the imaginary field of a non-complex array is always
`0`, so only real parts are formatted then.  Reading checks the header and
the line count, then parses the whole body with one `np.loadtxt`.  Only
when that parse fails does a per-line parser run, to name the offending
line in the error; it accepts the same inputs and returns the same values,
so the format and the error messages are those of a line-by-line reader.
"""

from __future__ import annotations

import operator
import os

import numpy as np

from .circulant import Circulant
from .errors import MatrixFileError
from .toeplitz import Toeplitz

__all__ = ["write_matrix", "read_matrix", "KINDS"]

# kind -> (number of header dimensions, body length from the dimensions,
# value from the body entries and the dimensions)
_FORMATS = {
    "circulant": (1, lambda n: n, lambda col, n: Circulant(col)),
    "toeplitz": (2, lambda m, n: m + n - 1, Toeplitz.from_diagonals),
    "dense": (2, operator.mul, lambda entries, m, n: entries.reshape(m, n)),
    "vector": (1, lambda n: n, lambda entries, n: entries),
}
KINDS = tuple(_FORMATS)


def _layout(value):
    """(kind, header dimensions, body entries) of a Circulant, Toeplitz,
    2-d array (dense) or 1-d array (vector)."""
    if isinstance(value, Circulant):
        return "circulant", (value.n,), value.col
    if isinstance(value, Toeplitz):
        return "toeplitz", value.shape, value.t
    arr = np.asarray(value)
    if arr.ndim not in (1, 2):
        raise TypeError(f"cannot serialize object of type {type(value).__name__}")
    return ("vector", "dense")[arr.ndim - 1], arr.shape, arr


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
    kind, dims, entries = _layout(value)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"smt {kind} {' '.join(map(str, dims))}\n" + _body(entries))


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
    if kind not in _FORMATS:
        raise MatrixFileError(
            f"line 1: unknown kind {kind!r}; expected one of {', '.join(KINDS)}"
        )
    try:
        dims = [int(tok) for tok in tokens[2:]]
    except ValueError:
        raise MatrixFileError(f"line 1: non-integer dimensions in {lines[0]!r}") from None
    if any(d < 1 for d in dims):
        raise MatrixFileError(f"line 1: dimensions must be positive, got {dims}")

    ndims, length, build = _FORMATS[kind]
    if len(dims) != ndims:
        raise MatrixFileError(
            f"line 1: {kind} takes {('one dimension', 'two dimensions')[ndims - 1]}, "
            f"got {dims}"
        )
    expected = length(*dims)
    body = lines[1:]
    if len(body) != expected:
        raise MatrixFileError(
            f"{os.fspath(path)}: {kind} body needs {expected} entry lines, "
            f"found {len(body)}"
        )
    values = _parse_body(body)
    if np.all(values.imag == 0.0):
        values = values.real
    try:
        return build(values, *dims)
    except ValueError as exc:
        # a non-finite body is a bad file; a finite one whose spectrum
        # overflows is a well-formed file that describes a bad matrix
        error = ValueError if np.all(np.isfinite(values)) else MatrixFileError
        raise error(f"{os.fspath(path)}: {exc}") from None
