"""Small validation and coercion helpers shared by the matrix types.

`as_operand` states the operand rule once.  Every constructor, product,
division and solve reads its array argument through it, so one fault gets
one error wherever it is made, checked in this order:

    a non-numeric argument (bool, object, string)     TypeError
    a vector argument that is not one-dimensional,
    or that is empty                                  ValueError
    a leading dimension other than the expected one   DimensionMismatchError:
                                                      "<what> has leading
                                                      dimension X, expected Y"
    a scalar where a leading dimension is expected    DimensionMismatchError:
                                                      "<what> is a scalar,
                                                      expected leading
                                                      dimension Y"

and what passes comes back as float64 or complex128, so every transform
runs in double precision.
"""

import numbers

import numpy as np

from .errors import DimensionMismatchError


def as_operand(values, name="operand", rows=None, matrix=False):
    """`values` as a float64/complex128 array under the operand rule (see
    the module docstring).

    A vector is one-dimensional and not empty; with `matrix` set, a matrix
    of stacked columns (any number of dimensions) is accepted too.  With
    `rows` given, the leading dimension must equal it.  An input already of
    the result dtype comes back uncopied, so callers that store, freeze or
    write to the result must copy it themselves.
    """
    arr = np.asarray(values)
    if not np.issubdtype(arr.dtype, np.number):
        raise TypeError(f"{name} must be numeric, got dtype {arr.dtype}")
    if not matrix and arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if not matrix and arr.size == 0:
        raise ValueError(f"empty {name}")
    if rows is not None and (not arr.shape or arr.shape[0] != rows):
        raise DimensionMismatchError(
            f"{name} has leading dimension {arr.shape[0]}, expected {rows}" if arr.shape
            else f"{name} is a scalar, expected leading dimension {rows}")
    if np.iscomplexobj(arr):
        return arr.astype(np.complex128, copy=False)
    return arr.astype(np.float64, copy=False)


def require_finite(arr, name="operand"):
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def is_scalar(x) -> bool:
    """True for Python/numpy scalars (the 'scalar' class of mixed ops)."""
    if isinstance(x, numbers.Number):
        return True
    return isinstance(x, np.ndarray) and x.ndim == 0


def frozen(arr):
    """Return `arr` marked read-only (the caller must own it)."""
    arr.flags.writeable = False
    return arr
