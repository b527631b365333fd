"""Small validation and coercion helpers shared by the matrix types."""

import numbers

import numpy as np


def as_vector(values, name="operand"):
    """Coerce to a 1-d float64/complex128 array; reject empty input.

    An input already of that dtype comes back uncopied, so callers that
    store, freeze or write to the result must copy it themselves.
    """
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"empty {name}")
    if not np.issubdtype(arr.dtype, np.number):
        raise TypeError(f"{name} must be numeric, got dtype {arr.dtype}")
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
