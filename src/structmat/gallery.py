"""Named test-matrix generators returning structured values.

Every generator returns a Circulant or Toeplitz object, and its signature
is its whole entry in the gallery: one positional order, or two (m, n) for
a rectangular generator, and its options as keyword-only parameters, each
with a default.  Random generators accept a `seed` and are bit-reproducible
for a fixed seed (numpy PCG64); the `complex` flag requests complex entries
where it applies.  An extreme value of a float option prints no numpy
warning: the matrix comes out finite or its constructor raises one
ValueError.
"""

from __future__ import annotations

import warnings

import numpy as np

from .circulant import Circulant
from .config import config_get
from .toeplitz import Toeplitz

__all__ = ["smtgallery", "GALLERY_NAMES"]


def _dims(size, name, count):
    """The `count` positive dimensions of `size`: an int or a 1-tuple gives
    the order of a square matrix, and a pair (m, n) its two dimensions."""
    dims = tuple(size) if isinstance(size, (tuple, list)) else (size,)
    if len(dims) == 1:
        dims *= count
    if len(dims) != count:
        shape = "square" if count == 1 else "m-by-n"
        raise ValueError(f"{name!r} generates {shape} matrices, got size {size}")
    dims = tuple(int(d) for d in dims)
    if min(dims) < 1:
        raise ValueError(f"dimensions must be positive, got {'x'.join(map(str, dims))}")
    return dims


def _integer(value, name):
    """The integer option `name` as an int; None passes for a default.  An
    integral value (3, 3.0, np.int64(3)) passes, and anything else (2.5,
    inf, nan, a string) raises ValueError."""
    if value is None:
        return None
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"option {name} must be an integer, got {value!r}")


def _banded(n, diagonals):
    """The order-n Toeplitz matrix with diagonals[lag] on each lag = i - j
    that fits, and zeros elsewhere."""
    t = np.zeros(2 * n - 1)
    for lag, value in diagonals.items():
        value = float(value)
        if abs(lag) < n:
            t[n - 1 + lag] = value
    return Toeplitz.from_diagonals(t, n, n)


def _random_values(seed, count, normal, want_complex):
    rng = np.random.default_rng(_integer(seed, "seed"))
    draw = rng.standard_normal if normal else rng.random
    vals = draw(count)
    if want_complex:
        vals = vals + 1j * draw(count)
    return vals


def _gen_crrand(n, *, seed=None, complex=False):
    return Circulant(_random_values(seed, n, False, complex))


def _gen_crrandn(n, *, seed=None, complex=False):
    return Circulant(_random_values(seed, n, True, complex))


def _gen_tprand(m, n, *, seed=None, complex=False):
    t = _random_values(seed, m + n - 1, False, complex)
    return Toeplitz.from_diagonals(t, m, n)


def _gen_tprandn(m, n, *, seed=None, complex=False):
    t = _random_values(seed, m + n - 1, True, complex)
    return Toeplitz.from_diagonals(t, m, n)


def _gen_algdec(n, *, p=2.0):
    p = float(p)
    return Toeplitz((1.0 + np.arange(n)) ** (-p))


def _gen_expdec(n, *, p=0.5):
    p = float(p)
    return Toeplitz(np.exp(-p * np.arange(n)))


def _gen_gaussian(n, *, p=0.1):
    p = float(p)
    return Toeplitz(np.exp(-p * np.arange(n).astype(float) ** 2))


def _gen_tkms(n, *, rho=0.5):
    rho = complex(rho)
    if rho.imag == 0.0:
        rho = rho.real
    col = rho ** np.arange(n)
    return Toeplitz(col)  # Hermitian completion conjugates the row


def _gen_ttridiag(n, *, c=-1.0, d=2.0, e=-1.0):
    # c, d, e: sub-, main and superdiagonal
    return _banded(n, {1: c, 0: d, -1: e})


def _gen_ttoeppen(n, *, a=1.0, b=-10.0, c=0.0, d=10.0, e=1.0):
    # a, b: second and first subdiagonal; c: diagonal; d, e: first and
    # second superdiagonal
    return _banded(n, {2: a, 1: b, 0: c, -1: d, -2: e})


def _gen_ttoeppd(n, *, m=None, seed=None, weights=None, theta=None):
    m = n if m is None else _integer(m, "m")
    rng = np.random.default_rng(_integer(seed, "seed"))
    w = rng.random(m) if weights is None else np.asarray(weights, dtype=float)
    theta = rng.random(m) if theta is None else np.asarray(theta, dtype=float)
    if w.shape != theta.shape:
        raise ValueError("weights and theta must have the same length")
    if np.any(w <= 0):
        raise ValueError("weights must be positive")
    k = np.arange(n)
    col = np.zeros(n)
    for start in range(0, w.shape[0], 512):  # bounded temporary, m may be large
        block_w = w[start: start + 512]
        block_t = theta[start: start + 512]
        col += block_w @ np.cos(2.0 * np.pi * np.outer(block_t, k))
    return Toeplitz(col)


def _gen_tgrcar(n, *, k=3):
    k = _integer(k, "k")
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    col = np.zeros(n)
    col[0] = 1.0
    if n > 1:
        col[1] = -1.0
    row = np.zeros(n)
    row[: min(k + 1, n)] = 1.0
    return Toeplitz(col, row)


def _gen_tparter(n):
    d = np.arange(1 - n, n)
    return Toeplitz.from_diagonals(1.0 / (d + 0.5), n, n)


def _gen_tprolate(n, *, w=0.25):
    w = float(w)
    k = np.arange(1, n)
    col = np.empty(n)
    col[0] = 2.0 * w
    if n > 1:
        col[1:] = np.sin(2.0 * np.pi * w * k) / (np.pi * k)
    return Toeplitz(col)


def _gen_tchow(n, *, alpha=1.0, delta=0.0):
    alpha, delta = float(alpha), float(delta)
    t = np.zeros(2 * n - 1)
    k = np.arange(-1, n)  # diagonals with t_k = alpha**(k+1), zero below k = -1
    t[k + n - 1] = alpha ** (k + 1.0)
    t[n - 1] += delta
    return Toeplitz.from_diagonals(t, n, n)


def _gen_ttriw(n, *, alpha=-1.0, k=None):
    alpha = float(alpha)
    k = n - 1 if k is None else _integer(k, "k")
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    col = np.zeros(n)
    col[0] = 1.0
    row = np.zeros(n)
    row[0] = 1.0
    row[1: min(k, n - 1) + 1] = alpha
    return Toeplitz(col, row)


def _gen_tdramadah(n, *, k=1):
    k = _integer(k, "k")
    col = np.zeros(n)
    row = np.zeros(n)
    if k == 1:
        # anti-Hadamard pattern: |det| = 1 with a large-norm inverse
        col[:] = 1.0
        col[np.arange(n) % 4 == 1] = 0.0
        col[np.arange(n) % 4 == 2] = 0.0
        col[0] = 1.0
        row[: min(4, n)] = [1.0, 1.0, 0.0, 1.0][: min(4, n)]
    elif k == 2:
        # upper triangular and Toeplitz
        col[0] = 1.0
        row[:] = 1.0
        row[2::2] = 0.0
    elif k == 3:
        # lower Hessenberg, maximal determinant among 0/1 Toeplitz
        col[:] = 1.0
        col[1::2] = 0.0
        row[: min(2, n)] = 1.0
    else:
        raise ValueError(f"tdramadah variant k must be 1, 2 or 3, got {k}")
    return Toeplitz(col, row)


# Fixed trigonometric moments: the symbol is a finite positive combination of
# point frequencies, so the matrix has exact rank <= 2 * len(_PHANS_FREQS)
# and is numerically rank deficient for every larger order.
_PHANS_WEIGHTS = np.array([2.0, 1.0, 0.5, 0.25])
_PHANS_FREQS = np.array([0.05, 0.15, 0.25, 0.40])


def _gen_tphans(n):
    if n < 2 * _PHANS_FREQS.shape[0] + 1 and config_get().warnings:
        warnings.warn(
            f"tphans is rank deficient only for orders above "
            f"{2 * _PHANS_FREQS.shape[0]}; a {n}x{n} instance may be full rank",
            stacklevel=3,
        )
    k = np.arange(n)
    col = _PHANS_WEIGHTS @ np.cos(2.0 * np.pi * np.outer(_PHANS_FREQS, k))
    return Toeplitz(col)


# Each `_gen_<name>` function above is the generator `name`.
_GENERATORS = {key.removeprefix("_gen_"): gen for key, gen in globals().items()
               if key.startswith("_gen_")}

GALLERY_NAMES = tuple(sorted(_GENERATORS))

# The options of each generator: its keyword-only parameters, which all have
# defaults, so __kwdefaults__ names every one.
_PARAMS = {name: frozenset(gen.__kwdefaults__ or ()) for name, gen in _GENERATORS.items()}


def smtgallery(name, size, **params):
    """Build the named test matrix.

    Parameters
    ----------
    name : str
        One of GALLERY_NAMES.
    size : int, (n,) or (m, n)
        Matrix order; a pair is accepted by the generators that take two
        dimensions (tprand/tprandn).
    **params
        Generator-specific options (decay rate `p`, `rho`, band values,
        `seed`, `complex`, ...).  Unknown options raise.
    """
    key = str(name).lower()
    if key not in _GENERATORS:
        raise ValueError(
            f"unknown gallery matrix {name!r}; valid names: {', '.join(GALLERY_NAMES)}"
        )
    gen = _GENERATORS[key]
    dims = _dims(size, key, gen.__code__.co_argcount)
    accepted = _PARAMS[key]
    # a bad value of a known option is reported ahead of an unknown option;
    # an extreme one overflows quietly and the finite checks raise for it
    with np.errstate(all="ignore"):
        out = gen(*dims, **{k: v for k, v in params.items() if k in accepted})
    unknown = params.keys() - accepted
    if unknown:
        raise ValueError(
            f"unknown parameter(s) for {key!r}: {', '.join(sorted(unknown))}"
        )
    return out
