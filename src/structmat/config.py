"""Process-wide numeric policy: embedding size, eigenvalue precomputation,
and solver toggles.

Constructors read the process default at call time and bake the relevant
settings into the value they produce, so flipping a switch never changes
already-built matrices.  Concurrent code should prefer passing an explicit
:class:`Config` to constructors over mutating the process default.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, fields, replace

from .dft import next_pow2
from .errors import StructmatError

__all__ = [
    "EmbeddingPolicy",
    "Config",
    "config_get",
    "config_set",
    "config_reset",
    "embedded_size",
]


class EmbeddingPolicy(enum.Enum):
    """Size rule for the circulant embedding of an m-by-n Toeplitz matrix."""

    TIGHT = "tight"      # N = m + n - 1
    POW2 = "pow2"        # N = next power of two >= m + n - 1


@dataclass(frozen=True)
class Config:
    embedding: EmbeddingPolicy = EmbeddingPolicy.POW2
    toeprem: bool = True      # precompute embedding eigenvalues at allocation
    intsolve: bool = True     # internal solver for square Toeplitz division
    intsolvels: bool = True   # internal solver for overdetermined division
    warnings: bool = True     # emit non-fatal diagnostics


_lock = threading.Lock()
_default = Config()

_KEYS = tuple(f.name for f in fields(Config))
_ONOFF = {"on": True, "off": False, "true": True, "false": False,
          "1": True, "0": False}


def _parse_value(key: str, value):
    if key not in _KEYS:
        raise StructmatError(
            f"unknown configuration key {key!r}; valid keys: {', '.join(_KEYS)}"
        )
    if key == "embedding":
        if isinstance(value, EmbeddingPolicy):
            return value
        try:
            return EmbeddingPolicy(str(value).strip().lower())
        except ValueError:
            raise StructmatError(
                f"invalid embedding {value!r}; expected 'tight' or 'pow2'"
            ) from None
    # every other key is an on/off switch
    if isinstance(value, bool):
        return value
    try:
        return _ONOFF[str(value).strip().lower()]
    except KeyError:
        raise StructmatError(
            f"invalid value {value!r} for {key}; expected 'on' or 'off'"
        ) from None


def config_get() -> Config:
    """Snapshot of the current process-default configuration."""
    with _lock:
        return _default


def config_set(key: str, value) -> Config:
    """Update one setting of the process default; returns the new snapshot."""
    global _default
    parsed = _parse_value(key, value)
    with _lock:
        _default = replace(_default, **{key: parsed})
        return _default


def config_reset() -> Config:
    """Restore the factory defaults (everything on, pow2 embedding)."""
    global _default
    with _lock:
        _default = Config()
        return _default


def embedded_size(m: int, n: int, policy: EmbeddingPolicy) -> int:
    """Circulant-embedding order for an m-by-n Toeplitz under `policy`."""
    tight = m + n - 1
    if policy is EmbeddingPolicy.TIGHT:
        return tight
    return next_pow2(tight)
