"""structmat: compact storage and FFT-based fast arithmetic for circulant
and Toeplitz matrices, with circulant preconditioners, fast Toeplitz
solvers, a test-matrix gallery and a command-line toolkit.
"""

from .circulant import Circulant
from .config import (
    Config,
    EmbeddingPolicy,
    config_get,
    config_reset,
    config_set,
    embedded_size,
)
from .dft import dft, fast_len, fourier_matrix, idft, next_pow2
from .errors import (
    BreakdownError,
    DimensionMismatchError,
    MatrixFileError,
    RankDeficientError,
    SingularMatrixError,
    StructmatError,
    UnderdeterminedError,
    UnsupportedOperationError,
)
from .fileio import read_matrix, write_matrix
from .gallery import GALLERY_NAMES, smtgallery
from .preconditioners import (
    optimal,
    register_preconditioner,
    smtcprec,
    strang,
    superoptimal,
)
from .solvers import (
    SolveFlag,
    SolveReport,
    levinson_solve,
    pcg_solve,
    register_tsolve,
    register_tsolvels,
    toep_divide,
    toep_lstsq,
)
from .toeplitz import Toeplitz

__version__ = "0.1.0"


def is_circulant(x) -> bool:
    """True when `x` is a Circulant value."""
    return isinstance(x, Circulant)


def is_toeplitz(x) -> bool:
    """True when `x` is a Toeplitz value (Circulants do not count; convert
    explicitly with to_toeplitz())."""
    return isinstance(x, Toeplitz)


__all__ = [
    "Circulant",
    "Toeplitz",
    "Config",
    "EmbeddingPolicy",
    "config_get",
    "config_set",
    "config_reset",
    "embedded_size",
    "dft",
    "idft",
    "next_pow2",
    "fast_len",
    "fourier_matrix",
    "strang",
    "optimal",
    "superoptimal",
    "smtcprec",
    "register_preconditioner",
    "SolveFlag",
    "SolveReport",
    "levinson_solve",
    "toep_lstsq",
    "pcg_solve",
    "toep_divide",
    "register_tsolve",
    "register_tsolvels",
    "smtgallery",
    "GALLERY_NAMES",
    "read_matrix",
    "write_matrix",
    "is_circulant",
    "is_toeplitz",
    "StructmatError",
    "DimensionMismatchError",
    "SingularMatrixError",
    "BreakdownError",
    "UnderdeterminedError",
    "RankDeficientError",
    "UnsupportedOperationError",
    "MatrixFileError",
]
