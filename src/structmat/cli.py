"""Command-line front end: generate, inspect, precondition, solve, benchmark.

Exit codes are a stable contract: 0 success, 2 usage error, 3 numerical
error (singular / breakdown / rank deficiency), 4 I/O or parse error.
"""

from __future__ import annotations

import argparse
import functools
import operator
import statistics
import sys
import time

import numpy as np

from . import __version__
from .circulant import Circulant
from .config import (
    Config,
    EmbeddingPolicy,
    config_get,
    config_reset,
    config_set,
)
from .errors import (
    BreakdownError,
    DimensionMismatchError,
    MatrixFileError,
    RankDeficientError,
    SingularMatrixError,
    StructmatError,
    UnderdeterminedError,
)
from .fileio import _layout, read_matrix, write_matrix
from .gallery import GALLERY_NAMES, smtgallery
from .preconditioners import _registered, smtcprec
from .solvers import _solve, _solver_size, levinson_solve
from .toeplitz import Toeplitz

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

# Error classes and their exit codes; the first row that matches wins, so
# the ValueError subclasses of the first two rows never reach the last.
_EXIT_CODES = (
    ((SingularMatrixError, BreakdownError, RankDeficientError, UnderdeterminedError,
      np.linalg.LinAlgError), EXIT_NUMERICAL),
    ((MatrixFileError, OSError), EXIT_IO),
    # an oversized order fails its first allocation at once
    ((StructmatError, ValueError, TypeError, OverflowError, MemoryError), EXIT_USAGE),
)
_HANDLED = tuple(cls for classes, _ in _EXIT_CODES for cls in classes)

# Configuration switches, each turned off by a --no-<key> flag on every command.
_SWITCHES = {
    "toeprem": "skip eager embedding-eigenvalue precomputation",
    "intsolve": "route square Toeplitz division to the registered solver",
    "intsolvels": "route overdetermined division to the registered solver",
    "warnings": "silence non-fatal diagnostics",
}

# Typed `gen` options: name -> (type, help).  Each is passed to the
# generator when given; a bool option is a plain switch.
_GEN_OPTIONS = {
    "seed": (int, "RNG seed for random generators"),
    "complex": (bool, "complex random entries"),
    "p": (float, "decay rate (algdec/expdec/gaussian)"),
    "rho": (float, "KMS correlation parameter"),
    "w": (float, "prolate bandwidth"),
    "alpha": (float, "tchow/ttriw value parameter"),
    "delta": (float, "tchow diagonal shift"),
    "k": (int, "band count / pattern variant"),
}

# Benchmarked operations: kind -> (fast, dense), called as op(T, x) on a
# Toeplitz and as op(A, x) on its dense matrix.
_BENCH_OPS = {
    "matvec": (operator.matmul, operator.matmul),
    "solve": (levinson_solve, np.linalg.solve),
}
# Dense comparison columns are dropped from benchmarks above this order.
BENCH_DENSE_CUTOFF = 2048
_BENCH_SEED = 20240901


def _parse_size(text):
    for sep in ("x", "X", ","):
        if sep in text:
            parts = text.split(sep)
            if len(parts) != 2:
                raise ValueError(f"invalid size {text!r}")
            return (int(parts[0]), int(parts[1]))
    return int(text)


def _parse_param_value(raw: str):
    text = raw.strip()
    if "," in text:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    for caster in (int, float):
        try:
            return caster(text)
        except ValueError:
            continue
    lowered = text.lower()
    if lowered in ("true", "on"):
        return True
    if lowered in ("false", "off"):
        return False
    return text


def _collect_params(args) -> dict:
    params = {k: v for k, v in vars(args).items() if k in _GEN_OPTIONS and v is not None}
    for item in args.param or []:
        if "=" not in item:
            raise ValueError(f"--param expects KEY=VALUE, got {item!r}")
        key, _, raw = item.partition("=")
        params[key.strip()] = _parse_param_value(raw)
    return params


def _apply_global_config(args) -> None:
    config_reset()
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except OSError as exc:
            raise MatrixFileError(f"cannot read config file: {exc}") from exc
        for lineno, line in enumerate(lines, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if "=" not in text:
                raise StructmatError(
                    f"{args.config}:{lineno}: expected key=value, got {text!r}"
                )
            key, _, value = text.partition("=")
            config_set(key.strip(), value.strip())
    if args.embedding:
        config_set("embedding", args.embedding)
    for key in _SWITCHES:
        if getattr(args, f"no_{key}"):
            config_set(key, False)


def _print_fields(fields) -> None:
    """Print a report given as (field, value) pairs, one `field: value` line each."""
    for name, value in fields:
        print(f"{name}: {value}")


def _describe(obj) -> tuple[str, str]:
    """The kind of `obj` in the file format and its shape, as `MxN` or `N`."""
    return _layout(obj)[0], "x".join(map(str, obj.shape))


# -- commands --------------------------------------------------------------


def run_gen(args) -> int:
    params = _collect_params(args)
    matrix = smtgallery(args.name, _parse_size(args.size), **params)
    write_matrix(args.output, matrix)
    kind, dims = _describe(matrix)
    print(f"gen: wrote {kind} {dims} ({args.name}) to {args.output}")
    return EXIT_OK


def run_info(args) -> int:
    obj = read_matrix(args.path)
    kind, dims = _describe(obj)
    fields = [("type", kind), ("dims", dims)]
    if isinstance(obj, Circulant):
        fields += [("col", f"{obj.n} entries"), ("ev", obj.n)]
    elif isinstance(obj, Toeplitz):
        m, n = obj.shape
        u, l = obj._band()
        fields += [
            ("t", f"{m + n - 1} entries"),
            ("cev", obj.cev.shape[0] if obj.cev is not None else "not computed"),
            ("band", f"lags {-u}..{l}"),
            ("solver length", _solver_size(obj)),
        ]
    _print_fields(fields)
    if args.full:
        dense = obj.full() if isinstance(obj, (Circulant, Toeplitz)) else np.asarray(obj)
        if max(dense.shape, default=0) <= 12:
            print(np.array2string(dense, precision=6, suppress_small=True))
        else:
            print("(matrix too large for full display)")
    return EXIT_OK


def run_precond(args) -> int:
    matrix = read_matrix(args.matrix)
    result = smtcprec(args.kind, matrix)
    write_matrix(args.output, result)
    print(f"precond: wrote circulant {result.n}x{result.n} ({args.kind}) to {args.output}")
    return EXIT_OK


def _preconditioner(name, A) -> Circulant | None:
    """The circulant that `solve --precond NAME` asks for: None for "none",
    built from `A` for a kind `precond` accepts (a registered kind, in any
    case), otherwise read from the file NAME, which must hold a circulant of
    A's order."""
    if name == "none":
        return None
    if _registered(name):
        return smtcprec(name, A)
    M = read_matrix(name)
    if not isinstance(M, Circulant):
        raise MatrixFileError(f"{name}: expected a circulant file")
    if M.n != A.shape[0]:
        raise DimensionMismatchError(
            f"{name}: preconditioner has order {M.n}, the matrix has {A.shape[0]} rows"
        )
    return M


def run_solve(args) -> int:
    config = config_get()
    A = read_matrix(args.matrix)
    if args.rhs is None and not args.rhs_ones:
        raise StructmatError("solve needs an rhs file or --rhs-ones")
    if len(A.shape) != 2:
        raise MatrixFileError(f"{args.matrix}: expected a matrix file")
    if args.rhs_ones:
        b = A @ np.ones(A.shape[1])
        rhs_label = "ones-image"
    else:
        b = read_matrix(args.rhs)
        if not isinstance(b, np.ndarray) or b.ndim != 1:
            raise MatrixFileError(f"{args.rhs}: expected a vector file")
        rhs_label = args.rhs

    start = time.perf_counter()
    M = _preconditioner(args.precond, A) if args.method == "pcg" else None
    x, report = _solve(A, b, args.method, M=M, tol=args.tol, maxit=args.maxit)
    wall = time.perf_counter() - start

    if args.output:
        write_matrix(args.output, np.asarray(x))
    _print_fields([
        ("command", "solve"),
        ("matrix", args.matrix),
        ("rhs", rhs_label),
        ("method", args.method),
        ("precond", args.precond),
        ("embedding", config.embedding.value),
        *((key, "on" if getattr(config, key) else "off")
          for key in ("toeprem", "intsolve", "intsolvels")),
        ("tol", f"{args.tol:g}"),
        ("maxit", args.maxit if args.maxit is not None else "-"),
        ("iterations", report.iterations),
        ("relative_residual", f"{report.relative_residual:.12e}"),
        ("flag", report.flag.value),
        ("wall_seconds", f"{wall:.6f}"),
        ("output", args.output or "-"),
    ])
    return EXIT_OK


# -- benchmarks ------------------------------------------------------------


def _median_time(fn, reps: int):
    """The median time of `reps` calls of `fn` after a warm-up, and the
    result of the last call."""
    # warm up for a fixed minimum time so plan setup, allocator state and
    # CPU frequency ramping do not leak into the samples
    deadline = time.perf_counter() + 0.05
    fn()
    while time.perf_counter() < deadline:
        fn()
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def bench_rows(kind, sizes, reps, policies):
    """Fast-vs-dense benchmark rows (op, n, policy, fast, dense, err) of the
    `_BENCH_OPS` entry `kind`, on the order-n KMS matrix (rho = 0.5) and a
    seeded random vector; err = max|fast - dense| / max|dense|.  Above
    BENCH_DENSE_CUTOFF the dense time and err are None."""
    fast_op, dense_op = _BENCH_OPS[kind]
    rng = np.random.default_rng(_BENCH_SEED)
    rows = []
    for n in sizes:
        x = rng.standard_normal(n)
        t = smtgallery("tkms", n, rho=0.5).t
        for policy in policies:
            T = Toeplitz.from_diagonals(t, n, n, config=Config(embedding=policy, toeprem=True))
            fast, got = _median_time(lambda: fast_op(T, x), reps)
            dense = err = None
            if n <= BENCH_DENSE_CUTOFF:
                A = T.full()
                dense, ref = _median_time(lambda: dense_op(A, x), reps)
                err = float(np.max(np.abs(got - ref)) / max(np.max(np.abs(ref)), 1e-300))
            rows.append((kind, n, policy.value, fast, dense, err))
    return rows


def run_bench(args) -> int:
    sizes = [int(tok) for tok in args.sizes.split(",") if tok.strip()]
    if not sizes or any(n < 1 for n in sizes):
        raise StructmatError(f"invalid --sizes {args.sizes!r}")
    if args.reps < 1:
        raise StructmatError(f"invalid --reps {args.reps}; expected at least 1")
    policies = (
        [EmbeddingPolicy.TIGHT, EmbeddingPolicy.POW2]
        if args.policies == "both"
        else [config_get().embedding]
    )
    rows = bench_rows(args.kind, sizes, args.reps, policies)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write("op,n,policy,fast_seconds,dense_seconds,max_rel_err\n")
        for op, n, policy, fast, dense, err in rows:
            dense_s = f"{dense:.9f}" if dense is not None else ""
            err_s = f"{err:.3e}" if err is not None else ""
            fh.write(f"{op},{n},{policy},{fast:.9f},{dense_s},{err_s}\n")
    print(f"bench: wrote {len(rows)} rows to {args.output}")
    return EXIT_OK


# -- argument parsing --------------------------------------------------------


# Built once per process: parse_args keeps no state between calls, since each
# call fills a fresh namespace from the defaults.
@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--embedding", choices=["tight", "pow2"],
                        help="circulant-embedding size policy")
    for key, text in _SWITCHES.items():
        common.add_argument(f"--no-{key}", action="store_true", help=text)
    common.add_argument("--config", metavar="FILE",
                        help="key=value configuration file, one entry per line")

    parser = argparse.ArgumentParser(
        prog="structmat",
        description="structured-matrix toolkit: circulant/Toeplitz fast arithmetic",
    )
    parser.add_argument("--version", action="version", version=f"structmat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[common], help="generate a gallery matrix")
    p.add_argument("name", help=f"one of: {', '.join(GALLERY_NAMES)}")
    p.add_argument("size", help="order n, or MxN for rectangular generators")
    p.add_argument("-o", "--output", required=True, help="output matrix file")
    for name, (kind, text) in _GEN_OPTIONS.items():
        # a switch left off stays None, so the generator never sees False
        flag = {"action": "store_true", "default": None} if kind is bool else {"type": kind}
        p.add_argument(f"--{name}", help=text, **flag)
    p.add_argument("--param", action="append", metavar="KEY=VALUE",
                   help="extra generator parameter (repeatable)")
    p.set_defaults(func=run_gen)

    p = sub.add_parser("info", parents=[common], help="inspect a matrix file")
    p.add_argument("path")
    p.add_argument("--full", action="store_true",
                   help="also print the dense matrix (orders up to 12)")
    p.set_defaults(func=run_info)

    p = sub.add_parser("precond", parents=[common], help="build a circulant preconditioner")
    p.add_argument("kind", help="strang, optimal, superoptimal, or a registered kind")
    p.add_argument("matrix", help="input matrix file")
    p.add_argument("-o", "--output", required=True, help="output circulant file")
    p.set_defaults(func=run_precond)

    p = sub.add_parser("solve", parents=[common], help="solve a linear system")
    p.add_argument("matrix", help="coefficient matrix file")
    p.add_argument("rhs", nargs="?", help="right-hand-side vector file")
    p.add_argument("--rhs-ones", action="store_true",
                   help="use b = A @ ones (prescribed all-ones solution)")
    p.add_argument("--method", choices=["auto", "levinson", "pcg", "lstsq"],
                   default="auto")
    p.add_argument("--precond", default="none", metavar="KIND|FILE",
                   help="circulant preconditioner for pcg: none, a kind as for "
                   "precond (strang, optimal, superoptimal or a registered kind), "
                   "or a circulant file (give a file named like a kind as ./NAME)")
    p.add_argument("--tol", type=float, default=1e-7)
    p.add_argument("--maxit", type=int, default=None)
    p.add_argument("-o", "--output", help="write the solution vector here")
    p.set_defaults(func=run_solve)

    p = sub.add_parser("bench", parents=[common], help="benchmark fast vs dense paths")
    p.add_argument("kind", choices=list(_BENCH_OPS))
    p.add_argument("--sizes", required=True, help="comma-separated orders")
    p.add_argument("--reps", type=int, default=3, help="repetitions (median reported)")
    p.add_argument("--policies", choices=["active", "both"], default="active")
    p.add_argument("-o", "--output", required=True, help="output CSV")
    p.set_defaults(func=run_bench)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        _apply_global_config(args)
        return args.func(args)
    except _HANDLED as exc:
        code = next(code for classes, code in _EXIT_CODES if isinstance(exc, classes))
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
