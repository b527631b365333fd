"""The benchmark's workloads: closed loop, one caller, seeded inputs.

Each workload turns ``--seed`` into a deterministic stream of ops; its
input ranges come from the workload's entry in ``design.json``.
``make(j)`` builds the inputs of op j from the seed alone (outside the
timed region), ``op(inputs)`` is the timed call into structmat, and
``solution(inputs, output)`` returns the solution vector together with a
failure reason (None when structmat reported success).  ``residual`` then
measures the solution against the independent oracle, and an op passes when
that residual is at most ``gate``.

Input parameters are spread with a golden-ratio (Weyl) sequence whose
offset comes from the seed.  Any prefix of the stream then covers its input
range evenly, so the median and tail of a run depend on the code and not on
which corner of the range a seed happened to favour.
"""

from __future__ import annotations

import contextlib
import io
import math
import shutil
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import oracle

PHI = (math.sqrt(5.0) - 1.0) / 2.0


def weyl(offset: float, j: int) -> float:
    """Point j of the golden-ratio sequence started at `offset`, in [0, 1)."""
    return (offset + j * PHI) % 1.0


def spread(lo: float, hi: float, offset: float, j: int) -> float:
    return lo + (hi - lo) * weyl(offset, j)


class Workload:
    name = ""
    stream = 0      # distinguishes the random streams of different workloads
    warm_ops = 1    # ops run once during set-up, before anything is timed
    gate = 0.0      # largest oracle relative residual an op may leave

    def __init__(self, sm, seed: int, workdir: Path, spec: dict):
        self.sm = sm
        self.seed = seed
        self.workdir = workdir
        self.inputs = spec["inputs"]
        self.pass_ops = spec["traced_pass_ops"]
        # Weyl offsets, one per independently spread input parameter
        self.offsets = np.random.default_rng([seed, self.stream]).random(3)

    def rng(self, j: int) -> np.random.Generator:
        """Generator for the arrays of op j; independent of the op order."""
        return np.random.default_rng([self.seed, self.stream, j])

    def residual(self, inp, x) -> float:
        return oracle.relative_residual(inp.t, inp.m, inp.n, x, inp.b)

    def close(self) -> None:
        pass


class PcgStrang(Workload):
    """Paper criterion 6 as a stream: Gaussian-kernel SPD Toeplitz systems of
    order 5000, Strang preconditioner, PCG to a relative residual of 1e-6."""

    name = "pcg_strang"
    stream = 1

    def __init__(self, sm, seed, workdir, spec):
        super().__init__(sm, seed, workdir, spec)
        self.config = sm.Config(embedding=sm.EmbeddingPolicy.POW2, toeprem=True)
        self.order = self.inputs["order"]
        self.tol = self.inputs["tol"]
        # the oracle and the solver round differently; allow that on the tolerance
        self.gate = self.tol * (1.0 + 1e-6)
        self.k2 = np.arange(self.order, dtype=float) ** 2

    def make(self, j):
        n = self.order
        # Strang stays nonsingular for p above about 0.08 at order 5000
        p = spread(*self.inputs["p"], self.offsets[0], j)
        col = np.exp(-p * self.k2)
        t = np.concatenate([col[:0:-1], col])
        x_true = self.rng(j).standard_normal(n)
        return SimpleNamespace(col=col, t=t, m=n, n=n,
                               b=oracle.toeplitz_apply(t, n, n, x_true))

    def op(self, inp):
        sm = self.sm
        T = sm.Toeplitz(inp.col, config=self.config)
        M = sm.smtcprec("strang", T)
        return sm.pcg_solve(T, inp.b, M=M, tol=self.tol, maxit=self.inputs["maxit"])

    def solution(self, inp, out):
        x, report = out
        if report.flag is not self.sm.SolveFlag.CONVERGED:
            return x, f"pcg flag {report.flag.value} after {report.iterations} iterations"
        return x, None


class DirectComplex(Workload):
    """toep_divide on complex non-Hermitian systems under a tight embedding:
    square diagonally dominant systems (Levinson) alternate with tall 3:1
    consistent systems (CGLS)."""

    name = "direct_complex"
    stream = 2
    warm_ops = 2
    gate = 1e-9

    def __init__(self, sm, seed, workdir, spec):
        super().__init__(sm, seed, workdir, spec)
        self.config = sm.Config(embedding=sm.EmbeddingPolicy.TIGHT, toeprem=True)

    def make(self, j):
        rng, spec = self.rng(j), self.inputs
        if j % 2 == 0:
            n = round(spread(*spec["square_order"], self.offsets[0], j // 2))
            m = n
            d = np.arange(1 - n, n)
            t = _complex_normal(rng, 2 * n - 1) * spec["decay"] ** np.abs(d)
            # strict diagonal dominance keeps every leading minor nonsingular
            off = np.abs(t).sum() - abs(t[n - 1])
            t[n - 1] = (1.0 + off) * np.exp(2j * np.pi * rng.random())
        else:
            n = round(spread(*spec["tall_columns"], self.offsets[1], j // 2))
            m = spec["tall_rows_per_column"] * n
            t = _complex_normal(rng, m + n - 1)
        x_true = _complex_normal(rng, n)
        return SimpleNamespace(t=t, m=m, n=n, b=oracle.toeplitz_apply(t, m, n, x_true))

    def op(self, inp):
        sm = self.sm
        T = sm.Toeplitz.from_diagonals(inp.t, inp.m, inp.n, config=self.config)
        return sm.toep_divide(T, inp.b, config=self.config)

    def solution(self, inp, out):
        return out, None


def _complex_normal(rng, size):
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


# SPD gallery generators used by the CLI pipeline, with their parameters
# passed explicitly and the first column the oracle expects from them.
CLI_GENERATORS = {
    "gaussian": (["--p", "0.1"], lambda k: np.exp(-0.1 * k ** 2)),
    "algdec": (["--p", "2"], lambda k: (1.0 + k) ** -2.0),
    "expdec": (["--p", "0.5"], lambda k: np.exp(-0.5 * k)),
    "tkms": (["--rho", "0.5"], lambda k: 0.5 ** k),
}
CLI_KINDS = ("strang", "optimal", "superoptimal")


class CliPipeline(Workload):
    """gen -> precond -> solve through structmat.cli.main, in process, with
    files in a scratch directory; the preconditioner kind cycles."""

    name = "cli_pipeline"
    stream = 3
    warm_ops = 2

    def __init__(self, sm, seed, workdir, spec):
        super().__init__(sm, seed, workdir, spec)
        import structmat.cli

        self.tol = self.inputs["tol"]
        self.gate = self.tol * (1.0 + 1e-6)
        self.cli = structmat.cli
        workdir.mkdir(parents=True, exist_ok=True)
        self.paths = {key: str(workdir / f"{key}.smt") for key in ("T", "C", "x")}
        self.generators = [sorted(CLI_GENERATORS)[i]
                           for i in np.random.default_rng([seed, self.stream]).permutation(4)]

    def make(self, j):
        kind_index, rnd = j % len(CLI_KINDS), j // len(CLI_KINDS)
        gen = self.generators[rnd % len(self.generators)]
        n = round(spread(*self.inputs["order"], self.offsets[kind_index], rnd))
        col = CLI_GENERATORS[gen][1](np.arange(n, dtype=float))
        t = np.concatenate([col[:0:-1], col])
        return SimpleNamespace(gen=gen, kind=CLI_KINDS[kind_index], t=t, m=n, n=n,
                               b=oracle.toeplitz_apply(t, n, n, np.ones(n)))

    def op(self, inp):
        T, C, x = self.paths["T"], self.paths["C"], self.paths["x"]
        argvs = (
            ["gen", inp.gen, str(inp.n), "-o", T, *CLI_GENERATORS[inp.gen][0]],
            ["precond", inp.kind, T, "-o", C],
            ["solve", T, "--rhs-ones", "--method", "pcg", "--precond", inp.kind,
             "--tol", repr(self.tol), "-o", x],
        )
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            codes = [self.cli.main(argv) for argv in argvs]
        return codes, out.getvalue()

    def solution(self, inp, out):
        codes, text = out
        if any(codes):
            return None, f"exit codes {codes}"
        if "flag: converged" not in text:
            return None, "solve did not report convergence"
        stored = oracle.read_smt(self.paths["T"], "toeplitz", (inp.n, inp.n))
        if not np.allclose(stored, inp.t, rtol=1e-13, atol=0.0):
            return None, f"{inp.gen} {inp.n} file differs from its defining formula"
        oracle.read_smt(self.paths["C"], "circulant", (inp.n,))
        return oracle.read_smt(self.paths["x"], "vector", (inp.n,)), None

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (PcgStrang, DirectComplex, CliPipeline)}
