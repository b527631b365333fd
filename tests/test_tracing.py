"""The benchmark's span tracer still fits the package it wraps.

`perfbench/tracing.py` replaces structmat entry points by attribute name and
reads each original from the `__dict__` of the class or module that defines
it.  A traced method moved to a base class, or a renamed entry point, would
break `perfbench/run.py --trace 1`; installing the tracer here turns that
into a test failure.  Nothing under perfbench/ is edited by the test.
"""

from pathlib import Path

import numpy as np
import pytest

from structmat import (Circulant, Toeplitz, cli, fast_len, optimal, preconditioners,
                       smtgallery, solvers, strang)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    watched = [(np.fft, name) for name in tracing.FFT_FUNCTIONS] + [
        (Toeplitz, "__init__"), (Toeplitz, "from_diagonals"), (Toeplitz, "matvec"),
        (Circulant, "__init__"), (Circulant, "solve"),
        (solvers, "pcg_solve"), (solvers, "toep_lstsq"), (cli, "main"),
    ]
    before = [owner.__dict__[attr] for owner, attr in watched]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        during = [owner.__dict__[attr] for owner, attr in watched]
        Toeplitz([2.0, 1.0]) @ np.ones(2)
    finally:
        tracer.uninstall()
    assert all(a is not b for a, b in zip(during, before))
    assert all(owner.__dict__[attr] is b for (owner, attr), b in zip(watched, before))
    names = {span[tracing.NAME] for span in tracer.spans}
    assert {"fft", "toeplitz.build", "toeplitz.matvec"} <= names


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    return tracing


def spans_under(tracing, name, call):
    """Run `call` with the tracer installed; the spans nested anywhere
    under a span called `name`, in call order."""
    tracer = tracing.Tracer()
    try:
        tracer.install()
        call()
    finally:
        tracer.uninstall()
    spans, under = tracer.spans, []
    for span in spans:
        i = span[tracing.PARENT]
        while i >= 0 and spans[i][tracing.NAME] != name:
            i = spans[i][tracing.PARENT]
        if i >= 0:
            under.append(span)
    return under


def fft_lengths_under(tracing, name, call):
    """The lengths of the fft spans nested under a span called `name`
    while `call` runs, in call order."""
    return [span[tracing.INFO][0] for span in spans_under(tracing, name, call)
            if span[tracing.NAME] == "fft"]


def test_tracer_sees_every_transform(tracing):
    # the tracer replaces the functions on numpy.fft, so it sees a transform
    # only if the package looks it up there as it runs, not at import.  The
    # traced entry points are called through their modules, which it patches.
    # A product or a solve is one forward and one inverse transform: real
    # data takes rfft and irfft, complex data fft and ifft.
    rng = np.random.default_rng(5)
    for T in (Toeplitz([2.0, 1.0, 0.5]), Toeplitz([2.0, 1.0j, 0.5])):
        assert fft_lengths_under(tracing, "toeplitz.matvec", lambda: T @ np.ones(3)) == [8, 8]
    C = Circulant([4.0, 1.0, 0.5, 0.25])
    for b in (np.ones(4), 1j * np.ones(4)):
        assert fft_lengths_under(tracing, "circulant.solve", lambda: C.solve(b)) == [4, 4]
    A = smtgallery("tkms", 16)
    assert fft_lengths_under(tracing, "preconditioners.superoptimal",
                             lambda: preconditioners.smtcprec("superoptimal", A))

    n = 2 * solvers.LEVINSON_LEAF + 8  # the order steps merge by FFT
    t = rng.standard_normal(2 * n - 1) + 1j * rng.standard_normal(2 * n - 1)
    t[n - 1] += 4.0 * np.sqrt(n)
    T = Toeplitz.from_diagonals(t, n, n)
    lengths = fft_lengths_under(tracing, "solvers.levinson",
                                lambda: solvers.levinson_solve(T, np.ones(n)))
    assert fast_len(2 * n - 1) in lengths  # Gohberg-Semencul
    assert min(lengths) <= fast_len(n)  # the merges

    banded = smtgallery("ttridiag", 64, d=4.0)  # T - strang(T): two 1-by-1 corners
    M = strang(banded)
    lengths = fft_lengths_under(tracing, "solvers.pcg",
                                lambda: solvers.pcg_solve(banded, np.ones(64), M))
    assert set(lengths) == {64}  # the division by M; the corners are a dense block


def test_tracer_sees_the_preconditioner_solves(tracing):
    # PCG divides by its preconditioner through M.solve on both of its paths,
    # so each division is a circulant.solve span inside the solvers.pcg span
    T = smtgallery("ttridiag", 64, d=4.0)  # Strang's corners are 1-by-1
    for M, corners in ((strang(T), True), (optimal(T), False)):
        assert (solvers._corner_split(T, M) is not None) == corners
        reports = []
        spans = spans_under(tracing, "solvers.pcg", lambda: reports.append(
            solvers.pcg_solve(T, np.ones(64), M, tol=1e-10)[1]))
        solves = sum(span[tracing.NAME] == "circulant.solve" for span in spans)
        # one cycle: the corner path divides for g and for x, the product
        # path once per iteration
        assert solves == (2 if corners else reports[0].iterations) > 0


def test_tracer_sees_the_cli_solve_route(tracing, tmp_path, capsys):
    # the route looks each solver up in solvers.py when it runs, so the
    # tracer's replacement there sees the CLI's solves
    path = str(tmp_path / "t.smt")
    assert cli.main(["gen", "ttridiag", "64", "-o", path]) == 0
    for argv, want in ((["--method", "pcg"], ["solvers.pcg"]),
                       ([], ["solvers.divide", "solvers.levinson"])):
        spans = spans_under(tracing, "cli.main",
                            lambda: cli.main(["solve", path, "--rhs-ones", *argv]))
        names = [span[tracing.NAME] for span in spans]
        assert [name for name in names if name.startswith("solvers.")] == want
    capsys.readouterr()
