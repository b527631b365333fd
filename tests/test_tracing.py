"""The benchmark's span tracer still fits the package it wraps.

`perfbench/tracing.py` replaces structmat entry points by attribute name and
reads each original from the `__dict__` of the class or module that defines
it.  A traced method moved to a base class, or a renamed entry point, would
break `perfbench/run.py --trace 1`; installing the tracer here turns that
into a test failure.  Nothing under perfbench/ is edited by the test.
"""

from pathlib import Path

import numpy as np

from structmat import Circulant, Toeplitz, cli, solvers

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
