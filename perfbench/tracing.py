"""Span tracing for the benchmark's traced run.

``Tracer.install`` wraps structmat's public entry points, and the numpy FFT
functions every spectral path calls, from outside the package: it replaces
the attributes on the defining module or class and on every structmat
module that imported the same object.  ``uninstall`` puts the originals
back, so untraced passes run the program exactly as shipped.

A span is ``[name, start, end, parent, op, info, raised]`` with perf_counter
times, the index of the enclosing span (-1 at top level) and the id of the
benchmark op it belongs to.  Spans stay in memory and are written out when
the run ends.  ``layer_metrics`` turns one pass worth of spans into the
per-layer figures; a layer's self time is its span time minus the time
covered by its child spans.
"""

from __future__ import annotations

import functools
import math
import os
import time
from collections import Counter, defaultdict

import numpy as np

NAME, START, END, PARENT, OP, INFO, RAISED = range(7)

LAYERS = ("fft", "toeplitz", "circulant", "preconditioners", "solvers",
          "gallery", "fileio", "cli")
FFT_FUNCTIONS = ("fft", "ifft", "rfft", "irfft")


def _fft_info(kind):
    """(transform length, number of transforms) of one numpy.fft call."""
    def info(args, kwargs):
        a = np.asarray(args[0])
        n = args[1] if len(args) > 1 else kwargs.get("n")
        axis = args[2] if len(args) > 2 else kwargs.get("axis", -1)
        along = a.shape[axis]
        if n is None:
            n = 2 * (along - 1) if kind == "irfft" else along
        return int(n), a.size // along if along else 0
    return info


def _file_size(path):
    try:
        return os.path.getsize(path)
    except OSError:  # the traced call itself reports the missing file
        return 0


class Tracer:
    """Collects the spans of one traced pass."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn, info=None, post=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            rec = [label, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                   info(args, kwargs) if info else None, False]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[RAISED] = True
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if post:
                rec[INFO] = post(args, out)
            return out
        return traced

    def _replace(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        import structmat
        from structmat import (circulant, cli, fileio, gallery, preconditioners,
                               solvers, toeplitz)

        for kind in FFT_FUNCTIONS:
            fn = getattr(np.fft, kind)
            self._replace(np.fft, kind, self._wrap("fft", fn, info=_fft_info(kind)))

        T, C = toeplitz.Toeplitz, circulant.Circulant
        self._replace(T, "__init__", self._wrap("toeplitz.build", T.__init__))
        self._replace(T, "from_diagonals", classmethod(
            self._wrap("toeplitz.build", T.__dict__["from_diagonals"].__func__)))
        self._replace(T, "matvec", self._wrap(
            "toeplitz.matvec", T.matvec, info=lambda a, k: a[0].cev is not None))
        self._replace(C, "__init__", self._wrap("circulant.build", C.__init__))
        self._replace(C, "solve", self._wrap("circulant.solve", C.solve))

        entry_points = (
            (preconditioners.smtcprec,
             lambda a: f"preconditioners.{str(a[0]).lower()}",
             lambda a, k: a[1].shape[0], None),
            (solvers.pcg_solve, "solvers.pcg", None,
             lambda a, out: out[1].iterations),
            (solvers.levinson_solve, "solvers.levinson",
             lambda a, k: a[0].shape[0], None),
            (solvers.toep_lstsq, "solvers.lstsq", None, None),
            (solvers.toep_divide, "solvers.divide", None, None),
            (gallery.smtgallery, "gallery", None, None),
            (fileio.read_matrix, "fileio.read", lambda a, k: _file_size(a[0]), None),
            (fileio.write_matrix, "fileio.write", None,
             lambda a, out: _file_size(a[0])),
            (cli.main, "cli.main", None, None),
        )
        modules = (structmat, circulant, cli, fileio, gallery, preconditioners,
                   solvers, toeplitz)
        for fn, name, info, post in entry_points:
            traced = self._wrap(name, fn, info, post)
            for module in modules:
                if module.__dict__.get(fn.__name__) is fn:
                    self._replace(module, fn.__name__, traced)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path):
        """Write the spans as tab-separated lines, times in microseconds
        from the first span's start."""
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\top\tname\tstart_us\tend_us\tparent\traised\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i}\t{s[OP]}\t{s[NAME]}\t{(s[START] - origin) * 1e6:.3f}\t"
                         f"{(s[END] - origin) * 1e6:.3f}\t{s[PARENT]}\t{int(s[RAISED])}\n")


def _under(spans, i, prefix):
    """Index of the nearest enclosing span whose name starts with prefix, or -1."""
    i = spans[i][PARENT]
    while i >= 0 and not spans[i][NAME].startswith(prefix):
        i = spans[i][PARENT]
    return i


def layer_metrics(spans):
    """Per-layer counts and times (ms) of one pass worth of spans.

    Also returns diagnostics: per span name, the smallest and largest number
    of direct fft children, and per superoptimal build its order and the
    matvecs it made.
    """
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    fft_children = [0] * len(spans)
    for s, d in zip(spans, dur):
        if s[PARENT] >= 0:
            child[s[PARENT]] += d
            if s[NAME] == "fft":
                fft_children[s[PARENT]] += 1

    calls, ms, self_ms = Counter(), defaultdict(float), defaultdict(float)
    for s, d, c in zip(spans, dur, child):
        calls[s[NAME]] += 1
        ms[s[NAME]] += d * 1e3
        self_ms[s[NAME]] += (d - c) * 1e3

    def info_sum(name):
        return sum(s[INFO] for s in spans if s[NAME] == name)

    def per(num, den):
        return num / den if den else 0.0

    fft_points = fft_nlogn = 0
    for s in spans:
        if s[NAME] == "fft":
            n, batch = s[INFO]
            fft_points += n * batch
            fft_nlogn += batch * n * math.log2(n) if n > 1 else 0.0

    superopt = {i: [s[INFO], 0] for i, s in enumerate(spans)
                if s[NAME] == "preconditioners.superoptimal"}
    lstsq_matvecs = 0
    for i, s in enumerate(spans):
        if s[NAME] == "toeplitz.matvec":
            owner = _under(spans, i, "preconditioners.superoptimal")
            if owner >= 0:
                superopt[owner][1] += 1
            if _under(spans, i, "solvers.lstsq") >= 0:
                lstsq_matvecs += 1

    kinds = [k for k in calls if k.startswith("preconditioners.")]
    cev_hits = sum(1 for s in spans if s[NAME] == "toeplitz.matvec" and s[INFO])
    pcg_iterations = info_sum("solvers.pcg")
    bytes_read = info_sum("fileio.read")
    metrics = {
        "fft.calls": calls["fft"],
        "fft.ms": ms["fft"],
        "fft.points": fft_points,
        "fft.ns_per_nlogn": per(ms["fft"] * 1e6, fft_nlogn),
        "toeplitz.build.calls": calls["toeplitz.build"],
        "toeplitz.build.ms": ms["toeplitz.build"],
        "toeplitz.matvec.calls": calls["toeplitz.matvec"],
        "toeplitz.matvec.ms": ms["toeplitz.matvec"],
        "toeplitz.matvec.us_per_call": per(ms["toeplitz.matvec"] * 1e3, calls["toeplitz.matvec"]),
        "toeplitz.matvec.self_ms": self_ms["toeplitz.matvec"],
        "toeplitz.cev_hit_ratio": per(cev_hits, calls["toeplitz.matvec"]),
        "circulant.build.calls": calls["circulant.build"],
        "circulant.build.ms": ms["circulant.build"],
        "circulant.solve.calls": calls["circulant.solve"],
        "circulant.solve.ms": ms["circulant.solve"],
        "circulant.solve.us_per_call": per(ms["circulant.solve"] * 1e3, calls["circulant.solve"]),
        "circulant.solve.self_ms": self_ms["circulant.solve"],
        "preconditioners.calls": sum(calls[k] for k in kinds),
        "preconditioners.strang.ms": ms["preconditioners.strang"],
        "preconditioners.optimal.ms": ms["preconditioners.optimal"],
        "preconditioners.superoptimal.ms": ms["preconditioners.superoptimal"],
        "preconditioners.self_ms": sum(self_ms[k] for k in kinds),
        "preconditioners.superoptimal.matvecs_per_build": per(
            sum(mv for _, mv in superopt.values()), len(superopt)),
        "solvers.pcg.calls": calls["solvers.pcg"],
        "solvers.pcg.iterations": pcg_iterations,
        "solvers.pcg.self_ms": self_ms["solvers.pcg"],
        "solvers.pcg.us_per_iteration": per(ms["solvers.pcg"] * 1e3, pcg_iterations),
        "solvers.levinson.calls": calls["solvers.levinson"],
        "solvers.levinson.ms": ms["solvers.levinson"],
        "solvers.levinson.us_per_order_step": per(ms["solvers.levinson"] * 1e3,
                                                  info_sum("solvers.levinson")),
        "solvers.lstsq.calls": calls["solvers.lstsq"],
        "solvers.lstsq.ms": ms["solvers.lstsq"],
        "solvers.lstsq.matvecs": lstsq_matvecs,
        "gallery.calls": calls["gallery"],
        "gallery.ms": ms["gallery"],
        "fileio.read.ms": ms["fileio.read"],
        "fileio.write.ms": ms["fileio.write"],
        "fileio.bytes_read": bytes_read,
        "fileio.bytes_written": info_sum("fileio.write"),
        "fileio.read_mb_s": per(bytes_read / 1e6, ms["fileio.read"] / 1e3),
        "cli.main.calls": calls["cli.main"],
        "cli.main.self_ms": self_ms["cli.main"],
    }
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = sum(
            1 for s in spans if s[RAISED] and (s[NAME] == layer or s[NAME].startswith(layer + ".")))
    metrics["trace.spans"] = len(spans)

    fft_per_name = {}
    for s, k in zip(spans, fft_children):
        lo, hi = fft_per_name.get(s[NAME], (k, k))
        fft_per_name[s[NAME]] = (min(lo, k), max(hi, k))
    return metrics, {"fft_children": fft_per_name, "superoptimal": list(superopt.values())}
