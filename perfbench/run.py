"""External benchmark for structmat.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pcg_strang --seed 1 --seconds 25 --trace 0

It imports structmat from ``src/`` of that checkout and drives it only
through its public API and ``structmat.cli.main``, from one process with
one closed-loop caller.  Workloads and their input ranges are described in
``perfbench/design.json``; metric names, units and bounds in
``BENCHMARK.json``.

``--trace 0`` times a closed loop of ops for ``--seconds`` and reports the
end-to-end metrics.  ``--trace 1`` instead repeats a fixed pass of ops,
alternating untraced passes with passes traced by ``tracing.Tracer``, and
reports the per-layer metrics of the traced passes (medians over passes;
counts are per pass and exact).  Every op is checked against the oracle in
``oracle.py``; a failed op is counted, never dropped or retried.

The output is a header, one line per metric, and as its last line a JSON
object with the keys correct, attempted, failed and metrics.
"""

import os

# One BLAS/OpenMP thread, set before numpy is imported: the loop has a
# single caller and extra pools would only add scheduling noise.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import fnmatch  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"  # scratch files and span dumps, inside the checkout

TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
MIN_BEYOND = 10         # samples that must lie beyond the reported tail
SETUP_PROBES = 7        # fresh processes timed for setup_s
PROBE_TIMEOUT_S = 30
PERTURB = 1e-3          # relative scaling that must trip every accuracy gate
SHOWN_FAILURES = 5      # failed ops whose reason is printed in full


def load_json(name):
    with open(name, "r", encoding="utf-8") as fh:
        return json.load(fh)


def import_structmat():
    """Import structmat from this checkout's src/, and only from there."""
    if not (SRC / "structmat" / "__init__.py").is_file():
        sys.exit(f"perfbench: no structmat sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import structmat

    if Path(structmat.__file__).resolve().parent != SRC / "structmat":
        sys.exit(f"perfbench: structmat was imported from {structmat.__file__}")
    return structmat


def parse_args(argv, design, bench):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(design["workloads"]))
    parser.add_argument("--seed", type=int, default=design["seeds"]["default"])
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help="internal: set up, print 'ready <monotonic ns>' and exit")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


# -- one op ------------------------------------------------------------------


def attempt(wl, j, tracer=None):
    """Build, time and check op j; a failure is recorded, never raised."""
    inp = wl.make(j)
    if tracer is not None:
        tracer.op = j
    x, relres = None, math.nan
    start = time.perf_counter()
    try:
        out = wl.op(inp)
    except Exception:  # the loop must go on; the failure is counted and shown
        seconds = time.perf_counter() - start
        reason = "raised " + traceback.format_exc(limit=-3).strip()
    else:
        seconds = time.perf_counter() - start
        try:
            x, reason = wl.solution(inp, out)
        except (OSError, ValueError) as exc:
            reason = f"unreadable output: {exc}"
        if x is not None:
            relres = wl.residual(inp, x)
            if reason is None and not relres <= wl.gate:
                reason = f"oracle relative residual {relres:.3e} above gate {wl.gate:.1e}"
    return SimpleNamespace(j=j, seconds=seconds, ok=reason is None, relres=relres,
                           reason=reason, inp=inp, x=x)


class Tally:
    """Outcomes of the ops of a run, without their inputs and outputs."""

    def __init__(self):
        self.seconds, self.relres, self.failed = [], [], 0

    def add(self, outcome):
        self.seconds.append(outcome.seconds)
        self.relres.append(outcome.relres)
        if not outcome.ok:
            self.failed += 1
            if self.failed <= SHOWN_FAILURES:
                print(f"perfbench: op {outcome.j} failed: {outcome.reason}", file=sys.stderr)
        return outcome


def prepare(wl):
    """Warm-up ops plus the gate self-check: a solution scaled by 1 + PERTURB
    must miss the gate.  Returns (ok, message)."""
    for j in range(wl.warm_ops):
        warm = attempt(wl, j)
        if not warm.ok:
            return False, f"warm-up op {j} failed: {warm.reason}"
    relres = wl.residual(warm.inp, warm.x * (1.0 + PERTURB))
    if relres <= wl.gate:
        return False, f"self-check: perturbed solution passed the gate ({relres:.3e})"
    return True, f"self-check: perturbed solution rejected ({relres:.1e} > {wl.gate:.1e})"


# -- set-up time ---------------------------------------------------------------


def measure_setup(args):
    """Median over fresh processes of process start to ready-for-first-op.

    Both ends are read from the system-wide monotonic clock."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--probe-setup"]
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic_ns()
        with subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, text=True) as proc:
            try:
                out, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise RuntimeError("set-up probe timed out") from None
        fields = out.split()
        if proc.returncode != 0 or len(fields) != 2 or fields[0] != "ready":
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {out!r}")
        samples.append((int(fields[1]) - start) / 1e9)
    return statistics.median(samples), samples


# -- runs ------------------------------------------------------------------------


def tail_percentile(count):
    """Highest ladder percentile with at least MIN_BEYOND samples above it."""
    best = TAIL_LADDER[0]
    for q in TAIL_LADDER:
        if round(count * (100 - q) / 100, 9) >= MIN_BEYOND:
            best = q
    return best


def run_timed(wl, seconds, tally):
    deadline = time.perf_counter() + seconds
    j = 0
    while j == 0 or time.perf_counter() < deadline:
        tally.add(attempt(wl, j))
        j += 1


def end_to_end(tally, setup_s):
    lat = np.array(tally.seconds)
    q = tail_percentile(lat.size)
    passed = lat.size - tally.failed
    finite = [r for r in tally.relres if math.isfinite(r)]
    print(f"# ops attempted={lat.size} failed={tally.failed} "
          f"fail_ratio={tally.failed / lat.size:.6g}")
    print(f"# latency_tail_ms is p{q:g} over {lat.size} samples "
          f"({int(round(lat.size * (100 - q) / 100, 9))} beyond it)")
    return {
        "setup_s": setup_s,
        "latency_p50_ms": float(np.median(lat)) * 1e3,
        "latency_tail_ms": float(np.percentile(lat, q)) * 1e3,
        "ops_per_s": passed / float(lat.sum()),
        "success_ratio": passed / lat.size,
        "accuracy_digits": min((oracle.digits(r) for r in finite), default=0.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_traced(wl, seconds, tally, spans_path, exact):
    """Alternate untraced and traced passes over ops 0..pass_ops-1."""
    busy = {False: [], True: []}
    passes = []
    tracer = None
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        for traced in (False, True):
            tracer = tracing.Tracer() if traced else None
            if traced:
                tracer.install()
            try:
                outcomes = [tally.add(attempt(wl, j, tracer)) for j in range(wl.pass_ops)]
            finally:
                if traced:
                    tracer.uninstall()
            busy[traced].append(sum(o.seconds for o in outcomes))
            if traced:
                passes.append(tracing.layer_metrics(tracer.spans))
    tracer.write(spans_path)

    metrics = {name: (statistics.median_low if name in exact else statistics.median)(
        p[0][name] for p in passes) for name in passes[0][0]}
    metrics["trace.overhead_ratio"] = (
        statistics.median(busy[True]) / statistics.median(busy[False]) - 1.0)
    unsteady = sorted(name for name in exact
                      if len({p[0][name] for p in passes}) > 1)
    diag = passes[-1][1]
    print(f"# traced passes={len(passes)} untraced passes={len(busy[False])} "
          f"ops per pass={wl.pass_ops}; spans of the last pass in "
          f"{spans_path.relative_to(ROOT)}")
    print(f"# counts identical across traced passes: {'yes' if not unsteady else 'no ' + str(unsteady)}")
    for name in ("toeplitz.matvec", "circulant.solve", "toeplitz.build", "circulant.build"):
        if name in diag["fft_children"]:
            lo, hi = diag["fft_children"][name]
            print(f"# fft child spans per {name} span: min={lo} max={hi}")
    builds = diag["superoptimal"]
    if builds:
        ok = all(mv == 2 * n for n, mv in builds)
        print(f"# superoptimal builds={len(builds)} matvecs == 2n in every build: "
              f"{'yes' if ok else 'no ' + str(builds)}")
    return metrics


def host_line():
    try:
        libc = ctypes.CDLL(None)
        libc.sysconf.argtypes, libc.sysconf.restype = [ctypes.c_int], ctypes.c_long
        # glibc _SC_LEVEL1_DCACHE_SIZE, _SC_LEVEL2_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE
        caches = " ".join(f"{lvl}={libc.sysconf(code) // 1024}KiB"
                          for lvl, code in (("L1d", 188), ("L2", 191), ("L3", 194)))
    except (OSError, AttributeError):
        caches = "unknown"
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return (f"# host: nproc={nproc} python={platform.python_version()} "
            f"numpy={np.__version__} blas_threads={os.environ['OPENBLAS_NUM_THREADS']} "
            f"caches: {caches}")


def main(argv=None):
    design = load_json(HERE / "design.json")
    bench = load_json(ROOT / "BENCHMARK.json")
    args = parse_args(argv, design, bench)
    sm = import_structmat()
    spec = design["workloads"][args.workload]
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](sm, args.seed, workdir, spec)
    try:
        ready, message = prepare(wl)
        if args.probe_setup:
            if ready:
                print(f"ready {time.monotonic_ns()}", flush=True)
            return 0 if ready else 1
        print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace} loop={spec['loop']} callers={spec['callers']}")
        print(host_line())
        print(f"# inputs: {json.dumps(spec['inputs'])}")
        print(f"# {message}")
        tally = Tally()
        if args.trace:
            listed = bench["per_layer"]
            exact = [m["name"] for m in listed
                     if any(fnmatch.fnmatchcase(m["name"], pattern)
                            for pattern in design["exact_counts"])]
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
            values = run_traced(wl, args.seconds, tally, spans_path, exact)
        else:
            listed = bench["end_to_end"]
            setup_s, samples = measure_setup(args)
            print("# setup_s samples: " + " ".join(f"{s:.4f}" for s in samples))
            run_timed(wl, args.seconds, tally)
            values = end_to_end(tally, setup_s)
    finally:
        wl.close()

    if sorted(values) != sorted(m["name"] for m in listed):
        sys.exit("perfbench: computed metrics differ from those listed in BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    attempted = len(tally.seconds)
    print(json.dumps({"correct": ready and tally.failed == 0, "attempted": attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
