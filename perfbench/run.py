"""Run one benchmark workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload mc-weak-p10-pool --seed 1 --seconds 50 --trace 0

--trace 0 is the timed run: set-up, then a closed loop of ops for
--seconds, printing the end-to-end metrics.  --trace 1 is the separate
traced run: each of a fixed number of ops (set by --seconds alone, so
counters repeat exactly for a seed) is run untraced, then traced, then
(for the Monte Carlo workloads) at threads=2, printing the per-layer
metrics.  --ops caps the number of ops; the benchmark's own tests use
--ops 1 as a smoke setting.  Each op's output is checked; the last stdout
line is one JSON object with the keys correct, attempted, failed and
metrics.  The package is imported from ./src, never from an installed copy.
"""

from __future__ import annotations

import os
import sys

# pinned before numpy loads; os.environ reaches this process and its children only
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402

OUT_DIR = ".perfbench_out"

SETUP_REPEATS = 9

# CSVs written per second of --seconds; more ops than files reuse them in order
SELECT_FILES_PER_S = 8

# ops per second of --seconds in a traced run, sized so that the two or three
# runs of each op together take about --seconds on a 2-core machine
TRACE_OPS_PER_S = {"select-corr-p14": 2.0, "mc-weak-p10-pool": 0.4}

END_TO_END = {
    "ops_per_s": "1/s",
    "reps_per_s": "1/s",
    "op_p50_s": "s",
    "ok_frac": "fraction",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

SPAN_METRICS = {
    "subsets.best_per_size": ("calls_per_op", "self_s_per_op", "share"),
    "linalg.fit_subset": ("calls_per_op", "self_s_per_op", "share"),
    "criteria.kappa": ("calls_per_op", "self_s_per_op"),
    "fdist.f_cdf": ("calls_per_op",),
    "criteria.select": ("calls_per_op", "self_s_per_op"),
    "cli.load_csv": ("self_s_per_op",),
    "cli.to_canonical_json": ("self_s_per_op",),
    "simulate.run_monte_carlo": ("self_s_per_op",),
}
UNITS = {"calls_per_op": "count", "self_s_per_op": "s", "share": "fraction"}

_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import cmcselect; print(time.perf_counter() - t)")


def per_layer_units() -> dict[str, str]:
    units = {f"{span}.{kind}": UNITS[kind] for span, kinds in SPAN_METRICS.items() for kind in kinds}
    units["subsets.np_solve_calls_per_op"] = "count"
    units["subsets.np_lstsq_calls_per_op"] = "count"
    units["simulate.pool.speedup"] = "x"
    units["trace.overhead_frac"] = "fraction"
    return units


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_name,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def time_import(src: str) -> float:
    """Seconds to import the package in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, src],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout)


def measure_setup(wl, src: str) -> float:
    """Median fresh-process import time plus median input-generation time."""
    imports, gens = [], []
    for _ in range(SETUP_REPEATS):
        imports.append(time_import(src))
        t = time.perf_counter()
        wl.setup()
        gens.append(time.perf_counter() - t)
    return statistics.median(imports) + statistics.median(gens)


class Loop:
    """Runs and checks ops, counting attempts and failures."""

    def __init__(self, wl, reference) -> None:
        self.wl = wl
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def op(self, i: int, threads, tracer=None) -> float:
        """Run op i and check its output; returns the op's wall seconds."""
        self.attempted += 1
        t = time.perf_counter()
        try:
            with tracer.op() if tracer else nullcontext():
                result = self.wl.op(i, threads)
            dt = time.perf_counter() - t
            errors = self.wl.check(i, result, self.reference)
        except Exception:
            dt = time.perf_counter() - t
            errors = [traceback.format_exc()]
        if errors:
            self.failed += 1
            for e in errors:
                print(f"{self.wl.name} op {i}: {e}", file=sys.stderr)
        return dt

    def timed(self, threads, seconds: float, max_ops: float) -> list[float]:
        """Closed loop: start ops until --seconds have passed; returns op times."""
        times: list[float] = []
        start = time.perf_counter()
        while len(times) < max_ops and (not times or time.perf_counter() - start < seconds):
            times.append(self.op(len(times), threads))
        return times


def tail(times: list[float]) -> tuple[float, float] | None:
    """(percentile, seconds) of the highest percentile with at least 10 ops beyond it.

    None when that percentile would not lie above the median.
    """
    n = len(times)
    if n <= 20:
        return None
    return 100.0 * (n - 10) / n, sorted(times)[n - 11]


def run_timed(loop: Loop, wl, seconds: float, max_ops: float, setup_s: float) -> dict:
    times = loop.timed(wl.threads, seconds, max_ops)
    busy = sum(times)
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    info = f"{len(times)} ops"
    t = tail(times)
    if t:
        info += f", op_tail_s p{t[0]:.1f} {t[1]:.6g} s"
    print(f"info: {info}")
    return {
        "ops_per_s": len(times) / busy,
        "reps_per_s": len(times) * wl.reps_per_op / busy,
        "op_p50_s": statistics.median(times),
        "ok_frac": (loop.attempted - loop.failed) / loop.attempted,
        "peak_rss_mb": max(self_kb, child_kb) / 1024.0,
        "setup_s": setup_s,
    }


def run_traced(loop: Loop, wl, n: int, spans_path: str) -> dict:
    """Ops 0..n-1, each run untraced, traced, and (Monte Carlo) at threads=2.

    The three runs of an op follow each other, so that drift in machine
    speed falls on all three alike.
    """
    import spans

    base_threads = 1 if wl.threads else None  # traced ops stay in-process
    tracer = spans.Tracer()
    base_s = traced_s = pool_s = 0.0
    for i in range(n):
        base_s += loop.op(i, base_threads)
        with spans.patched(tracer):
            traced_s += loop.op(i, base_threads, tracer)
        if wl.threads:
            pool_s += loop.op(i, 2)
    tracer.write(spans_path)
    speedup = base_s / pool_s if wl.threads else 1.0
    s = tracer.summary()
    ops, op_s = s["ops"], s["op_s"]
    metrics = {}
    for span, kinds in SPAN_METRICS.items():
        values = {"calls_per_op": s["calls"][span] / ops,
                  "self_s_per_op": s["self_s"][span] / ops,
                  "share": s["self_s"][span] / op_s}
        for kind in kinds:
            metrics[f"{span}.{kind}"] = values[kind]
    metrics["subsets.np_solve_calls_per_op"] = s["counts"]["subsets.np_solve_calls"] / ops
    metrics["subsets.np_lstsq_calls_per_op"] = s["counts"]["subsets.np_lstsq_calls"] / ops
    metrics["simulate.pool.speedup"] = speedup
    metrics["trace.overhead_frac"] = traced_s / base_s - 1.0
    return metrics


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ops", type=int, default=None, help="cap on the number of ops (smoke setting)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "cmcselect", "__init__.py")):
        print("error: src/cmcselect not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0 or (args.ops is not None and args.ops < 1):
        print("error: --seconds must be positive and --ops at least 1", file=sys.stderr)
        return 2
    max_ops = args.ops if args.ops is not None else math.inf
    os.makedirs(OUT_DIR, exist_ok=True)
    n_files = max(1, math.ceil(SELECT_FILES_PER_S * args.seconds))
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT_DIR, n_files)
    loop = Loop(wl, workloads.load_reference(wl.name, args.seed))
    print("env " + json.dumps(environment(), sort_keys=True))

    if args.trace:
        wl.setup()
        n = int(min(max_ops, max(1, round(TRACE_OPS_PER_S[wl.name] * args.seconds))))
        spans_path = os.path.join(OUT_DIR, f"spans-{wl.name}.jsonl")
        values = run_traced(loop, wl, n, spans_path)
        units = per_layer_units()
        print(f"info: {n} ops, spans in {spans_path}")
    else:
        values = run_timed(loop, wl, args.seconds, max_ops, measure_setup(wl, src))
        units = END_TO_END
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
