"""mpnlsim benchmark: one workload per run, closed loop, one process.

Run from the repository root:

    python3 perfbench/run.py --workload link_slots --seed 0 --seconds 25 \
        --trace 0

The run pins BLAS/OpenMP to one thread before numpy is imported, sets up
the workload several times (set-up time is the median import time plus
the median set-up), then repeats whole passes of the workload's operations
until ``--seconds`` have passed.  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it alternates an untraced and a
traced run of each pass and reports per-layer metrics for one set-up
plus one average pass, the tracing overhead, and whether both runs gave
bit-identical outputs.

Standard output ends with two JSON lines: a record of the run
(environment, seed, sample counts, output digests, check results) and
the result, ``{"correct", "attempted", "failed", "metrics"}``.
Metric names, units and directions are listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
DEFAULT_SEED = 0
SETUP_REPS = 5
IMPORT_REPS = 5
# times the imports a run pays, in a fresh interpreter
IMPORT_PROBE = """
import sys, time
t = time.perf_counter()
sys.path[:0] = sys.argv[1:]
import workloads
print(time.perf_counter() - t)
"""
TAIL_PERCENTILES = (99, 95, 90, 75)
UNITS = {"setup_s": "s", "throughput_per_s": "1/s", "pass_s": "s",
         "peak_rss_mb": "MB"}


class PassRun:
    """Timings, failure flags and digests of one pass.  Outputs are kept
    for pass 0 only, which ``check_first_pass`` reads, so memory does not
    grow with the number of passes."""

    def __init__(self, wl, p):
        wl.prepare(p)
        self.times, self.outs, self.failed = [], [], []
        for i in range(wl.n_ops):
            t0 = time.perf_counter()
            try:
                out = wl.run_op(p, i)
                err = None
            except Exception:
                out, err = None, traceback.format_exc()
            self.times.append(time.perf_counter() - t0)
            if out is not None:
                err = wl.check_op(p, i, out)
            if err:
                print(f"{wl.name} pass {p} op {i} failed: {err}",
                      file=sys.stderr)
            self.outs.append(out)
            self.failed.append(bool(err))
        err = wl.check_pass(p, self.outs)
        if err:
            self.fail_all(f"{wl.name} pass {p} failed: {err}")
        self.items = sum(wl.items(o) for o, bad in zip(self.outs, self.failed)
                         if not bad)
        self.busy_s = sum(self.times)
        self.digest, self.exact_digest = wl.digests(
            [o for o in self.outs if o is not None])
        if p:
            self.outs = None

    def fail_all(self, why):
        print(why, file=sys.stderr)
        self.failed = [True] * len(self.failed)


def import_times(first):
    """The run's own import time plus fresh-interpreter repeats."""
    times = [first]
    for _ in range(IMPORT_REPS - 1):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC),
                              str(HERE)], capture_output=True, text=True,
                             check=True, timeout=120).stdout
        times.append(float(out))
    return times


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "processes": 1}


def op_latency(times):
    """Median op latency and the highest percentile with at least ten
    samples beyond it, if any."""
    n = len(times)
    tail = next((q for q in TAIL_PERCENTILES if n * (100 - q) >= 1000), None)
    return {"samples": n, "p50_s": statistics.median(times),
            "tail_percentile": tail,
            "tail_s": statistics.quantiles(times, n=100)[tail - 1]
            if tail else None}


def timed_passes(seconds, run_pass):
    """Whole passes until ``seconds`` have passed (at least one)."""
    runs = []
    t0 = time.perf_counter()
    while not runs or time.perf_counter() - t0 < seconds:
        runs.append(run_pass(len(runs)))
    return runs


def check_first_pass(wl, first, golden):
    """Extra checks on pass 0; returns the golden comparison."""
    for i, msg in wl.verify(first.outs):
        print(f"{wl.name} pass 0 op {i} failed: {msg}", file=sys.stderr)
        first.failed[i] = True
    if golden is None:
        return "not checked"
    if first.digest != golden:
        first.fail_all(f"{wl.name}: digest {first.digest} != golden {golden}")
        return "mismatch"
    return "match"


def _combine(setup, passes):
    """One set-up plus the mean of the pass totals."""
    keys = set(setup).union(*passes)
    return {k: setup.get(k, 0.0) + sum(p.get(k, 0.0) for p in passes)
            / len(passes) for k in keys}


def measure(wl, seconds, trace, golden=None, imports=(0.0,)):
    """Run one workload; returns (record, result) as printed."""
    import spans

    import_s = statistics.median(imports)
    setup_reps = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        wl.setup()
        setup_reps.append(time.perf_counter() - t0)

    record = {"workload": wl.name, "item": wl.item, "trace": int(trace)}
    if trace:
        with spans.installed(spans.Tracer()) as tr:
            wl.setup()
        setup_totals = tr.totals()

        def pair(p):
            plain = PassRun(wl, p)
            with spans.installed(spans.Tracer()) as tr:
                traced = PassRun(wl, p)
            if traced.exact_digest != plain.exact_digest:
                traced.fail_all(f"{wl.name} pass {p}: traced outputs differ "
                                "from untraced outputs")
            return plain, traced, tr.totals()

        plain, traced, pass_totals = zip(*timed_passes(seconds, pair))
        runs = plain + traced
        overhead = [t.busy_s - u.busy_s for t, u in zip(traced, plain)]
        metrics = spans.layer_metrics(
            _combine(setup_totals, pass_totals),
            overhead_s=statistics.fmean(overhead),
            overhead_ratio=sum(overhead) / sum(u.busy_s for u in plain))
        units = {k: spans.unit(k) for k in metrics}
        record["traced_identical"] = all(
            t.exact_digest == u.exact_digest for t, u in zip(traced, plain))
        first = plain[0]
    else:
        runs = timed_passes(seconds, lambda p: PassRun(wl, p))
        metrics = {
            "setup_s": import_s + statistics.median(setup_reps),
            "throughput_per_s": sum(r.items for r in runs)
            / sum(r.busy_s for r in runs),
            "pass_s": statistics.median(r.busy_s for r in runs),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = UNITS
        record["op_latency"] = op_latency([t for r in runs for t in r.times])
        first = runs[0]

    record["golden"] = check_first_pass(wl, first, golden)
    attempted = sum(len(r.failed) for r in runs)
    failed = sum(sum(r.failed) for r in runs)
    record.update({
        "passes": len(runs), "ops": attempted,
        "failed_ratio": failed / attempted,
        "setup": {"import_s": list(imports), "reps_s": setup_reps},
        "digest": first.digest, "exact_digest": first.exact_digest,
    })
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    return record, result


def main(argv=None) -> int:
    # before numpy is imported: one BLAS/OpenMP thread, at most nproc
    for v in THREAD_VARS:
        os.environ[v] = "1"
    if not (SRC / "mpnlsim" / "__init__.py").is_file():
        print(f"error: mpnlsim sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import workloads
    first_import_s = time.perf_counter() - t0

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(HERE / "golden.json") as f:
        golden = json.load(f)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    expect = golden["digests"].get(wl.name) \
        if args.seed == golden["seed"] else None
    imports = (first_import_s,) if args.trace else \
        import_times(first_import_s)
    record, result = measure(wl, args.seconds, args.trace, expect, imports)
    record.update(seed=args.seed, environment=environment())
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
