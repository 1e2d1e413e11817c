#!/usr/bin/env python3
"""ddspin benchmark: one closed-loop client, one thread, five workloads.

Run from the repository root:

    python3 perfbench/run.py --workload month_run --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each op starts when the previous one ends.  With --trace 0 the run sets
the workload up several times (import in a fresh interpreter, inputs, one
warm-up op of each request kind) and reports the median set-up time, then
runs ops for --seconds of op time and reports the end-to-end metrics.
The gated times are at a nominal machine speed, set by a fixed reference
kernel timed around each op and each set-up; the wall-clock values are
reported beside them.  With --trace 1 it runs the workload's fixed op
list once with every module boundary wrapped and once without, and
reports the per-layer metrics and the tracing overhead.  Every op's
output is checked.  The last stdout line is one JSON object with keys
correct, attempted, failed and metrics; a results file with provenance
goes to .perfbench-out/.  The exit code is 0 only when every check passed.
"""

import os

# Pin the BLAS and OpenMP pools to one thread before numpy can load.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("month_run", "null_ensemble", "noisy_instant",
                  "noisy_finite", "design_scan")
SETUP_REPEATS = 5
# The machine's speed drifts by tens of percent over seconds to minutes
# (the benchmark shares its cores).  Times are also reported at a nominal
# speed: scaled by REFERENCE_NOMINAL_S over the time a fixed reference
# kernel takes around the measured interval.
REFERENCE_PASSES = 5
REFERENCE_ITERATIONS = 60
REFERENCE_NOMINAL_S = 0.8e-3
# The warm-up op draws its inputs from an index no timed op reaches.
WARMUP_OP = 10 ** 9
P90_MIN_BEYOND = 10


@dataclass
class OpsResult:
    """Per attempted op: wall seconds, machine-speed factor, request kind
    and whether its checks passed; check values of the ops that passed."""

    elapsed: list = field(default_factory=list)
    speed: list = field(default_factory=list)
    kinds: list = field(default_factory=list)
    passed: list = field(default_factory=list)
    values: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.elapsed)

    @property
    def busy_s(self) -> float:
        return sum(self.elapsed)

    def times(self, nominal: bool) -> list:
        """Each attempted op's seconds, wall or at nominal machine speed."""
        if not nominal:
            return list(self.elapsed)
        return [t * f for t, f in zip(self.elapsed, self.speed)]

    def latencies(self, nominal: bool) -> list:
        return [t for t, ok in zip(self.times(nominal), self.passed) if ok]

    def ops_per_s(self, nominal: bool = False) -> float:
        total = sum(self.times(nominal))
        return sum(self.passed) / total if total > 0 else 0.0


def reference_s() -> float:
    """Seconds for a fixed kernel shaped like ddspin's hot paths: small
    complex numpy operations inside a Python loop.  The median of several
    short passes, so that one interruption does not skew it."""
    import numpy as np
    m = np.arange(8.0) - 3.5
    a = np.full((8, 8), 0.125 + 0.0j)
    passes = []
    for _ in range(REFERENCE_PASSES):
        start = time.perf_counter()
        acc = 0.0
        for k in range(REFERENCE_ITERATIONS):
            phase = np.exp(1j * (1e-3 * k * m + 3e-3 * m * m))
            acc += abs(((phase[:, None] * a) @ a)[3, 3])
            for j in range(20):
                acc += 0.5 * j
        passes.append(time.perf_counter() - start)
    return statistics.median(passes)


def speed_factor(ref_before: float, ref_after: float) -> float:
    """Nominal over measured reference time around an interval."""
    return REFERENCE_NOMINAL_S / (0.5 * (ref_before + ref_after))


def run_op(workload, i, result: OpsResult, tracer=None) -> None:
    """Run and check op i; time only the op itself."""
    error = None
    start = time.perf_counter()
    try:
        if tracer is None:
            outcome = workload.op(i)
        else:
            tracer.op = i
            with tracer.span("op"):
                outcome = workload.op(i)
    except Exception:  # a failed op is counted and reported, not fatal
        error = traceback.format_exc(limit=3)
    result.elapsed.append(time.perf_counter() - start)
    result.speed.append(1.0)
    result.kinds.append(i % workload.cycle)
    if error is None:
        try:
            value, error = workload.check_op(i, outcome)
        except Exception:  # malformed output fails the op's check
            error = traceback.format_exc(limit=3)
    result.passed.append(error is None)
    if error is None:
        result.values.append(value)
    else:
        result.errors.append((i, error))


def run_timed(workload, seconds: float) -> OpsResult:
    """Ops 0, 1, ... until `seconds` of op time, ending on a whole cycle.
    The reference kernel runs before the first op and after every op, and
    each op's speed factor comes from the two runs around it."""
    result = OpsResult()
    i = 0
    ref = reference_s()
    while result.busy_s < seconds or i % workload.cycle:
        run_op(workload, i, result)
        next_ref = reference_s()
        result.speed[-1] = speed_factor(ref, next_ref)
        ref = next_ref
        i += 1
    return result


def run_fixed(workload, count: int, tracer=None) -> OpsResult:
    result = OpsResult()
    for i in range(count):
        run_op(workload, i, result, tracer)
    return result


def mix_median_ms(latencies, kinds) -> float:
    """Median op latency in ms.  Where the ops cycle through several
    request kinds, the median is taken per kind and averaged over the
    kinds, so the value does not jump between the kinds' latencies."""
    by_kind = {}
    for kind, latency in zip(kinds, latencies):
        by_kind.setdefault(kind, []).append(latency)
    return 1e3 * statistics.fmean(statistics.median(v) for v in by_kind.values())


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def peak_rss_mb() -> float:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / (1024.0 * 1024.0) if sys.platform == "darwin" else rss / 1024.0


def provenance(args, traced: bool) -> dict:
    import numpy
    import ddspin
    sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            sha = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "ddspin": ddspin.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "git_sha": sha,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "traced": traced,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "threads": 1,
    }


IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "start = time.perf_counter(); import ddspin.cli; "
    "print(time.perf_counter() - start)")


def import_ddspin() -> None:
    """Import ddspin from this checkout's src/, never from site-packages."""
    sys.path.insert(0, str(SRC))
    import ddspin
    import ddspin.cli  # noqa: F401  (loads every module the CLI uses)
    if Path(ddspin.__file__).resolve().parent != SRC / "ddspin":
        raise SystemExit(f"imported ddspin from {ddspin.__file__}, "
                         f"not from {SRC}")


def fresh_import_s() -> float:
    """Seconds a fresh interpreter takes to import ddspin and its CLI."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, check=True,
                          timeout=120)
    return float(proc.stdout)


def setup(cls, seed: int, workdir: Path):
    """Build the workload and finish one warm-up op of each request kind
    (one cycle); returns the workload, the warm-up result and the seconds
    taken."""
    start = time.perf_counter()
    workload = cls(seed, workdir)
    warmup = OpsResult()
    for i in range(WARMUP_OP, WARMUP_OP + cls.cycle):
        run_op(workload, i, warmup)
    return workload, warmup, time.perf_counter() - start


def end_to_end(args, cls, workdir: Path):
    setups = []
    warmups = []
    for _ in range(SETUP_REPEATS):
        ref = reference_s()
        import_s = fresh_import_s()
        workload, warmup, seconds = setup(cls, args.seed, workdir)
        setups.append((import_s + seconds, speed_factor(ref, reference_s())))
        warmups.append(warmup)
    timed = run_timed(workload, args.seconds)
    attempted = timed.attempted + sum(w.attempted for w in warmups)
    errors = [e for w in warmups for e in w.errors] + timed.errors
    passed_kinds = [k for k, ok in zip(timed.kinds, timed.passed) if ok]

    def p50_ms(nominal):
        latencies = timed.latencies(nominal)
        return mix_median_ms(latencies, passed_kinds) if latencies else math.inf

    metrics = {
        "setup_s": {"value": statistics.median(t * f for t, f in setups),
                    "unit": "s"},
        "ops_per_s": {"value": timed.ops_per_s(nominal=True), "unit": "1/s"},
        "op_ms_p50": {"value": p50_ms(True), "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }
    latencies = sorted(timed.latencies(nominal=True))
    n = len(latencies)
    beyond = n - math.ceil(0.9 * n)
    extra = {
        "wall_setup_s": {"value": statistics.median(t for t, _ in setups),
                         "unit": "s"},
        "wall_ops_per_s": {"value": timed.ops_per_s(), "unit": "1/s"},
        "wall_op_ms_p50": {"value": p50_ms(False), "unit": "ms"},
        "failed_fraction": {"value": len(errors) / attempted, "unit": "ratio"},
        "points_per_s": {"value": cls.points_per_op * timed.ops_per_s(True),
                         "unit": "1/s"} if cls.points_per_op else None,
        "op_ms_p90": {"value": 1e3 * percentile(latencies, 0.9), "unit": "ms"}
        if beyond >= P90_MIN_BEYOND else None,
        "op_samples": n,
        "op_samples_beyond_p90": beyond,
        "points_per_op": cls.points_per_op,
        "setup_repeats_wall_s": [t for t, _ in setups],
        "setup_repeats_speed": [f for _, f in setups],
        "timed_s": timed.busy_s,
        "op_wall_ms": [1e3 * t for t in timed.elapsed],
        "op_speed": timed.speed,
    }
    return workload, [timed], attempted, errors, metrics, extra


def traced_run(args, cls, workdir: Path):
    import tracing
    workload, warmup, _ = setup(cls, args.seed, workdir)
    tracer = tracing.Tracer(tracing.AGGREGATED)
    saved = tracing.install(tracer, tracing.BOUNDARIES)
    try:
        traced = run_fixed(workload, cls.trace_ops, tracer)
    finally:
        tracing.uninstall(saved)
    plain = run_fixed(workload, cls.trace_ops)
    metrics = tracing.layer_metrics(tracing.summarize(tracer), cls.trace_ops)
    metrics["trace.overhead_ops_per_s"] = {
        "value": traced.ops_per_s() - plain.ops_per_s(), "unit": "1/s"}
    metrics["trace.ops"] = {"value": cls.trace_ops, "unit": "count"}
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"{cls.name}-seed{args.seed}.spans.jsonl"
    tracer.write_jsonl(spans)
    extra = {"traced_ops_per_s": traced.ops_per_s(),
             "untraced_ops_per_s": plain.ops_per_s(),
             "spans_file": str(spans.relative_to(ROOT)),
             "span_nodes": len(tracer.nodes)}
    attempted = warmup.attempted + traced.attempted + plain.attempted
    errors = warmup.errors + traced.errors + plain.errors
    return workload, [traced, plain], attempted, errors, metrics, extra


def run_workload(args) -> int:
    import_ddspin()
    import workloads
    cls = workloads.WORKLOADS[args.workload]
    workdir = OUT_DIR / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            workload, passes, attempted, errors, metrics, extra = \
                traced_run(args, cls, workdir)
        else:
            workload, passes, attempted, errors, metrics, extra = \
                end_to_end(args, cls, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    run_errors = []
    for result in passes:
        if result.values:
            run_errors += workload.check_run(result.values)
        else:
            run_errors.append("no op completed")
    correct = not errors and not run_errors

    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    for name, metric in extra.items():
        if isinstance(metric, dict):
            print(f"{args.workload} {name} = {metric['value']:.6g} "
                  f"{metric['unit']} (not gated)")
        elif isinstance(metric, int):
            print(f"{args.workload} {name} = {metric}")
    for i, message in errors:
        print(f"{args.workload} op {i} FAILED: {message.strip()}", file=sys.stderr)
    for message in run_errors:
        print(f"{args.workload} run check FAILED: {message}", file=sys.stderr)

    summary = {"correct": correct, "attempted": attempted,
               "failed": len(errors), "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    results = OUT_DIR / (f"{args.workload}-seed{args.seed}-"
                         f"trace{int(args.trace)}.json")
    results.write_text(json.dumps({
        "provenance": provenance(args, bool(args.trace)),
        **summary,
        "extra": extra,
        "op_errors": [{"op": i, "error": m} for i, m in errors],
        "run_errors": run_errors,
    }, indent=2) + "\n")
    print(json.dumps(summary))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        if proc.returncode != 0:
            status = 1
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "ddspin" / "__init__.py").is_file():
        print(f"perfbench: no ddspin sources at {SRC}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
