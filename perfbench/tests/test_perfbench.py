"""Tests of the benchmark itself: span arithmetic, seeded inputs, smoke runs.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=600)


# --- Span arithmetic -----------------------------------------------------------

def _synthetic_tracer():
    """op [0, 10] -> a [1, 4] -> b (aggregated, 2 calls, 1.0 s)
                  -> c [5, 9] -> d (aggregated, 3 calls, 2.0 s)"""
    tr = tracing.Tracer(aggregated={"b", "d"})
    tr.op = 7
    op = tr.begin("op")
    a = tr.begin("a")
    for start, stop in ((1.5, 2.0), (2.5, 3.0)):
        tr.end(tr.begin("b"), start, stop)
    tr.end(a, 1.0, 4.0)
    c = tr.begin("c")
    for start, stop in ((5.0, 5.5), (6.0, 7.0), (7.5, 8.0)):
        tr.end(tr.begin("d"), start, stop)
    tr.count(c, "rows", 12)
    tr.end(c, 5.0, 9.0)
    tr.end(op, 0.0, 10.0)
    return tr


def test_self_time_subtracts_direct_children_only():
    tr = _synthetic_tracer()
    names = [node[tracing.NAME] for node in tr.nodes]
    selfs = dict(zip(names, tracing.self_times(tr.nodes)))
    assert selfs == pytest.approx({"op": 3.0, "a": 2.0, "b": 1.0, "c": 2.0, "d": 2.0})
    # Aggregated names keep one node per parent, with the call count.
    assert names.count("b") == 1 and names.count("d") == 1
    assert {n[tracing.NAME]: n[tracing.COUNT] for n in tr.nodes}["d"] == 3
    assert {n[tracing.OP] for n in tr.nodes} == {7}


def test_summary_and_per_op_metrics():
    tr = _synthetic_tracer()
    summary = tracing.summarize(tr)
    assert summary["d"]["calls"] == 3
    assert summary["c"]["rows"] == 12
    assert summary["op"]["self_s"] == pytest.approx(3.0)
    summary["sidereal.fit_harmonics"] = {"calls": 4, "self_s": 2.0, "rows": 96}
    metrics = tracing.layer_metrics(summary, n_ops=2)
    assert metrics["sidereal.fit_harmonics.calls"]["value"] == 2
    assert metrics["sidereal.fit_harmonics.rows"]["value"] == 48
    assert metrics["sidereal.fit_harmonics.self_s"]["value"] == pytest.approx(1.0)
    assert metrics["sequence.fringe_grid.self_s"]["value"] == 0


def test_wrapper_counts_errors_and_probes_and_uninstalls():
    from ddspin import experiment
    tr = tracing.Tracer()
    original = experiment.estimate_kappa
    saved = tracing.install(tr, [b for b in tracing.BOUNDARIES
                                 if b[0] == "experiment.estimate_kappa"])
    try:
        cal = experiment.calibrate(workloads.sequence.SequenceConfig(
            workloads.J72, 0.25, 1, 0.15, math.pi, 1))
        experiment.estimate_kappa(50, 100, cal)
        experiment.estimate_kappa(50, 100, cal)
        with pytest.raises(experiment.FringeWrapError):
            experiment.estimate_kappa(0, 100, cal)
    finally:
        tracing.uninstall(saved)
    assert experiment.estimate_kappa is original
    summary = tracing.summarize(tr)["experiment.estimate_kappa"]
    assert summary["calls"] == 3
    assert summary["raised.FringeWrapError"] == 1
    assert summary["distinct"] == 2
    metrics = tracing.layer_metrics({"experiment.estimate_kappa": summary}, 1)
    assert metrics["experiment.wrapped_fraction"]["value"] == pytest.approx(1 / 3)


def test_nominal_times_scale_each_op_by_its_speed_factor():
    result = run.OpsResult(elapsed=[1.0, 2.0, 4.0], speed=[0.5, 1.0, 0.25],
                           passed=[True, False, True])
    assert run.speed_factor(2 * run.REFERENCE_NOMINAL_S,
                            2 * run.REFERENCE_NOMINAL_S) == 0.5
    assert result.latencies(nominal=True) == [0.5, 1.0]
    assert result.latencies(nominal=False) == [1.0, 4.0]
    assert result.ops_per_s(nominal=True) == pytest.approx(2 / 3.5)
    assert result.ops_per_s() == pytest.approx(2 / 7.0)
    assert run.reference_s() > 0


def test_mix_median_averages_per_kind():
    latencies = [0.3, 0.01, 0.31, 0.02, 0.29, 0.03]
    assert run.mix_median_ms(latencies, [0, 1] * 3) == pytest.approx(1e3 * (0.3 + 0.02) / 2)
    assert run.mix_median_ms([0.1, 0.3, 0.2], [0, 0, 0]) == pytest.approx(200.0)


# --- Seeded inputs ---------------------------------------------------------------

def test_derived_seeds_are_deterministic_and_distinct():
    seeds = [workloads.derived_seed(5, 1, i) for i in range(50)]
    assert seeds == [workloads.derived_seed(5, 1, i) for i in range(50)]
    assert len(set(seeds)) == 50 and min(seeds) >= 1
    assert workloads.derived_seed(6, 1, 0) != seeds[0]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_inputs_repeat_for_a_seed(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    w1, w2 = cls(3, first), cls(3, second)
    if name == "month_run":
        assert (first / "month_run.cfg").read_bytes() == \
            (second / "month_run.cfg").read_bytes()
    elif name == "design_scan":
        assert [w1.request(i) for i in range(12)] == [w2.request(i) for i in range(12)]
    elif name == "null_ensemble":
        fits = [w.op(0) for w in (w1, w2)]
        assert (fits[0].params == fits[1].params).all()
    else:
        assert w1.cfg == w2.cfg
        assert w1.op(0) == w2.op(0)


# --- Smoke runs --------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_passes_its_checks(name):
    proc = _bench("--workload", name, "--seed", "4", "--seconds", "0.01",
                  "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"] and reported["value"] > 0


def test_traced_run_reports_every_layer_metric_and_counts_repeat():
    runs = []
    for _ in range(2):
        proc = _bench("--workload", "null_ensemble", "--seed", "4",
                      "--seconds", "0.01", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    first, second = (r["metrics"] for r in runs)
    assert all(r["correct"] for r in runs)
    assert set(first) == {m["name"] for m in SPEC["per_layer"]}
    assert first["sidereal.fit_harmonics.rows"]["value"] == 48
    assert first["experiment.simulate_point.calls"]["value"] == 48
    counts = [name for name, m in first.items()
              if m["unit"] in ("count/op", "B/op", "rows/op", "ratio", "count")]
    assert len(counts) == 20
    assert all(first[name]["value"] == second[name]["value"] for name in counts)


def test_spec_units_match_the_tracer():
    units = {m[0]: m[1] for m in tracing.LAYER_METRICS}
    for metric in SPEC["per_layer"]:
        assert units.get(metric["name"], metric["unit"]) == metric["unit"]


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "month_run", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
