"""In-memory span tracing of the calls the benchmark makes into ddspin.

The tracer wraps public names at each module boundary, in the namespace
where callers look them up, and records one node per call:
(name, parent, op id, count, start, end, total).  The hottest names
(fringe evaluations and rotations) are aggregated: one node per
(parent, name) carries the call count and the summed time instead of one
node per call.  A node's self time is its total time minus the total time
of its direct children.

Nothing is written while the run is timed; `write_jsonl` dumps the nodes
when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
from collections import defaultdict
from contextlib import contextmanager

from ddspin.sequence import FreeEvolution, default_step

# Field order of one node; kept as a list for speed while tracing.
NAME, PARENT, OP, COUNT, START, END, TOTAL, COUNTERS = range(8)


class Tracer:
    """Records nested call nodes; see the module docstring."""

    def __init__(self, aggregated=frozenset()):
        self.aggregated = frozenset(aggregated)
        self.nodes: list[list] = []
        self.distinct: dict[str, set] = defaultdict(set)
        self.op = None
        self._stack: list[int] = []
        self._agg_index: dict[tuple, int] = {}

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        if name in self.aggregated:
            key = (parent, name)
            node_id = self._agg_index.get(key)
            if node_id is None:
                node_id = len(self.nodes)
                self._agg_index[key] = node_id
                self.nodes.append([name, parent, self.op, 0, None, None, 0.0, None])
        else:
            node_id = len(self.nodes)
            self.nodes.append([name, parent, self.op, 0, None, None, 0.0, None])
        self._stack.append(node_id)
        return node_id

    def end(self, node_id: int, start: float, stop: float) -> None:
        popped = self._stack.pop()
        if popped != node_id:
            raise RuntimeError(f"span {self.nodes[node_id][NAME]} closed out of order")
        node = self.nodes[node_id]
        node[COUNT] += 1
        node[TOTAL] += stop - start
        if node[START] is None:
            node[START] = start
        node[END] = stop

    def count(self, node_id: int, key: str, value) -> None:
        node = self.nodes[node_id]
        if node[COUNTERS] is None:
            node[COUNTERS] = {}
        node[COUNTERS][key] = node[COUNTERS].get(key, 0) + value

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        node = self.begin(name)
        start = time.perf_counter()
        try:
            yield node
        finally:
            self.end(node, start, time.perf_counter())

    def write_jsonl(self, path) -> None:
        with open(path, "w") as out:
            for node_id, node in enumerate(self.nodes):
                out.write(json.dumps({
                    "id": node_id, "name": node[NAME], "parent": node[PARENT],
                    "op": node[OP], "count": node[COUNT], "start": node[START],
                    "end": node[END], "total_s": node[TOTAL],
                    "counters": node[COUNTERS] or {},
                }) + "\n")


def self_times(nodes) -> list[float]:
    """Per-node self time: total time minus the direct children's totals."""
    child_total = [0.0] * len(nodes)
    for node in nodes:
        if node[PARENT] is not None:
            child_total[node[PARENT]] += node[TOTAL]
    return [node[TOTAL] - child_total[i] for i, node in enumerate(nodes)]


def summarize(tracer: Tracer) -> dict[str, dict]:
    """Per name: calls, self_s, summed counters and the distinct-key count."""
    out: dict[str, dict] = {}
    for node, self_s in zip(tracer.nodes, self_times(tracer.nodes)):
        entry = out.setdefault(node[NAME], {"calls": 0, "self_s": 0.0})
        entry["calls"] += node[COUNT]
        entry["self_s"] += self_s
        for key, value in (node[COUNTERS] or {}).items():
            entry[key] = entry.get(key, 0) + value
    for name, keys in tracer.distinct.items():
        out.setdefault(name, {"calls": 0, "self_s": 0.0})["distinct"] = len(keys)
    return out


# --- Wrapping the boundaries ---------------------------------------------------

def traced(tracer: Tracer, name: str, fn, probe=None):
    """Wrap fn so each call becomes a node named `name`.

    probe(args, kwargs) runs before the call and returns the node's
    counters.  A callable counter is a function of the result, evaluated
    only when the call returns; the others are recorded for every call.
    A counter named 'distinct_key' goes to the tracer's distinct-key set.
    Exceptions are counted per type on the node and re-raised.
    """
    def record(node, counters, result, returned):
        for key, value in counters.items():
            if callable(value):
                if not returned:
                    continue
                value = value(result)
            if key == "distinct_key":
                tracer.distinct[name].add(value)
            else:
                tracer.count(node, key, value)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counters = probe(args, kwargs) if probe is not None else None
        node = tracer.begin(name)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            tracer.end(node, start, time.perf_counter())
            tracer.count(node, f"raised.{type(exc).__name__}", 1)
            if counters:
                record(node, counters, None, False)
            raise
        tracer.end(node, start, time.perf_counter())
        if counters:
            record(node, counters, result, True)
        return result
    return wrapper


def install(tracer: Tracer, boundaries) -> list[tuple]:
    """Replace every (module, attribute) of each boundary with a traced
    wrapper; returns what `uninstall` needs to put the originals back.

    boundaries: (name, [(module path, attribute), ...], probe or None).
    An attribute of the form 'Class.method' patches the class.
    """
    saved = []
    for name, sites, probe in boundaries:
        for module_path, attr in sites:
            owner = importlib.import_module(module_path)
            *outer, leaf = attr.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf] if isinstance(owner, type) \
                else getattr(owner, leaf)
            saved.append((owner, leaf, original))
            setattr(owner, leaf, traced(tracer, name, original, probe))
    return saved


def uninstall(saved) -> None:
    for owner, leaf, original in reversed(saved):
        setattr(owner, leaf, original)


def _tell_bytes(args, kwargs):
    out = args[0]
    start = out.tell()
    return {"bytes": lambda result: out.tell() - start}


def _fit_rows(args, kwargs):
    return {"rows": len(args[0])}


def _record_rows(args, kwargs):
    return {"rows": lambda result: len(result[0])}


def _trace_samples(args, kwargs):
    return {"samples": args[1].count}


def _integrator_steps(args, kwargs):
    """Free windows and finite-pulse steps, from the schedule and step the
    integrator is given (its own rule: ceil(duration / step) per pulse)."""
    cfg, schedule = args[0], args[1]
    step = args[3] if len(args) > 3 else kwargs.get("step")
    if step is None:
        step = default_step(cfg)
    free = pulse = 0
    for seg in schedule.segments:
        if isinstance(seg, FreeEvolution):
            free += 1
        elif seg.duration > 0.0:
            pulse += max(1, math.ceil(seg.duration / step))
    return {"free_windows": free, "pulse_steps": pulse}


def _inversion_key(args, kwargs):
    successes, trials, cal = args[0], args[1], args[2]
    fringe = cal.fringe
    return {"distinct_key": (int(successes), int(trials), cal.total_time,
                             cal.chi_lo, cal.chi_hi, fringe.sys.twice_j,
                             fringe.twice_m, fringe.phi)}


# Names wrapped at each boundary, and where callers look them up.
BOUNDARIES = [
    ("cli.main", [("ddspin.cli", "main")], None),
    ("spin_algebra.rotation",
     [("ddspin", "rotation"), ("ddspin.spin_algebra", "rotation"),
      ("ddspin.sequence", "rotation"), ("ddspin.sensitivity", "rotation")], None),
    ("sequence.fringe_probability",
     [("ddspin.sequence", "fringe_probability"),
      ("ddspin.experiment", "fringe_probability")], None),
    ("sequence.fringe_grid", [("ddspin.sequence", "fringe_grid"),
                              ("ddspin.cli", "fringe_grid")], None),
    ("sequence.write_fringe_grid", [("ddspin.sequence", "write_fringe_grid"),
                                    ("ddspin.cli", "write_fringe_grid")],
     _tell_bytes),
    ("sequence.integrate_noisy", [("ddspin.sequence", "integrate_noisy"),
                                  ("ddspin.experiment", "integrate_noisy")],
     _integrator_steps),
    ("noise.delta_trace", [("ddspin.noise", "delta_trace"),
                           ("ddspin.experiment", "delta_trace")], _trace_samples),
    ("sensitivity.FringeFunction",
     [("ddspin.sensitivity", "FringeFunction.__call__")], None),
    ("sensitivity.optimal_working_point",
     [("ddspin.sensitivity", "optimal_working_point"),
      ("ddspin.cli", "optimal_working_point")], None),
    ("experiment.calibrate", [("ddspin.experiment", "calibrate")], None),
    ("experiment.simulate_point", [("ddspin.experiment", "simulate_point")], None),
    ("experiment.estimate_kappa", [("ddspin.experiment", "estimate_kappa")],
     _inversion_key),
    ("experiment.run_experiment", [("ddspin.experiment", "run_experiment"),
                                   ("ddspin.cli", "run_experiment")], None),
    ("experiment.write_record", [("ddspin.experiment", "write_record"),
                                 ("ddspin.cli", "write_record")], _tell_bytes),
    ("sidereal.read_kappa_record", [("ddspin.sidereal", "read_kappa_record"),
                                    ("ddspin.cli", "read_kappa_record")],
     _record_rows),
    ("sidereal.fit_harmonics", [("ddspin.sidereal", "fit_harmonics"),
                                ("ddspin.cli", "fit_harmonics")], _fit_rows),
]

# Called thousands of times per op; aggregated per (parent, name).
AGGREGATED = frozenset({"spin_algebra.rotation", "sensitivity.FringeFunction",
                        "sequence.fringe_probability"})

# Per-layer metrics: (metric name, unit, source name, statistic).
# Statistics are per op unless the unit says otherwise.
LAYER_METRICS = [
    ("spin_algebra.rotation.calls", "count/op", "spin_algebra.rotation", "calls"),
    ("spin_algebra.rotation.self_s", "s/op", "spin_algebra.rotation", "self_s"),
    ("sequence.fringe_probability.calls", "count/op", "sequence.fringe_probability", "calls"),
    ("sequence.fringe_probability.self_s", "s/op", "sequence.fringe_probability", "self_s"),
    ("sequence.fringe_grid.self_s", "s/op", "sequence.fringe_grid", "self_s"),
    ("sequence.write_fringe_grid.self_s", "s/op", "sequence.write_fringe_grid", "self_s"),
    ("sequence.write_fringe_grid.bytes", "B/op", "sequence.write_fringe_grid", "bytes"),
    ("sequence.integrate_noisy.calls", "count/op", "sequence.integrate_noisy", "calls"),
    ("sequence.integrate_noisy.self_s", "s/op", "sequence.integrate_noisy", "self_s"),
    ("sequence.integrate_noisy.pulse_steps", "count/op", "sequence.integrate_noisy", "pulse_steps"),
    ("sequence.integrate_noisy.free_windows", "count/op", "sequence.integrate_noisy", "free_windows"),
    ("noise.delta_trace.calls", "count/op", "noise.delta_trace", "calls"),
    ("noise.delta_trace.self_s", "s/op", "noise.delta_trace", "self_s"),
    ("noise.delta_trace.samples", "count/op", "noise.delta_trace", "samples"),
    ("sensitivity.FringeFunction.calls", "count/op", "sensitivity.FringeFunction", "calls"),
    ("sensitivity.FringeFunction.self_s", "s/op", "sensitivity.FringeFunction", "self_s"),
    ("sensitivity.optimal_working_point.calls", "count/op", "sensitivity.optimal_working_point", "calls"),
    ("sensitivity.optimal_working_point.self_s", "s/op", "sensitivity.optimal_working_point", "self_s"),
    ("experiment.calibrate.calls", "count/op", "experiment.calibrate", "calls"),
    ("experiment.calibrate.self_s", "s/op", "experiment.calibrate", "self_s"),
    ("experiment.simulate_point.calls", "count/op", "experiment.simulate_point", "calls"),
    ("experiment.simulate_point.self_s", "s/op", "experiment.simulate_point", "self_s"),
    ("experiment.estimate_kappa.calls", "count/op", "experiment.estimate_kappa", "calls"),
    ("experiment.estimate_kappa.self_s", "s/op", "experiment.estimate_kappa", "self_s"),
    ("experiment.estimate_kappa.distinct_ratio", "ratio", "experiment.estimate_kappa", "distinct_ratio"),
    ("experiment.wrapped_fraction", "ratio", "experiment.estimate_kappa", "wrapped_fraction"),
    ("experiment.run_experiment.self_s", "s/op", "experiment.run_experiment", "self_s"),
    ("experiment.write_record.self_s", "s/op", "experiment.write_record", "self_s"),
    ("experiment.write_record.bytes", "B/op", "experiment.write_record", "bytes"),
    ("sidereal.read_kappa_record.self_s", "s/op", "sidereal.read_kappa_record", "self_s"),
    ("sidereal.read_kappa_record.rows", "rows/op", "sidereal.read_kappa_record", "rows"),
    ("sidereal.fit_harmonics.calls", "count/op", "sidereal.fit_harmonics", "calls"),
    ("sidereal.fit_harmonics.self_s", "s/op", "sidereal.fit_harmonics", "self_s"),
    ("sidereal.fit_harmonics.rows", "rows/op", "sidereal.fit_harmonics", "rows"),
    ("cli.main.self_s", "s/op", "cli.main", "self_s"),
    ("bench.op.self_s", "s/op", "op", "self_s"),
]


def layer_metrics(summary: dict[str, dict], n_ops: int) -> dict[str, dict]:
    """The LAYER_METRICS values from a summary; 0 where a layer did not run."""
    metrics = {}
    for metric, unit, source, stat in LAYER_METRICS:
        entry = summary.get(source, {})
        calls = entry.get("calls", 0)
        if stat == "distinct_ratio":
            value = entry.get("distinct", 0) / calls if calls else 0.0
        elif stat == "wrapped_fraction":
            value = entry.get("raised.FringeWrapError", 0) / calls if calls else 0.0
        else:
            value = entry.get(stat, 0) / n_ops
        metrics[metric] = {"value": value, "unit": unit}
    return metrics
