"""End-to-end simulated measurement runs.

A run repeats the decoupled Ramsey sequence at scheduled wall-clock times,
reads out N spins per trial by binomial projection, inverts the calibrated
fringe branch to estimate the quadratic shift coefficient at each point,
and assembles a record that the harmonic fitter consumes.

Seeding is counter-based: the stream for trial i of point k derives from
(master_seed, k, i) through numpy SeedSequence spawn keys, so runs are
reproducible bit for bit regardless of execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from types import SimpleNamespace
from typing import IO, Callable, Iterable, NamedTuple

import numpy as np

from ddspin.noise import (
    NoiseModel,
    TimeGrid,
    WeightedPhase,
    decay_survival,
    delta_trace,
)
from ddspin.sensitivity import FringeFunction, find_root
from ddspin.sequence import (
    PulseSchedule,
    SequenceConfig,
    dd_sequence_schedule,
    default_step,
    fringe_probability,
    integrate_noisy,
    toggling_probability,
    toggling_weights,
)
from ddspin.sidereal import (
    OMEGA_ANNUAL,
    OMEGA_SIDEREAL_DAY,
    OMEGA_SIDEREAL_HALF_DAY,
    OMEGA_SOLAR_DAY,
    SiderealModel,
    kappa_timeseries,
)
from ddspin.spin_algebra import FieldError, SpinSystem, as_twice, require


class FringeWrapError(ValueError):
    """The measured population left the calibrated monotone fringe branch."""


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce a simulated run.

    The per-point interrogation uses n_trials_per_point sequence repetitions
    of n_spins independent probes; total measurement time per point is
    n_trials * T.  `injected` adds a time-dependent component on top of the
    static sequence kappa.  lifetime scales the fringe contrast toward the
    uniform baseline (math.inf disables decay).  Rules: n_spins and
    n_trials_per_point integers >= 1, master_seed an integer >= 0,
    timestamps non-empty and finite, lifetime > 0, step None or finite > 0.
    """

    sequence: SequenceConfig
    noise: NoiseModel | None
    n_spins: int
    n_trials_per_point: int
    timestamps: tuple[float, ...]
    master_seed: int
    lifetime: float = math.inf
    injected: SiderealModel | None = None
    correlate_noise: bool = False
    step: float | None = None

    def __post_init__(self):
        require("n_spins", self.n_spins, "an integer >= 1")
        require("n_trials_per_point", self.n_trials_per_point, "an integer >= 1")
        require("master_seed", self.master_seed, "an integer >= 0")
        require("lifetime", self.lifetime, "> 0 (inf allowed)")
        if self.step is not None:
            require("step", self.step, "finite and > 0")
        object.__setattr__(self, "timestamps",
                           tuple(float(t) for t in self.timestamps))
        require("timestamps", self.timestamps, "non-empty")
        for t in self.timestamps:
            require("timestamps", t)

    @property
    def tau_per_point(self) -> float:
        """Measurement time per point, dominated by the Ramsey windows."""
        return self.n_trials_per_point * self.sequence.total_time


@dataclass(frozen=True, eq=False)
class FringeCalibration:
    """The monotone fringe branch around the nominal working point.

    chi_nominal = kappa_static * T; (chi_lo, chi_hi) bracket the adjacent
    slope zeros, so F is monotone on the branch and locally invertible.
    [p_min, p_max] is the population range F takes on the branch.
    """

    fringe: FringeFunction
    total_time: float
    chi_nominal: float
    chi_lo: float
    chi_hi: float
    p_min: float
    p_max: float

    @property
    def branch_width(self) -> float:
        return self.chi_hi - self.chi_lo


def calibrate(sequence: SequenceConfig) -> FringeCalibration:
    """Locate the monotone branch containing the nominal working point.

    A 2001-point slope scan over one period centred on the nominal point
    finds the nearest grid interval on each side where the slope leaves
    the branch sign; the branch end is the slope zero inside it.  A side
    without one ends at the scan edge.
    """
    fringe = FringeFunction(sequence.sys, sequence.initial_twice_m, sequence.phi)
    chi_nom = sequence.kappa * sequence.total_time
    if abs(fringe(chi_nom, 1)[1]) < 1e-8:
        raise ValueError(
            "insensitive working point: the fringe is stationary at "
            f"chi = {chi_nom:.6g}; shift kappa or T before calibrating")
    span = fringe.period / 2.0
    grid = np.linspace(chi_nom - span, chi_nom + span, 2001)
    slopes = fringe(grid, 1)[1]
    center = min(int(np.searchsorted(grid, chi_nom)), len(grid) - 1)
    off_branch = slopes * math.copysign(1.0, slopes[center]) <= 0
    left = np.flatnonzero(off_branch[:center])
    right = center + 1 + np.flatnonzero(off_branch[center + 1:])

    def slope_zero(k: int) -> float:
        return float(find_root(lambda chi: fringe(chi, 2)[1:], grid[k], grid[k + 1]))

    chi_lo = slope_zero(left[-1]) if left.size else float(grid[0])
    chi_hi = slope_zero(right[0] - 1) if right.size else float(grid[-1])
    f_lo, f_hi = fringe(chi_lo), fringe(chi_hi)
    return FringeCalibration(
        fringe=fringe,
        total_time=sequence.total_time,
        chi_nominal=chi_nom,
        chi_lo=chi_lo,
        chi_hi=chi_hi,
        p_min=min(f_lo, f_hi),
        p_max=max(f_lo, f_hi),
    )


def _kappa_at(cfg: RunConfig, t: float) -> float:
    kappa = cfg.sequence.kappa
    if cfg.injected is not None:
        kappa += kappa_timeseries(cfg.injected, t)
    return kappa


def _trace_grid(schedule: PulseSchedule, step: float) -> TimeGrid:
    """Detuning-trace grid at the integrator step, covering the schedule."""
    return TimeGrid(0.0, step, int(math.ceil(schedule.total_duration / step)) + 2)


@lru_cache(maxsize=8)
def _toggling_phase(schedule: PulseSchedule, step: float,
                    model: NoiseModel) -> WeightedPhase:
    """Phi of a trial's delta_trace under the schedule's toggling weights.
    The schedule does not depend on kappa, so a run builds this once."""
    grid = _trace_grid(schedule, step)
    return WeightedPhase(model, grid, toggling_weights(schedule, grid, step))


def simulate_point(cfg: RunConfig, t: float, seed) -> tuple[int, int]:
    """Simulate one scheduled point; returns (successes, trials).

    trials = n_spins * n_trials_per_point.  With a quiet noise model and
    instantaneous pulses the survival probability comes from the closed
    form.  Otherwise each trial sees a fresh detuning trace (or a shared
    one when correlate_noise is set): with instantaneous pulses the trial
    needs only the trace's toggling-frame phase Phi, taken from the
    trace's own draws; with finite pulses integrate_noisy steps the
    sequence through the trace.
    """
    seq = cfg.sequence
    kappa_t = _kappa_at(cfg, t)
    total_time = seq.total_time
    survival = decay_survival(total_time, cfg.lifetime) \
        if math.isfinite(cfg.lifetime) else 1.0
    baseline = 1.0 / seq.sys.dim
    trials = cfg.n_spins * cfg.n_trials_per_point
    meas_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))

    quiet = cfg.noise is None or cfg.noise.is_quiet
    if quiet and seq.instantaneous_pulses:
        p_coherent = fringe_probability(seq.sys, seq.initial_twice_m,
                                        kappa_t * total_time, seq.phi)
        p = survival * p_coherent + (1.0 - survival) * baseline
        return int(meas_rng.binomial(trials, p)), trials

    noise = cfg.noise if cfg.noise is not None else NoiseModel()
    seq_t = replace(seq, kappa=kappa_t)
    schedule = dd_sequence_schedule(seq_t)
    step = cfg.step if cfg.step is not None else default_step(seq_t)
    n_traces = 1 if cfg.correlate_noise else cfg.n_trials_per_point
    trace_seeds = [np.random.SeedSequence(seed, spawn_key=(1, i))
                   for i in range(n_traces)]
    if seq.instantaneous_pulses:
        phase = _toggling_phase(schedule, step, noise)
        p_coherent = toggling_probability(seq_t, [phase(s) for s in trace_seeds])
    else:
        grid = _trace_grid(schedule, step)
        idx = seq.sys.index_of(seq.initial_twice_m)
        p_coherent = np.array([
            abs(integrate_noisy(seq_t, schedule, delta_trace(noise, grid, s),
                                step).matrix[idx, idx]) ** 2
            for s in trace_seeds])
    p = survival * p_coherent + (1.0 - survival) * baseline
    p = np.broadcast_to(p, cfg.n_trials_per_point)
    successes = sum(int(meas_rng.binomial(cfg.n_spins, p_i)) for p_i in p)
    return successes, trials


def _invert(successes: np.ndarray, trials: np.ndarray,
            calibration: FringeCalibration) -> tuple[np.ndarray, np.ndarray]:
    """(kappa_hat, sigma) for in-branch counts, elementwise: one root
    search of F(chi) = p_hat over the branch for all points."""
    p_hat = successes / trials
    fringe = calibration.fringe

    def residual(chi):
        f, slope = fringe(chi, 1)
        return f - p_hat, slope

    chi_hat = find_root(residual, np.full(np.shape(p_hat), calibration.chi_lo),
                        calibration.chi_hi)
    slope = np.abs(fringe(chi_hat, 1)[1])
    sigma = np.sqrt(p_hat * (1.0 - p_hat) / trials) / (calibration.total_time * slope)
    return chi_hat / calibration.total_time, sigma


def estimate_kappa(successes: int, trials: int,
                   calibration: FringeCalibration) -> tuple[float, float]:
    """Invert the calibrated fringe branch at p_hat = successes/trials.

    Returns (kappa_hat, sigma) with sigma from the delta method,
    sqrt(p(1-p)/trials) / (T |dF/dchi|).  Raises FringeWrapError unless
    p_hat lies strictly inside the branch range: at a branch end
    dF/dchi = 0, so an estimate there carries no information.
    """
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    p_hat = successes / trials
    if not calibration.p_min < p_hat < calibration.p_max:
        raise FringeWrapError(
            f"population {p_hat:.6g} is outside the open calibrated branch "
            f"range ({calibration.p_min:.6g}, {calibration.p_max:.6g})")
    kappa_hat, sigma = _invert(successes, trials, calibration)
    return float(kappa_hat), float(sigma)


@dataclass(frozen=True, eq=False)
class MeasurementRecord:
    """Per-point outcomes of one run, plus the configuration that made it."""

    times: np.ndarray
    successes: np.ndarray
    trials: np.ndarray
    chi_nominal: np.ndarray
    kappa_hat: np.ndarray
    sigma: np.ndarray
    wrapped: np.ndarray
    config: RunConfig

    @property
    def n_wrapped(self) -> int:
        return int(np.sum(self.wrapped))

    def valid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(t, kappa_hat, sigma) with fringe-wrapped points excluded."""
        keep = ~self.wrapped
        return self.times[keep], self.kappa_hat[keep], self.sigma[keep]


def run_experiment(cfg: RunConfig) -> MeasurementRecord:
    """Simulate every scheduled point, then invert all in-branch points
    together.  Per-point seeds are (master_seed, point_index)."""
    calibration = calibrate(cfg.sequence)
    counts = np.array([simulate_point(cfg, t, (cfg.master_seed, k))
                       for k, t in enumerate(cfg.timestamps)], dtype=int)
    successes, trials = counts[:, 0], counts[:, 1]
    p_hat = successes / trials
    wrapped = (p_hat <= calibration.p_min) | (p_hat >= calibration.p_max)
    kappa_hat = np.full(len(counts), math.nan)
    sigma = np.full(len(counts), math.nan)
    kappa_hat[~wrapped], sigma[~wrapped] = _invert(
        successes[~wrapped], trials[~wrapped], calibration)
    return MeasurementRecord(
        times=np.array(cfg.timestamps),
        successes=successes,
        trials=trials,
        chi_nominal=np.full(len(counts), calibration.chi_nominal),
        kappa_hat=kappa_hat,
        sigma=sigma,
        wrapped=wrapped,
        config=cfg,
    )


# --- Run-configuration file and record I/O -----------------------------------

_TWO_PI = 2.0 * math.pi

_FREQUENCY_TOKENS = {
    "sidereal-day": OMEGA_SIDEREAL_DAY,
    "sidereal-half-day": OMEGA_SIDEREAL_HALF_DAY,
    "annual": OMEGA_ANNUAL,
    "solar-day": OMEGA_SOLAR_DAY,
}


def parse_angle(text: str) -> float:
    """Radians, with the literal 'pi' supported: 'pi', '-pi/2', '0.25pi'."""
    cleaned = text.strip().lower().replace(" ", "")
    if "pi" in cleaned:
        head, _, tail = cleaned.partition("pi")
        if head in ("", "+"):
            factor = 1.0
        elif head == "-":
            factor = -1.0
        else:
            factor = float(head.rstrip("*"))
        divisor = 1.0
        if tail:
            if not tail.startswith("/"):
                raise ValueError(f"cannot parse angle {text!r}")
            divisor = float(tail[1:])
        return factor * math.pi / divisor
    return float(cleaned)


def parse_frequency(token: str) -> float:
    """An angular frequency in rad/s, by name or finite number."""
    name = token.strip().lower()
    if name in _FREQUENCY_TOKENS:
        return _FREQUENCY_TOKENS[name]
    try:
        value = float(token)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{token!r} is neither a finite frequency in rad/s nor "
                         f"one of {', '.join(_FREQUENCY_TOKENS)}")
    return value


class _Codec(NamedTuple):
    decode: Callable[[str], object]
    encode: Callable[[object], str]


def _number(read: Callable[[str], object], scale: float = 1) -> _Codec:
    """A number read from text, stored as scale times its value.  Integers
    echo exactly, floats as .17g of value / scale."""
    return _Codec(lambda text: scale * read(text),
                  lambda value: str(value) if isinstance(value, int)
                  else f"{value / scale:.17g}")


def _bool(text: str) -> bool:
    if text.lower() not in ("true", "false", "1", "0", "yes", "no"):
        raise ValueError(f"{text!r} is not one of true/false/1/0/yes/no")
    return text.lower() in ("true", "1", "yes")


def _triples(*parts: _Codec) -> _Codec:
    """Comma-separated a:b:c items, one codec per part."""
    def decode(text: str) -> tuple:
        items = [item.split(":") for item in text.split(",")] if text else []
        if any(len(item) != 3 for item in items):
            raise ValueError(f"{text!r} is not a list of a:b:c triples")
        return tuple(tuple(c.decode(x) for c, x in zip(parts, item)) for item in items)
    return _Codec(decode, lambda value: ",".join(
        ":".join(c.encode(x) for c, x in zip(parts, item)) for item in value))


_FLOAT = _number(float)
_HZ = _number(float, _TWO_PI)
_ANGLE = _number(parse_angle)
_INT = _number(int)

_REQUIRED = object()   # the key must be given
_DERIVED = object()    # echo-only: checked against the parsed config if given


class ConfigField(NamedTuple):
    """One run-configuration key.  path is a RunConfig attribute, or
    group.attribute for a group in _GROUPS; the codec only reads text."""

    key: str
    path: str
    codec: _Codec
    default: object = _REQUIRED


def _timestamps(times=None, start=None, step=None, count=None) -> tuple[float, ...]:
    if times is not None and (start, step, count) == (None, None, None):
        return times
    if times is None and None not in (start, step, count):
        # The schedule's own parameters, so that an error names its key.
        require("start", start)
        require("step", step)
        require("count", count, "an integer >= 1")
        return tuple(start + step * k for k in range(count))
    raise ValueError("the schedule needs either a timestamps list or all of "
                     "timestamps_start_s, timestamps_step_s and timestamps_count")


def _timestamp_view(times: tuple[float, ...]) -> SimpleNamespace:
    """The echoed schedule: start, step and count when start + step*k
    reproduces every timestamp bit for bit (compared as int64 so that the
    sign of zero counts), else the list."""
    t = np.array(times)
    step = t[1] - t[0] if t.size > 1 else 0.0
    rebuilt = t[0] + step * np.arange(t.size)
    if np.array_equal(rebuilt.view(np.int64), t.view(np.int64)):
        return SimpleNamespace(start=times[0], step=float(step), count=t.size, n=t.size)
    return SimpleNamespace(times=times, n=t.size)


def _noise(**kwargs) -> NoiseModel | None:
    model = NoiseModel(**kwargs)
    return None if model.is_quiet else model


def _injected(**kwargs) -> SiderealModel | None:
    model = SiderealModel(**kwargs)
    return model if model.harmonics or model.kappa_static else None


# Each group builds one RunConfig attribute from its keys' values.
_GROUPS = {"sequence": SequenceConfig, "timestamps": _timestamps,
           "noise": _noise, "injected": _injected}

# The run-configuration format, in echo order.  The echo omits a value of
# None or () and every key of a group that is None.
CONFIG_FIELDS = (
    ConfigField("j", "sequence.sys", _Codec(lambda text: SpinSystem(as_twice(text)),
                                            lambda sys: f"{sys.twice_j}/2")),
    ConfigField("initial_m", "sequence.initial_twice_m",
                _Codec(as_twice, lambda twice: f"{twice}/2")),
    ConfigField("t_w_s", "sequence.t_w", _FLOAT),
    ConfigField("n_blocks", "sequence.n_blocks", _INT),
    ConfigField("kappa_rad_s", "sequence.kappa", _FLOAT),
    ConfigField("phi_rad", "sequence.phi", _ANGLE),
    ConfigField("rabi_omega0_rad_s", "sequence.rabi_omega0", _FLOAT, math.inf),
    ConfigField("ramsey_time_s", "sequence.total_time", _FLOAT, _DERIVED),
    ConfigField("n_spins", "n_spins", _INT),
    ConfigField("n_trials_per_point", "n_trials_per_point", _INT),
    ConfigField("lifetime_s", "lifetime", _FLOAT, math.inf),
    ConfigField("master_seed", "master_seed", _INT),
    ConfigField("correlate_noise", "correlate_noise",
                _Codec(_bool, lambda flag: str(flag).lower()), False),
    ConfigField("timestamps_start_s", "timestamps.start", _FLOAT, None),
    ConfigField("timestamps_step_s", "timestamps.step", _FLOAT, None),
    ConfigField("timestamps_count", "timestamps.count", _INT, None),
    ConfigField("timestamps", "timestamps.times", _Codec(
        lambda text: tuple(map(float, text.split(","))),
        lambda times: ",".join(map(_FLOAT.encode, times))), None),
    ConfigField("n_points", "timestamps.n", _INT, _DERIVED),
    ConfigField("step_s", "step", _FLOAT, None),
    ConfigField("ou_sigma_hz", "noise.ou_sigma", _HZ, 0.0),
    ConfigField("ou_tau_c_s", "noise.ou_tau_c", _FLOAT, 1.0),
    ConfigField("dc_offset_hz", "noise.dc_offset", _HZ, 0.0),
    ConfigField("line_harmonics", "noise.line_harmonics",
                _triples(_FLOAT, _HZ, _ANGLE), ()),
    ConfigField("inject_kappa_static_rad_s", "injected.kappa_static", _FLOAT, 0.0),
    ConfigField("inject_harmonics", "injected.harmonics",
                _triples(_Codec(parse_frequency, _FLOAT.encode), _FLOAT, _FLOAT), ()),
    ConfigField("inject_epoch_s", "injected.t0", _FLOAT, 0.0),
)


def _echo_values(cfg: RunConfig) -> list:
    """Each field's value in cfg, in table order; None or () is not echoed."""
    views = {"": cfg, "sequence": cfg.sequence, "noise": cfg.noise,
             "injected": cfg.injected, "timestamps": _timestamp_view(cfg.timestamps)}
    return [getattr(views[group], attr, None)
            for group, _, attr in (f.path.rpartition(".") for f in CONFIG_FIELDS)]


def parse_run_config(lines: Iterable[str], source: str = "<config>") -> RunConfig:
    """Parse the run-configuration format of CONFIG_FIELDS (see README).
    Every error names the source, and the line and key where there is one."""
    given: dict[str, tuple[int, str]] = {}
    keys = [field.key for field in CONFIG_FIELDS]
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, text = (part.strip() for part in line.partition("="))
        if not eq:
            raise ValueError(f"{source}:{lineno}: expected 'key = value'")
        if key not in keys:
            raise ValueError(f"{source}:{lineno}: unknown key {key!r}")
        if key in given:
            raise ValueError(f"{source}:{lineno}: {key} given twice "
                             f"(first on line {given[key][0]})")
        given[key] = (lineno, text)
    missing = [f.key for f in CONFIG_FIELDS
               if f.default is _REQUIRED and f.key not in given]
    if missing:
        raise ValueError(f"{source}: missing required keys: {', '.join(missing)}")

    values: dict[str, dict] = {name: {} for name in ("", *_GROUPS)}
    stated = {}
    for field in CONFIG_FIELDS:
        group, _, attr = field.path.rpartition(".")
        if field.key not in given:
            if field.default is not None and field.default is not _DERIVED:
                values[group][attr] = field.default
            continue
        lineno, text = given[field.key]
        try:
            value = field.codec.decode(text)
        except (ValueError, TypeError) as exc:
            raise ValueError(f"{source}:{lineno}: {field.key}: {exc}") from None
        if field.default is _DERIVED:
            stated[field.key] = value
        else:
            values[group][attr] = value
    # Build each group into a RunConfig argument; the last build is the
    # RunConfig.  An attribute built from several keys (the schedule) is
    # reported at the first of them that is given.
    for group, build in (*_GROUPS.items(), ("", RunConfig)):
        try:
            cfg = values[""][group] = build(**values[group])
        except FieldError as exc:
            path = f"{group}.{exc.attribute}".lstrip(".")
            key = next(f.key for f in CONFIG_FIELDS if f.key in given
                       and (f.path + ".").startswith(path + "."))
            raise ValueError(f"{source}:{given[key][0]}: {key}: {exc}") from None
        except ValueError as exc:
            raise ValueError(f"{source}: {exc}") from None
    for key, value in zip(keys, _echo_values(cfg)):
        if key in stated and not math.isclose(stated[key], value, rel_tol=1e-12):
            raise ValueError(f"{source}:{given[key][0]}: {key}: {stated[key]!r} "
                             f"does not match the configuration's {value!r}")
    return cfg


def load_run_config(path) -> RunConfig:
    with open(path) as fh:
        return parse_run_config(fh, source=str(path))


def config_echo_lines(cfg: RunConfig) -> list[str]:
    """The resolved configuration as 'key = value' lines for file headers;
    parse_run_config reads them back to an equal RunConfig."""
    return [f"{field.key} = {field.codec.encode(value)}"
            for field, value in zip(CONFIG_FIELDS, _echo_values(cfg))
            if value is not None and value != ()]


def write_record(out: IO[str], record: MeasurementRecord,
                 extra_header: Iterable[str] = ()) -> None:
    """Record export (wrapped points excluded from the rows, counted in
    the header): t_unix_s, successes, trials, chi_rad, kappa_hat, sigma."""
    for line in extra_header:
        out.write(f"# {line}\n")
    for line in config_echo_lines(record.config):
        out.write(f"# {line}\n")
    out.write(f"# wrapped_excluded = {record.n_wrapped}\n")
    out.write("t_unix_s,successes,trials,chi_rad,kappa_hat_rad_per_s,"
              "sigma_rad_per_s\n")
    for k in range(len(record.times)):
        if record.wrapped[k]:
            continue
        out.write(f"{record.times[k]:.17g},{record.successes[k]},"
                  f"{record.trials[k]},{record.chi_nominal[k]:.17g},"
                  f"{record.kappa_hat[k]:.17g},{record.sigma[k]:.17g}\n")
