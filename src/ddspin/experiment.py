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
from typing import IO, Iterable

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
from ddspin.spin_algebra import SpinSystem, as_twice


class FringeWrapError(ValueError):
    """The measured population left the calibrated monotone fringe branch."""


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce a simulated run.

    The per-point interrogation uses n_trials_per_point sequence repetitions
    of n_spins independent probes; total measurement time per point is
    n_trials * T.  `injected` adds a time-dependent component on top of the
    static sequence kappa.  lifetime scales the fringe contrast toward the
    uniform baseline (math.inf disables decay).
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
        if self.n_spins < 1:
            raise ValueError("n_spins must be >= 1")
        if self.n_trials_per_point < 1:
            raise ValueError("n_trials_per_point must be >= 1")
        if not self.lifetime > 0:
            raise ValueError("lifetime must be > 0")
        object.__setattr__(self, "timestamps",
                           tuple(float(t) for t in self.timestamps))
        if not self.timestamps:
            raise ValueError("timestamps must be non-empty")

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
    """An angular frequency in rad/s, by name or number."""
    name = token.strip().lower()
    if name in _FREQUENCY_TOKENS:
        return _FREQUENCY_TOKENS[name]
    return float(token)


def parse_run_config(lines: Iterable[str], source: str = "<config>") -> RunConfig:
    """Parse the key-value run configuration format (see README)."""
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{source}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()

    def pop(key: str, default=None) -> str | None:
        return entries.pop(key, default)

    required = ("j", "initial_m", "t_w_s", "n_blocks", "kappa_rad_s",
                "phi_rad", "n_spins", "n_trials_per_point", "master_seed")
    missing = [k for k in required if k not in entries]
    if missing:
        raise ValueError(f"{source}: missing required keys: {', '.join(missing)}")

    sys = SpinSystem(as_twice(pop("j")))
    sequence = SequenceConfig(
        sys=sys,
        t_w=float(pop("t_w_s")),
        n_blocks=int(pop("n_blocks")),
        kappa=float(pop("kappa_rad_s")),
        phi=parse_angle(pop("phi_rad")),
        initial_twice_m=as_twice(pop("initial_m")),
        rabi_omega0=float(pop("rabi_omega0_rad_s", "inf")),
    )

    harmonics = []
    line_text = pop("line_harmonics", "")
    if line_text:
        for triple in line_text.split(","):
            freq_hz, amp_hz, phase = triple.split(":")
            harmonics.append((float(freq_hz), _TWO_PI * float(amp_hz),
                              parse_angle(phase)))
    noise = NoiseModel(
        ou_sigma=_TWO_PI * float(pop("ou_sigma_hz", "0")),
        ou_tau_c=float(pop("ou_tau_c_s", "1")),
        line_harmonics=tuple(harmonics),
        dc_offset=_TWO_PI * float(pop("dc_offset_hz", "0")),
    )

    if "timestamps" in entries:
        timestamps = tuple(float(x) for x in pop("timestamps").split(","))
    else:
        for key in ("timestamps_start_s", "timestamps_step_s", "timestamps_count"):
            if key not in entries:
                raise ValueError(f"{source}: missing {key} (or a 'timestamps' list)")
        start = float(pop("timestamps_start_s"))
        step = float(pop("timestamps_step_s"))
        count = int(pop("timestamps_count"))
        timestamps = tuple(start + step * k for k in range(count))

    injected = None
    inject_harm_text = pop("inject_harmonics", "")
    inject_static = float(pop("inject_kappa_static_rad_s", "0"))
    inject_epoch = float(pop("inject_epoch_s", "0"))
    if inject_harm_text or inject_static:
        inj_harmonics = []
        if inject_harm_text:
            for triple in inject_harm_text.split(","):
                omega, a_cos, b_sin = triple.split(":")
                inj_harmonics.append((parse_frequency(omega), float(a_cos),
                                      float(b_sin)))
        injected = SiderealModel(kappa_static=inject_static,
                                 harmonics=tuple(inj_harmonics),
                                 t0=inject_epoch)

    cfg = RunConfig(
        sequence=sequence,
        noise=None if noise.is_quiet else noise,
        n_spins=int(pop("n_spins")),
        n_trials_per_point=int(pop("n_trials_per_point")),
        timestamps=timestamps,
        master_seed=int(pop("master_seed")),
        lifetime=float(pop("lifetime_s", "inf")),
        injected=injected,
        correlate_noise=pop("correlate_noise", "false").lower() in ("1", "true", "yes"),
        step=(float(entries.pop("step_s")) if "step_s" in entries else None),
    )
    if entries:
        raise ValueError(f"{source}: unknown keys: {', '.join(sorted(entries))}")
    return cfg


def load_run_config(path) -> RunConfig:
    with open(path) as fh:
        return parse_run_config(fh, source=str(path))


def config_echo_lines(cfg: RunConfig) -> list[str]:
    """The resolved configuration as 'key = value' lines for file headers."""
    seq = cfg.sequence
    lines = [
        f"j = {seq.sys.twice_j}/2",
        f"initial_m = {seq.initial_twice_m}/2",
        f"t_w_s = {seq.t_w:.17g}",
        f"n_blocks = {seq.n_blocks}",
        f"kappa_rad_s = {seq.kappa:.17g}",
        f"phi_rad = {seq.phi:.17g}",
        f"rabi_omega0_rad_s = {seq.rabi_omega0:.17g}",
        f"ramsey_time_s = {seq.total_time:.17g}",
        f"n_spins = {cfg.n_spins}",
        f"n_trials_per_point = {cfg.n_trials_per_point}",
        f"lifetime_s = {cfg.lifetime:.17g}",
        f"master_seed = {cfg.master_seed}",
        f"correlate_noise = {str(cfg.correlate_noise).lower()}",
        f"n_points = {len(cfg.timestamps)}",
    ]
    if cfg.step is not None:
        lines.append(f"step_s = {cfg.step:.17g}")
    if cfg.noise is not None:
        lines.append(f"ou_sigma_hz = {cfg.noise.ou_sigma / _TWO_PI:.17g}")
        lines.append(f"ou_tau_c_s = {cfg.noise.ou_tau_c:.17g}")
        lines.append(f"dc_offset_hz = {cfg.noise.dc_offset / _TWO_PI:.17g}")
        if cfg.noise.line_harmonics:
            triples = ",".join(f"{f:.17g}:{a / _TWO_PI:.17g}:{p:.17g}"
                               for f, a, p in cfg.noise.line_harmonics)
            lines.append(f"line_harmonics = {triples}")
    if cfg.injected is not None:
        lines.append(f"inject_kappa_static_rad_s = {cfg.injected.kappa_static:.17g}")
        if cfg.injected.harmonics:
            triples = ",".join(f"{w:.17g}:{a:.17g}:{b:.17g}"
                               for w, a, b in cfg.injected.harmonics)
            lines.append(f"inject_harmonics = {triples}")
        lines.append(f"inject_epoch_s = {cfg.injected.t0:.17g}")
    return lines


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
