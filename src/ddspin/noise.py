"""Detuning noise traces and slow decoherence models.

The detuning delta(t) seen by the spin combines a slow drift, modeled as a
stationary Ornstein-Uhlenbeck process, with deterministic mains pickup
(50 Hz and harmonics) and a DC offset.  Spontaneous decay of the probe
level is treated as a pure contrast loss exp(-T/lifetime).

The OU parameters are placeholders: with active field compensation running,
the residual drift spectrum depends on the apparatus and should be set per
setup.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ddspin.spin_algebra import require


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sample grid: t_k = t0 + k*dt, k = 0..count-1."""

    t0: float
    dt: float
    count: int

    def __post_init__(self):
        require("dt", self.dt, "finite and > 0")
        require("count", self.count, "an integer >= 1")

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.count)

    def nearest_index(self, t) -> np.ndarray:
        """Index of the sample nearest to each time t, clamped to the grid."""
        idx = np.rint((np.asarray(t, dtype=float) - self.t0) / self.dt)
        return np.clip(idx.astype(int), 0, self.count - 1)

    @property
    def duration(self) -> float:
        return self.dt * (self.count - 1)


@dataclass(frozen=True, eq=False)
class NoiseTrace:
    """Sampled detuning delta(t_k) in rad/s on a uniform grid."""

    grid: TimeGrid
    samples: np.ndarray

    def __post_init__(self):
        samples = np.array(self.samples, dtype=float)
        if samples.shape != (self.grid.count,):
            raise ValueError("samples must match the grid length")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    def values_at(self, t) -> np.ndarray:
        """Nearest-sample lookup (no interpolation; step << tau_c in all
        supported regimes)."""
        return self.samples[self.grid.nearest_index(t)]


@dataclass(frozen=True)
class NoiseModel:
    """Drift + mains model of the detuning.

    ou_sigma: stationary standard deviation of the drift, rad/s, >= 0.
    ou_tau_c: drift correlation time, s, > 0.
    line_harmonics: (frequency_hz > 0, amplitude_rad_s >= 0, phase_rad) triples.
    dc_offset: constant detuning, rad/s.  Every value is finite.
    """

    ou_sigma: float = 0.0
    ou_tau_c: float = 1.0
    line_harmonics: tuple[tuple[float, float, float], ...] = ()
    dc_offset: float = 0.0

    def __post_init__(self):
        require("ou_sigma", self.ou_sigma, "finite and >= 0")
        require("ou_tau_c", self.ou_tau_c, "finite and > 0")
        require("dc_offset", self.dc_offset)
        harmonics = tuple((float(f), float(a), float(p))
                          for f, a, p in self.line_harmonics)
        for freq, amp, phase in harmonics:
            require("line_harmonics", freq, "finite and > 0")
            require("line_harmonics", amp, "finite and >= 0")
            require("line_harmonics", phase)
        object.__setattr__(self, "line_harmonics", harmonics)

    @property
    def is_quiet(self) -> bool:
        return (self.ou_sigma == 0.0 and not self.line_harmonics
                and self.dc_offset == 0.0)


def _ou_step(model: NoiseModel, dt: float) -> tuple[float, float]:
    """(rho, s) of one OU step of length dt: rho = e^(-dt/tau) and
    s = sigma sqrt(1 - rho^2)."""
    rho = math.exp(-dt / model.ou_tau_c)
    return rho, model.ou_sigma * math.sqrt(1.0 - rho * rho)


def _ou_draws(model: NoiseModel, count: int, rng) -> tuple[float, np.ndarray]:
    """The draws of one OU drift of count samples: x_0 ~ N(0, sigma^2),
    then count - 1 unit normal kicks xi_k, taken from rng in that order."""
    x0 = model.ou_sigma * float(rng.standard_normal())
    return x0, rng.standard_normal(count - 1)


def _ou_drift(model: NoiseModel, grid: TimeGrid, rng) -> np.ndarray:
    """Zero-mean stationary OU drift by exact discretization:

        x_{k+1} = x_k e^(-dt/tau) + sigma sqrt(1 - e^(-2 dt/tau)) xi_k

    from the draws of _ou_draws.
    """
    rho, noise_scale = _ou_step(model, grid.dt)
    x0, kicks = _ou_draws(model, grid.count, rng)
    drift = itertools.accumulate(kicks, lambda x, xi: x * rho + noise_scale * xi,
                                 initial=x0)
    return np.fromiter(drift, dtype=float, count=grid.count)


def _add_mains(delta: np.ndarray, model: NoiseModel, grid: TimeGrid) -> None:
    """Add the mains pickup sum of a*sin(2 pi f t + p) to delta in place."""
    t = grid.times()
    for freq, amp, phase in model.line_harmonics:
        delta += amp * np.sin(2.0 * math.pi * freq * t + phase)


def ac_line_trace(model: NoiseModel, grid: TimeGrid) -> NoiseTrace:
    """Deterministic mains pickup: dc_offset + sum of a*sin(2 pi f t + p)."""
    delta = np.full(grid.count, model.dc_offset)
    _add_mains(delta, model, grid)
    return NoiseTrace(grid, delta)


def delta_trace(model: NoiseModel, grid: TimeGrid, seed) -> NoiseTrace:
    """Full detuning trace: zero-mean OU drift + mains + one dc_offset.
    Identical (seed, grid, model) always gives the identical trace."""
    if model.ou_sigma > 0:
        delta = _ou_drift(model, grid, np.random.default_rng(seed))
    else:
        delta = np.zeros(grid.count)
    _add_mains(delta, model, grid)
    return NoiseTrace(grid, delta + model.dc_offset)


class WeightedPhase:
    """The weighted sum Phi = sum_k w_k delta_k of a delta_trace sample on
    a fixed grid, computed from the trace's own draws without building it.

    The deterministic part w.(mains + dc_offset) is computed once.  The OU
    part is linear in the draws of _ou_draws:

        w.x = g_0 x_0 + s sum_{j>=1} g_j xi_j,   g_j = w_j + rho g_{j+1},

    where g is the weights filtered backward through the OU recursion.
    Calling with the seed given to delta_trace returns the same Phi as
    delta_trace(model, grid, seed).samples @ w, up to rounding.
    """

    def __init__(self, model: NoiseModel, grid: TimeGrid, weights):
        w = np.asarray(weights, dtype=float)
        if w.shape != (grid.count,):
            raise ValueError("weights must match the grid length")
        self.model = model
        self.deterministic = float(w @ ac_line_trace(model, grid).samples)
        rho, self._noise_scale = _ou_step(model, grid.dt)
        backward = itertools.accumulate(w[::-1], lambda g, wk: wk + rho * g)
        self._filter = np.fromiter(backward, dtype=float, count=grid.count)[::-1].copy()

    def __call__(self, seed) -> float:
        if self.model.ou_sigma == 0:
            return self.deterministic
        x0, kicks = _ou_draws(self.model, self._filter.size,
                              np.random.default_rng(seed))
        ou = self._filter[0] * x0 + self._noise_scale * float(kicks @ self._filter[1:])
        return self.deterministic + ou


def decay_survival(t: float, lifetime: float) -> float:
    """Survival fraction exp(-t/lifetime); multiplies the fringe contrast."""
    if not lifetime > 0:
        raise ValueError("lifetime must be > 0")
    if t < 0:
        raise ValueError("t must be >= 0")
    return math.exp(-t / lifetime)
