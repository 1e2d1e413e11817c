"""Pulse schedules and unitary evolution of the decoupled Ramsey sequence.

The free Hamiltonian is ``delta(t) Jz + kappa Jz^2``; an RF drive adds
``Omega(t) [Jx cos(phi) - Jy sin(phi)]``.  One decoupling block is

    [t_w] [pi pulse] [2 t_w] [pi pulse, opposite phase] [t_w]

which cancels the phase of the linear Jz term for slowly varying delta
while the Jz^2 phase accumulates coherently.  The full sequence wraps n
blocks between two pi/2 pulses; the closed form of the total evolution is

    exp(i (pi/2)(Jx cos(phi) - Jy sin(phi))) exp(i kappa T Jz^2) exp(i (pi/2) Jx)

with T = 4 n t_w.

Phase convention: every evolution operator in this package is
``exp(+i H t)``.  Under the physical ``exp(-i H t)`` convention the same
fringes are obtained with kappa -> -kappa.  The pi/2-pulse exponents carry
an explicit factor i, which unitarity requires.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

import numpy as np

from ddspin.noise import NoiseTrace, TimeGrid
from ddspin.sensitivity import FringeFunction
from ddspin.spin_algebra import (
    OperatorMatrix,
    SpinSystem,
    _check_unitary,
    build_angular_momentum_ops,
    rotation,
)


@dataclass(frozen=True)
class SequenceConfig:
    """Parameters of one decoupled Ramsey sequence.

    rabi_omega0 = math.inf selects instantaneous pulses.  initial_twice_m
    is the prepared (and detected) m level, as a twice-value integer.
    """

    sys: SpinSystem
    t_w: float
    n_blocks: int
    kappa: float
    phi: float
    initial_twice_m: int
    rabi_omega0: float = math.inf

    def __post_init__(self):
        if not self.t_w > 0:
            raise ValueError("t_w must be > 0")
        if not isinstance(self.n_blocks, int) or self.n_blocks < 1:
            raise ValueError("n_blocks must be an integer >= 1 "
                             "(a bare Ramsey sequence is one block with kappa folded)")
        self.sys.index_of(self.initial_twice_m)
        if not self.rabi_omega0 > 0:
            raise ValueError("rabi_omega0 must be > 0 (math.inf for instantaneous)")
        if math.isfinite(self.rabi_omega0) and self.kappa != 0 \
                and self.rabi_omega0 < 100.0 * abs(self.kappa):
            warnings.warn("rabi_omega0 is less than 100x |kappa|; finite-pulse "
                          "corrections may be significant", stacklevel=2)

    @property
    def total_time(self) -> float:
        """Ramsey time T = 4 n t_w (pulse durations not counted)."""
        return 4.0 * self.n_blocks * self.t_w

    @property
    def instantaneous_pulses(self) -> bool:
        return math.isinf(self.rabi_omega0)


@dataclass(frozen=True)
class FreeEvolution:
    duration: float

    def __post_init__(self):
        if not self.duration > 0:
            raise ValueError("free-evolution duration must be > 0")


@dataclass(frozen=True)
class Pulse:
    """An RF pulse of given phase and area; duration 0 means instantaneous."""

    phase: float
    area: float
    duration: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.area <= 2.0 * math.pi:
            raise ValueError("pulse area must be in (0, 2*pi]")
        if self.duration < 0:
            raise ValueError("pulse duration must be >= 0")


@dataclass(frozen=True)
class PulseSchedule:
    """Ordered segments, listed in the order they are applied."""

    segments: tuple[FreeEvolution | Pulse, ...]

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        if not self.segments:
            raise ValueError("schedule must contain at least one segment")

    @property
    def total_duration(self) -> float:
        return sum(s.duration for s in self.segments)


def dd_block_segments(t_w: float, pulse_duration: float = 0.0
                      ) -> tuple[FreeEvolution | Pulse, ...]:
    """One decoupling block: [t_w][pi][2 t_w][pi, opposite phase][t_w].

    The pulse phases are -pi/2 then +pi/2, i.e. exp(+i pi Jy) followed by
    exp(-i pi Jy) under the exp(+i theta (Jx cos phi - Jy sin phi))
    convention.  Either ordering cancels the linear Jz phase.
    """
    return (
        FreeEvolution(t_w),
        Pulse(-math.pi / 2.0, math.pi, pulse_duration),
        FreeEvolution(2.0 * t_w),
        Pulse(math.pi / 2.0, math.pi, pulse_duration),
        FreeEvolution(t_w),
    )


def dd_sequence_schedule(cfg: SequenceConfig) -> PulseSchedule:
    """The full sequence: pi/2 (phase 0), n blocks, pi/2 (phase cfg.phi)."""
    if cfg.instantaneous_pulses:
        t_pi = 0.0
        t_half = 0.0
    else:
        t_pi = math.pi / cfg.rabi_omega0
        t_half = t_pi / 2.0
    segments: list[FreeEvolution | Pulse] = [Pulse(0.0, math.pi / 2.0, t_half)]
    for _ in range(cfg.n_blocks):
        segments.extend(dd_block_segments(cfg.t_w, t_pi))
    segments.append(Pulse(cfg.phi, math.pi / 2.0, t_half))
    return PulseSchedule(tuple(segments))


def _free_diag(sys: SpinSystem, zeeman_phase: float, quad_phase: float) -> np.ndarray:
    """Diagonal of exp(i (zeeman_phase Jz + quad_phase Jz^2))."""
    m = sys.m_values
    return np.exp(1j * (zeeman_phase * m + quad_phase * m * m))


def dd_block_unitary(cfg: SequenceConfig, delta: float) -> OperatorMatrix:
    """Evolution of one block with constant detuning, as the explicit
    five-factor product (instantaneous pulses).

    For any constant delta this equals exp(i 4 kappa t_w Jz^2): the pi-pulse
    pair maps Jz -> -Jz in the middle window, so the linear phase cancels
    while [Jz^2, exp(+-i pi Jy)] = 0 keeps the quadratic phase.
    """
    if not cfg.instantaneous_pulses:
        raise ValueError("dd_block_unitary is the instantaneous-pulse closed form")
    sys = cfg.sys
    outer = _free_diag(sys, delta * cfg.t_w, cfg.kappa * cfg.t_w)
    middle = _free_diag(sys, 2.0 * delta * cfg.t_w, 2.0 * cfg.kappa * cfg.t_w)
    pi_plus_y = rotation(sys, -math.pi / 2.0, math.pi)   # exp(+i pi Jy)
    pi_minus_y = rotation(sys, math.pi / 2.0, math.pi)   # exp(-i pi Jy)
    u = (outer[:, None] * pi_minus_y) @ (middle[:, None] * pi_plus_y) \
        * outer[None, :]
    return OperatorMatrix(u)


def sequence_unitary(cfg: SequenceConfig) -> OperatorMatrix:
    """Closed form of the full sequence for constant-per-block detuning:
    the detuning phase cancels blockwise, leaving the two pi/2 pulses
    around exp(i kappa T Jz^2)."""
    if not cfg.instantaneous_pulses:
        raise ValueError("sequence_unitary is the instantaneous-pulse closed form")
    sys = cfg.sys
    r_init = rotation(sys, 0.0, math.pi / 2.0)
    r_final = rotation(sys, cfg.phi, math.pi / 2.0)
    diag = _free_diag(sys, 0.0, cfg.kappa * cfg.total_time)
    return OperatorMatrix(r_final @ (diag[:, None] * r_init))


def fringe_probability(sys: SpinSystem, twice_m: int, kappa_t: float,
                       phi: float) -> float:
    """Survival probability of |J, m> after the full sequence,
    P(kappa*T, phi) = |<J,m|U_total|J,m>|^2."""
    return FringeFunction(sys, twice_m, phi)(float(kappa_t))


def fringe_grid(sys: SpinSystem, twice_m: int,
                kappa_t_axis: Sequence[float],
                phi_axis: Sequence[float]) -> np.ndarray:
    """Fringe surface on the outer product of the two axes, row-major:
    result[i, k] = P(kappa_t_axis[i], phi_axis[k])."""
    kt = np.asarray(kappa_t_axis, dtype=float)
    ph = np.asarray(phi_axis, dtype=float)
    if kt.size == 0 or ph.size == 0:
        raise ValueError("grid axes must be non-empty")
    if kt.size > 1 and not np.all(np.diff(kt) > 0):
        raise ValueError("kappa_t_axis must be strictly increasing")
    if ph.size > 1 and not np.all(np.diff(ph) > 0):
        raise ValueError("phi_axis must be strictly increasing")
    grid = np.empty((kt.size, ph.size))
    for k, p in enumerate(ph):
        grid[:, k] = FringeFunction(sys, twice_m, float(p))(kt)
    return grid


def write_fringe_grid(out: IO[str], kappa_t_axis, phi_axis, grid: np.ndarray,
                      header_lines: Iterable[str] = ()) -> None:
    """Serialize a fringe grid as delimiter-separated text, row-major, with
    17 significant digits (round-trip exact for doubles)."""
    for line in header_lines:
        out.write(f"# {line}\n")
    out.write("kappaT_rad,phi_rad,probability\n")
    for i, x in enumerate(np.asarray(kappa_t_axis, dtype=float)):
        for k, p in enumerate(np.asarray(phi_axis, dtype=float)):
            out.write(f"{x:.17g},{p:.17g},{grid[i, k]:.17g}\n")


def _pulse_generator(sys: SpinSystem, phase: float) -> np.ndarray:
    jx, jy, _ = build_angular_momentum_ops(sys)
    return math.cos(phase) * jx - math.sin(phase) * jy


def default_step(cfg: SequenceConfig) -> float:
    """Integrator step: min(t_w, pi/Omega0) / 50."""
    if cfg.instantaneous_pulses:
        return cfg.t_w / 50.0
    return min(cfg.t_w, math.pi / cfg.rabi_omega0) / 50.0


def _check_coverage(grid: TimeGrid, duration: float) -> None:
    t_end = grid.t0 + grid.duration
    if grid.t0 > 0.0 or t_end < duration:
        raise ValueError(
            f"noise trace [{grid.t0}, {t_end}] does not cover the "
            f"schedule duration [0, {duration}]"
        )


def _step_midpoints(t: float, duration: float, step: float
                    ) -> tuple[np.ndarray, float]:
    """Midpoints and width of the ceil(duration/step) equal steps of a
    window that starts at t."""
    n = max(1, math.ceil(duration / step))
    h = duration / n
    return t + (np.arange(n) + 0.5) * h, h


def integrate_noisy(cfg: SequenceConfig, schedule: PulseSchedule,
                    noise: NoiseTrace, step: float | None = None) -> OperatorMatrix:
    """Time-stepped evolution of a schedule under a sampled detuning trace.

    Each step applies exp(i H(t_k) dt) with the detuning held constant at
    the trace value nearest the step midpoint.  Free-evolution windows are
    diagonal, so their step product collapses to a single exponential of
    the accumulated phase; pulse windows with finite duration are stepped
    with the full Hamiltonian, and the running product is projected back
    onto the unitaries (its polar factor) after each of them, so rounding
    drift cannot build up over long sequences.  Instantaneous pulses are
    exact rotations.
    """
    if step is None:
        step = default_step(cfg)
    if not step > 0:
        raise ValueError("step must be > 0")
    _check_coverage(noise.grid, schedule.total_duration)
    peak = float(np.max(np.abs(noise.samples))) if noise.samples.size else 0.0
    if math.isfinite(cfg.rabi_omega0) and peak > 0 \
            and cfg.rabi_omega0 < 100.0 * peak:
        warnings.warn("rabi_omega0 is less than 100x the peak detuning; "
                      "finite-pulse corrections may be significant", stacklevel=2)

    sys = cfg.sys
    m = sys.m_values
    jz = np.diag(m)
    jz2 = np.diag(m * m)
    u = np.eye(sys.dim, dtype=complex)
    t = 0.0
    for seg in schedule.segments:
        if isinstance(seg, FreeEvolution):
            mids, h = _step_midpoints(t, seg.duration, step)
            zeeman_phase = float(np.sum(noise.values_at(mids)) * h)
            u = (_free_diag(sys, zeeman_phase, cfg.kappa * seg.duration)[:, None]
                 * u)
            t += seg.duration
        else:
            if seg.duration == 0.0:
                u = rotation(sys, seg.phase, seg.area) @ u
                continue
            omega = seg.area / seg.duration
            drive = omega * _pulse_generator(sys, seg.phase)
            mids, h = _step_midpoints(t, seg.duration, step)
            hams = noise.values_at(mids)[:, None, None] * jz + cfg.kappa * jz2 + drive
            w, v = np.linalg.eigh(hams)
            steps = (v * np.exp(1j * w * h)[:, None, :]) @ v.conj().transpose(0, 2, 1)
            for step_u in steps:
                u = step_u @ u
            _check_unitary(u)
            a, _, bh = np.linalg.svd(u)
            u = a @ bh
            t += seg.duration
    return OperatorMatrix(u)


def toggling_weights(schedule: PulseSchedule, grid: TimeGrid,
                     step: float) -> np.ndarray:
    """Weights w on the trace grid such that the residual Zeeman phase of
    a schedule with instantaneous pulses is Phi = sum_k w_k delta_k.

    Each free window contributes its step width at the trace sample
    nearest each step midpoint, exactly as integrate_noisy samples it,
    times the toggling sign y = +-1, which flips at every pi pulse (a pi
    pulse about an equatorial axis maps Jz to -Jz).  For the decoupled
    sequence the two pi pulses of each block compose to the identity, so
    the whole sequence is R(phi, pi/2) exp(i (Phi Jz + kappa T Jz^2))
    R(0, pi/2); see toggling_probability.
    """
    if not step > 0:
        raise ValueError("step must be > 0")
    _check_coverage(grid, schedule.total_duration)
    w = np.zeros(grid.count)
    sign = 1.0
    t = 0.0
    for seg in schedule.segments:
        if isinstance(seg, FreeEvolution):
            mids, h = _step_midpoints(t, seg.duration, step)
            w += sign * h * np.bincount(grid.nearest_index(mids), minlength=grid.count)
            t += seg.duration
        elif seg.duration > 0.0:
            raise ValueError("toggling-frame weights need instantaneous pulses")
        elif seg.area == math.pi:
            sign = -sign
    return w


def toggling_probability(cfg: SequenceConfig, phases) -> np.ndarray:
    """Survival probability of the prepared level after the decoupled
    sequence with instantaneous pulses, for each residual Zeeman phase
    Phi in phases: |sum_m' exp(i (Phi m' + kappa T m'^2)) c_m'|^2 with
    c_m' = <m|R(phi, pi/2)|m'><m'|R(0, pi/2)|m>."""
    if not cfg.instantaneous_pulses:
        raise ValueError("toggling_probability is the instantaneous-pulse form")
    sys = cfg.sys
    i = sys.index_of(cfg.initial_twice_m)
    c = rotation(sys, cfg.phi, math.pi / 2.0)[i, :] \
        * rotation(sys, 0.0, math.pi / 2.0)[:, i]
    m = sys.m_values
    theta = np.multiply.outer(np.asarray(phases, dtype=float), m) \
        + cfg.kappa * cfg.total_time * m * m
    amp = np.exp(1j * theta) @ c
    return amp.real ** 2 + amp.imag ** 2
