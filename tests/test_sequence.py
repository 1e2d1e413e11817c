import io
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddspin.noise import NoiseModel, NoiseTrace, TimeGrid, delta_trace
from ddspin.sequence import (
    FreeEvolution,
    Pulse,
    PulseSchedule,
    SequenceConfig,
    dd_block_segments,
    dd_block_unitary,
    dd_sequence_schedule,
    default_step,
    fringe_grid,
    fringe_probability,
    integrate_noisy,
    sequence_unitary,
    toggling_probability,
    toggling_weights,
    write_fringe_grid,
)
from ddspin.sensitivity import fringe_period
from ddspin.spin_algebra import SpinSystem, build_angular_momentum_ops, rotation

S72 = SpinSystem(7)
S52 = SpinSystem(5)
S6 = SpinSystem(12)


def _cfg(sys=S72, t_w=150e-6, n_blocks=1, kappa=0.0, phi=math.pi, twice_m=1,
         omega0=math.inf):
    return SequenceConfig(sys, t_w, n_blocks, kappa, phi, twice_m, omega0)


def test_config_validation():
    with pytest.raises(ValueError):
        _cfg(t_w=0.0)
    with pytest.raises(ValueError):
        _cfg(n_blocks=0)
    with pytest.raises(ValueError):
        SequenceConfig(S72, 1e-4, 1, 0.0, 0.0, initial_twice_m=2)
    assert _cfg(n_blocks=3).total_time == pytest.approx(12 * 150e-6)


def test_schedule_shapes():
    with pytest.raises(ValueError):
        Pulse(0.0, 0.0)
    with pytest.raises(ValueError):
        Pulse(0.0, 3 * math.pi)
    with pytest.raises(ValueError):
        FreeEvolution(0.0)
    block = dd_block_segments(1e-4)
    assert [type(s).__name__ for s in block] == \
        ["FreeEvolution", "Pulse", "FreeEvolution", "Pulse", "FreeEvolution"]
    assert block[2].duration == pytest.approx(2e-4)
    assert block[1].area == pytest.approx(math.pi)
    assert block[1].phase == -block[3].phase
    cfg2 = _cfg(n_blocks=2)
    sched = dd_sequence_schedule(cfg2)
    assert len(sched.segments) == 2 + 2 * 5
    # instantaneous pulses: duration is pure Ramsey time 4 n t_w
    assert sched.total_duration == pytest.approx(cfg2.total_time)
    finite = dd_sequence_schedule(_cfg(omega0=2 * math.pi * 50e3))
    assert finite.total_duration > 4 * 150e-6


# --- closed forms ------------------------------------------------------------

def test_block_cancels_linear_phase_for_any_constant_detuning():
    rng = random.Random(5)
    for sys in (S52, S72, S6):
        m = sys.m_values
        for _ in range(30):
            delta = rng.uniform(-2 * math.pi * 2000, 2 * math.pi * 2000)
            kappa = rng.uniform(-2 * math.pi * 200, 2 * math.pi * 200)
            t_w = rng.uniform(20e-6, 500e-6)
            cfg = SequenceConfig(sys, t_w, 1, kappa, 0.0, sys.twice_m_values[0])
            block = dd_block_unitary(cfg, delta).matrix
            reference = np.diag(np.exp(1j * 4 * kappa * t_w * m * m))
            assert np.max(np.abs(block - reference)) <= 1e-12


def test_block_is_identity_without_quadratic_term():
    cfg = _cfg(kappa=0.0)
    assert np.max(np.abs(dd_block_unitary(cfg, 0.0).matrix - np.eye(8))) <= 1e-13
    noisy = dd_block_unitary(cfg, 2 * math.pi * 500).matrix
    assert np.max(np.abs(noisy - np.eye(8))) <= 1e-12


def test_jz_squared_commutes_with_pi_y():
    for sys in (S52, S72, S6):
        jz = build_angular_momentum_ops(sys)[2]
        jz2 = jz @ jz
        u = rotation(sys, math.pi / 2, math.pi)
        assert np.max(np.abs(jz2 @ u - u @ jz2)) <= 1e-13


def test_sequence_unitary_trivial_cases():
    # kappa*T = 0, phi = pi: the pi/2 pulses cancel
    u = sequence_unitary(_cfg(kappa=0.0, phi=math.pi)).matrix
    assert np.max(np.abs(u - np.eye(8))) <= 1e-12
    for tm in S72.twice_m_values:
        assert fringe_probability(S72, tm, 0.0, math.pi) == pytest.approx(1.0)
    # kappa*T = 0, phi = 0: net pi rotation, vanishing diagonal for half-integer J
    u0 = sequence_unitary(_cfg(kappa=0.0, phi=0.0)).matrix
    assert np.max(np.abs(np.diag(u0))) <= 1e-13


def test_blocks_telescope():
    kappa = 2 * math.pi * 123.0
    cfg = _cfg(n_blocks=3, kappa=kappa)
    via_blocks = np.eye(8, dtype=complex)
    single = dd_block_unitary(_cfg(n_blocks=1, kappa=kappa), 2 * math.pi * 77).matrix
    for _ in range(3):
        via_blocks = single @ via_blocks
    m = S72.m_values
    sandwich = np.diag(np.exp(1j * kappa * 12 * 150e-6 * m * m))
    assert np.max(np.abs(via_blocks - sandwich)) <= 1e-12


def test_fringe_probability_range_and_periodicity():
    rng = np.random.default_rng(3)
    for _ in range(50):
        chi = rng.uniform(0, math.pi)
        phi = rng.uniform(0, 2 * math.pi)
        for tm in (-7, -1, 3):
            p = fringe_probability(S72, tm, chi, phi)
            assert 0.0 <= p <= 1.0
            assert fringe_probability(S72, tm, chi + math.pi, phi) == \
                pytest.approx(p, abs=1e-12)


def test_fringe_period_integer_vs_half_integer():
    assert fringe_period(S72) == math.pi
    assert fringe_period(S6) == 2 * math.pi
    # integer J: period 2*pi but not pi
    p0 = fringe_probability(S6, 2, 0.7, 0.9)
    assert fringe_probability(S6, 2, 0.7 + 2 * math.pi, 0.9) == pytest.approx(p0, abs=1e-12)
    assert abs(fringe_probability(S6, 2, 0.7 + math.pi, 0.9) - p0) > 1e-3


def test_fringe_symmetric_in_m():
    chis = np.linspace(0, math.pi, 50)
    phis = np.linspace(0, 2 * math.pi, 50, endpoint=False)
    for tm in (1, 3, 5, 7):
        up = fringe_grid(S72, tm, chis, phis)
        down = fringe_grid(S72, -tm, chis, phis)
        assert np.max(np.abs(up - down)) <= 1e-12


def test_fringe_invariant_under_global_phase():
    # multiplying the evolution by a global phase cannot move populations
    rng = np.random.default_rng(11)
    i = S72.index_of(-3)
    for _ in range(20):
        chi, phi = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
        u = sequence_unitary(_cfg(kappa=chi / _cfg().total_time, phi=phi)).matrix
        phase = np.exp(1j * rng.uniform(0, 2 * math.pi))
        assert abs((phase * u)[i, i]) ** 2 == pytest.approx(abs(u[i, i]) ** 2)


def test_grid_matches_pointwise_calls():
    chis = np.linspace(0, math.pi, 7)
    phis = np.linspace(0, 2 * math.pi, 5, endpoint=False)
    grid = fringe_grid(S52, -3, chis, phis)
    for i, chi in enumerate(chis):
        for k, phi in enumerate(phis):
            assert grid[i, k] == fringe_probability(S52, -3, float(chi), float(phi))
    with pytest.raises(ValueError):
        fringe_grid(S52, -3, [], phis)
    with pytest.raises(ValueError):
        fringe_grid(S52, -3, [1.0, 0.5], phis)


def test_grid_export_format(tmp_path):
    chis = np.linspace(0, math.pi, 3)
    phis = np.linspace(0, 1.0, 2)
    grid = fringe_grid(S52, -3, chis, phis)
    buf = io.StringIO()
    write_fringe_grid(buf, chis, phis, grid, header_lines=["demo"])
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# demo"
    assert lines[1] == "kappaT_rad,phi_rad,probability"
    assert len(lines) == 2 + 6
    x, p, value = lines[2].split(",")
    assert float(value) == grid[0, 0]  # 17 significant digits round-trip


# --- stepped integrator ------------------------------------------------------

def _zero_trace(duration, dt=2e-6):
    grid = TimeGrid(0.0, dt, int(math.ceil(duration / dt)) + 2)
    return NoiseTrace(grid, np.zeros(grid.count))


def _constant_trace(duration, value, dt=2e-6):
    grid = TimeGrid(0.0, dt, int(math.ceil(duration / dt)) + 2)
    return NoiseTrace(grid, np.full(grid.count, value))


def test_integrator_converges_to_closed_form_as_pulses_shorten():
    # the residual is the free evolution acting during the pulses, linear
    # in the pulse time
    kappa = 2 * math.pi * 10.0
    closed = sequence_unitary(_cfg(kappa=kappa, phi=1.1)).matrix
    previous_error = None
    for omega0 in (2 * math.pi * 1e6, 2 * math.pi * 1e8, 2 * math.pi * 1e10):
        cfg = _cfg(kappa=kappa, phi=1.1, omega0=omega0)
        sched = dd_sequence_schedule(cfg)
        trace = _zero_trace(sched.total_duration + 4 * cfg.t_w)
        u = integrate_noisy(cfg, sched, trace, step=cfg.t_w / 50).matrix
        error = np.max(np.abs(u - closed))
        if previous_error is not None:
            assert error < previous_error / 10
        previous_error = error
    assert previous_error <= 1e-6


def test_integrator_echoes_constant_detuning():
    # one block, kappa = 0, finite pulses: residual scales as delta/Omega0
    delta = 2 * math.pi * 300.0
    residuals = []
    for omega0 in (2 * math.pi * 1e8, 2 * math.pi * 1e10, 2 * math.pi * 1e12):
        cfg = SequenceConfig(S72, 150e-6, 1, 0.0, 0.0, 1, rabi_omega0=omega0)
        block = PulseSchedule(dd_block_segments(cfg.t_w, math.pi / cfg.rabi_omega0))
        trace = _constant_trace(8 * cfg.t_w, delta)
        u = integrate_noisy(cfg, block, trace, step=cfg.t_w / 50).matrix
        residuals.append(np.max(np.abs(u - np.eye(8))))
    assert residuals[1] == pytest.approx(residuals[0] / 100, rel=0.05)
    assert residuals[2] <= 1e-8


def test_integrator_instantaneous_block_is_exact_echo():
    delta = 2 * math.pi * 300.0
    cfg = _cfg(kappa=0.0)
    block = PulseSchedule(dd_block_segments(cfg.t_w))
    trace = _constant_trace(8 * cfg.t_w, delta)
    u = integrate_noisy(cfg, block, trace).matrix
    assert np.max(np.abs(u - np.eye(8))) <= 1e-12


@pytest.mark.filterwarnings("ignore:rabi_omega0")
def test_integrator_second_order_in_step():
    # Richardson check on a smooth trace: halving the step shrinks the
    # difference to the fine-step answer by about 4x
    cfg = SequenceConfig(S52, 100e-6, 1, 2 * math.pi * 80, 0.3, -3,
                         rabi_omega0=2 * math.pi * 20e3)
    sched = dd_sequence_schedule(cfg)
    duration = sched.total_duration
    grid = TimeGrid(0.0, 1e-8, int(math.ceil(duration / 1e-8)) + 2)
    slow = 2 * math.pi * 400 * np.sin(2 * math.pi * 450 * grid.times() + 0.4)
    trace = NoiseTrace(grid, slow)
    fine = integrate_noisy(cfg, sched, trace, step=duration / 16384).matrix
    err = []
    for divisor in (512, 1024, 2048):
        u = integrate_noisy(cfg, sched, trace, step=duration / divisor).matrix
        err.append(np.max(np.abs(u - fine)))
    assert err[1] <= err[0] / 2.5
    assert err[2] <= err[1] / 2.5


def test_integrator_validates_trace_and_step():
    cfg = _cfg()
    sched = dd_sequence_schedule(cfg)
    short = _zero_trace(cfg.total_time / 3.0)
    with pytest.raises(ValueError, match="does not cover"):
        integrate_noisy(cfg, sched, short)
    good = _zero_trace(cfg.total_time + 1e-4)
    with pytest.raises(ValueError, match="step"):
        integrate_noisy(cfg, sched, good, step=0.0)


@given(
    kappa_hz=st.floats(-300, 300),
    delta_hz=st.floats(-800, 800),
    phi=st.floats(0, 2 * math.pi),
)
@settings(max_examples=25, deadline=None)
def test_closed_form_unitarity(kappa_hz, delta_hz, phi):
    cfg = _cfg(kappa=2 * math.pi * kappa_hz, phi=phi, n_blocks=2)
    u = sequence_unitary(cfg).matrix
    eye = np.eye(8)
    assert np.max(np.abs(u.conj().T @ u - eye)) <= 1e-12
    b = dd_block_unitary(cfg, 2 * math.pi * delta_hz).matrix
    assert np.max(np.abs(b.conj().T @ b - eye)) <= 1e-12


def test_integrator_unitarity_with_noise():
    cfg = SequenceConfig(S52, 150e-6, 4, 2 * math.pi * 60, 0.7, -3,
                         rabi_omega0=2 * math.pi * 55e3)
    sched = dd_sequence_schedule(cfg)
    model = NoiseModel(ou_sigma=2 * math.pi * 250, ou_tau_c=0.05)
    grid = TimeGrid(0.0, 2e-6, int(math.ceil(sched.total_duration / 2e-6)) + 2)
    trace = delta_trace(model, grid, seed=2)
    u = integrate_noisy(cfg, sched, trace).matrix
    assert np.max(np.abs(u.conj().T @ u - np.eye(6))) <= 1e-10


def test_integrator_finite_pulses_stay_unitary_over_100_blocks():
    cfg = SequenceConfig(S72, 100e-6, 100, 180.0, math.pi, 1,
                         rabi_omega0=2 * math.pi * 20e3)
    sched = dd_sequence_schedule(cfg)
    u = integrate_noisy(cfg, sched, _zero_trace(sched.total_duration)).matrix
    assert np.max(np.abs(u.conj().T @ u - np.eye(8))) <= 1e-14


def _toggling_case(sys, twice_m, n_blocks):
    cfg = SequenceConfig(sys, 120e-6, n_blocks, 2 * math.pi * 35, 0.9, twice_m)
    sched = dd_sequence_schedule(cfg)
    step = default_step(cfg)
    grid = TimeGrid(0.0, step, int(math.ceil(sched.total_duration / step)) + 2)
    return cfg, sched, step, grid


TOGGLING_NOISE = NoiseModel(
    ou_sigma=2 * math.pi * 200, ou_tau_c=2e-3,
    line_harmonics=((50.0, 2 * math.pi * 300, 0.4), (150.0, 2 * math.pi * 60, 1.2)),
    dc_offset=2 * math.pi * 25)


@pytest.mark.parametrize("n_blocks", [1, 20, 55])
def test_toggling_frame_matches_integrator(n_blocks):
    # with instantaneous pulses the toggling-frame phase Phi = w.delta
    # reproduces the stepped integrator on the same trace
    for twice_j in (1, 2, 7, 12):
        sys = SpinSystem(twice_j)
        for twice_m in sys.twice_m_values:
            cfg, sched, step, grid = _toggling_case(sys, twice_m, n_blocks)
            trace = delta_trace(TOGGLING_NOISE, grid,
                                seed=[twice_j, twice_m + twice_j, n_blocks])
            w = toggling_weights(sched, grid, step)
            p = toggling_probability(cfg, [trace.samples @ w])[0]
            u = integrate_noisy(cfg, sched, trace, step).matrix
            i = sys.index_of(twice_m)
            assert abs(p - abs(u[i, i]) ** 2) <= 1e-12


def test_toggling_weights_sign_and_validation():
    cfg, sched, step, grid = _toggling_case(S72, 1, 2)
    w = toggling_weights(sched, grid, step)
    # the toggling sign is +, -, + over the three windows of a block, so a
    # constant detuning cancels
    assert abs(w.sum()) <= 1e-15
    phase = (grid.times() / cfg.t_w) % 4.0
    inner = (w != 0) & (np.abs(phase - 1.0) > 0.1) & (np.abs(phase - 3.0) > 0.1)
    expected = np.where((phase < 1.0) | (phase > 3.0), 1.0, -1.0)
    assert inner.sum() > 0
    assert np.array_equal(np.sign(w[inner]), expected[inner])
    short = TimeGrid(0.0, step, 10)
    with pytest.raises(ValueError, match="does not cover"):
        toggling_weights(sched, short, step)
    with pytest.raises(ValueError, match="step"):
        toggling_weights(sched, grid, 0.0)
    finite = dd_sequence_schedule(_cfg(omega0=2 * math.pi * 50e3))
    with pytest.raises(ValueError, match="instantaneous"):
        toggling_weights(finite, _zero_trace(finite.total_duration).grid, step)
    with pytest.raises(ValueError, match="instantaneous"):
        toggling_probability(_cfg(omega0=2 * math.pi * 50e3), [0.0])


def test_slow_noise_is_cancelled_better():
    # residual linear-Zeeman phase variance after one block drops as the
    # drift correlation time grows at fixed noise power
    t_w = 150e-6
    cfg = SequenceConfig(S72, t_w, 1, 0.0, 0.0, 1)
    block = PulseSchedule(dd_block_segments(t_w))
    i0, i1 = 0, 7  # stretch states carry the largest Zeeman phase
    spreads = []
    for tau_c in (4 * t_w, 40 * t_w, 400 * t_w):
        model = NoiseModel(ou_sigma=2 * math.pi * 300, ou_tau_c=tau_c)
        phases = []
        for seed in range(150):
            grid = TimeGrid(0.0, 2e-6, int(math.ceil(4 * t_w / 2e-6)) + 2)
            trace = delta_trace(model, grid, seed=seed)
            u = integrate_noisy(cfg, block, trace).matrix
            # relative phase between the stretch states, 7 * residual phase
            phases.append(np.angle(u[i1, i1] / u[i0, i0]))
        spreads.append(np.var(phases))
    assert spreads[0] > spreads[1] > spreads[2]
