import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ddspin.noise import (
    NoiseModel,
    NoiseTrace,
    TimeGrid,
    WeightedPhase,
    ac_line_trace,
    decay_survival,
    delta_trace,
    sample_ou_trace,
)


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 0.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 0)
    grid = TimeGrid(1.0, 0.5, 4)
    assert grid.times().tolist() == [1.0, 1.5, 2.0, 2.5]
    assert grid.duration == pytest.approx(1.5)


def test_trace_validation_and_lookup():
    grid = TimeGrid(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        NoiseTrace(grid, np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        NoiseTrace(grid, np.array([1.0, np.inf, 0.0, 0.0]))
    trace = NoiseTrace(grid, np.array([10.0, 20.0, 30.0, 40.0]))
    assert trace.values_at(0.4) == 10.0
    assert trace.values_at(0.6) == 20.0
    assert trace.values_at(99.0) == 40.0   # clamped at the edges
    assert trace.values_at(-5.0) == 10.0


def test_ou_sampler_reproducible_and_degenerate():
    model = NoiseModel(ou_sigma=2 * math.pi * 100, ou_tau_c=0.01, dc_offset=3.0)
    grid = TimeGrid(0.0, 1e-4, 500)
    a = sample_ou_trace(model, grid, seed=123)
    b = sample_ou_trace(model, grid, seed=123)
    assert np.array_equal(a.samples, b.samples)
    c = sample_ou_trace(model, grid, seed=124)
    assert not np.array_equal(a.samples, c.samples)
    quiet = sample_ou_trace(NoiseModel(ou_sigma=0.0, dc_offset=3.0), grid, seed=1)
    assert np.all(quiet.samples == 3.0)


def test_ou_stationary_moments():
    # sample variance of a long stationary trace matches sigma^2 within
    # three standard errors of the variance estimator
    sigma = 2 * math.pi * 250.0
    tau_c = 1e-3
    dt = 1e-3  # one correlation time per step: fast decorrelation
    n = 10 ** 6
    model = NoiseModel(ou_sigma=sigma, ou_tau_c=tau_c)
    trace = sample_ou_trace(model, TimeGrid(0.0, dt, n), seed=777)
    rho = math.exp(-dt / tau_c)
    n_eff = n * (1 - rho) / (1 + rho)
    sample_var = np.var(trace.samples)
    se_var = sigma ** 2 * math.sqrt(2.0 / n_eff)
    assert abs(sample_var - sigma ** 2) <= 3 * se_var


def test_ou_lag_one_autocorrelation():
    sigma = 1.0
    tau_c = 5e-3
    dt = 1e-3
    n = 10 ** 6
    trace = sample_ou_trace(NoiseModel(ou_sigma=sigma, ou_tau_c=tau_c),
                            TimeGrid(0.0, dt, n), seed=2024)
    x = trace.samples
    rho_hat = np.mean(x[:-1] * x[1:]) / np.mean(x * x)
    rho = math.exp(-dt / tau_c)
    se = math.sqrt((1 - rho ** 2) / n)
    assert abs(rho_hat - rho) <= 3 * se


def test_ou_rejects_bad_tau():
    with pytest.raises(ValueError):
        NoiseModel(ou_sigma=1.0, ou_tau_c=0.0)


def test_ac_line_quarter_period():
    amp = 2 * math.pi * 300.0
    model = NoiseModel(line_harmonics=((50.0, amp, 0.0),))
    grid = TimeGrid(5e-3, 1e-3, 1)  # single sample at t = 5 ms
    trace = ac_line_trace(model, grid)
    assert trace.samples[0] == pytest.approx(amp, rel=1e-12)


def test_ac_line_empty_and_linearity():
    grid = TimeGrid(0.0, 1e-4, 64)
    base = NoiseModel(dc_offset=7.0)
    assert np.all(ac_line_trace(base, grid).samples == 7.0)
    one = NoiseModel(line_harmonics=((50.0, 3.0, 0.1),))
    two = NoiseModel(line_harmonics=((150.0, 1.0, 0.7),))
    both = NoiseModel(line_harmonics=one.line_harmonics + two.line_harmonics)
    combined = ac_line_trace(both, grid)
    summed = ac_line_trace(one, grid).samples + ac_line_trace(two, grid).samples
    assert np.allclose(combined.samples, summed, atol=1e-12)


def test_trace_addition_commutes_and_splits():
    grid = TimeGrid(0.0, 1e-4, 256)
    drift_model = NoiseModel(ou_sigma=5.0, ou_tau_c=0.01, dc_offset=2.0)
    line_model = NoiseModel(line_harmonics=((50.0, 3.0, 0.0),))
    drift = sample_ou_trace(drift_model, grid, seed=5).samples
    line = ac_line_trace(line_model, grid).samples
    combined_model = NoiseModel(ou_sigma=5.0, ou_tau_c=0.01, dc_offset=2.0,
                                line_harmonics=line_model.line_harmonics)
    combined = delta_trace(combined_model, grid, seed=5)
    assert np.allclose(combined.samples, drift + line, atol=1e-12)


@pytest.mark.parametrize("model", [
    NoiseModel(ou_sigma=2 * math.pi * 200, ou_tau_c=2e-3,
               line_harmonics=((50.0, 2 * math.pi * 300, 0.4),),
               dc_offset=2 * math.pi * 25),
    NoiseModel(ou_sigma=2 * math.pi * 50, ou_tau_c=1e-5),
    NoiseModel(line_harmonics=((50.0, 2 * math.pi * 300, 0.4),)),
])
def test_weighted_phase_equals_the_trace_sum(model):
    # Phi from the seed's own draws equals w.delta of the trace that
    # delta_trace builds from the same seed; a change of the draw order
    # in _ou_drift breaks this
    grid = TimeGrid(0.0, 2e-6, 3001)
    weights = np.random.default_rng(0).uniform(0.0, 2e-6, grid.count)
    phase = WeightedPhase(model, grid, weights)
    for seed in (1, [7, 3], np.random.SeedSequence(5, spawn_key=(1, 2))):
        expected = delta_trace(model, grid, seed).samples @ weights
        assert phase(seed) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError, match="grid length"):
        WeightedPhase(model, grid, weights[1:])


def test_decay_survival_values():
    assert decay_survival(0.0, 0.39) == 1.0
    assert decay_survival(0.39, 0.39) == pytest.approx(math.exp(-1))
    loss = 1.0 - decay_survival(33e-3, 390e-3)
    assert loss == pytest.approx(1 - math.exp(-33 / 390), rel=1e-12)
    assert abs(loss - 0.085) <= 0.005     # "roughly 8.5%" within half a point
    with pytest.raises(ValueError):
        decay_survival(1.0, 0.0)
    with pytest.raises(ValueError):
        decay_survival(-1.0, 1.0)


@given(t=st.floats(1e-6, 10.0), lifetime=st.floats(0.1, 10.0))
def test_decay_survival_monotone(t, lifetime):
    s = decay_survival(t, lifetime)
    assert 0.0 < s < 1.0
    assert decay_survival(t * 2, lifetime) < s
