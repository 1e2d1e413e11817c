import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddspin.sidereal import (
    OMEGA_ANNUAL,
    OMEGA_SIDEREAL_DAY,
    OMEGA_SIDEREAL_HALF_DAY,
    SIDEREAL_DAY_S,
    SOLAR_DAY_S,
    SiderealModel,
    bound_tensor_coefficient,
    fit_harmonics,
    kappa_timeseries,
    read_kappa_record,
    write_fit_report,
)
from ddspin.spin_algebra import IonSpecies, tensor_kappa

YB = IonSpecies("Yb+", 69, "4f^13 6s^2", 7, 135.0)


def test_default_frequencies():
    day, half_day, annual = OMEGA_SIDEREAL_DAY, OMEGA_SIDEREAL_HALF_DAY, OMEGA_ANNUAL
    assert day == pytest.approx(2 * math.pi / 86164.0905, rel=1e-12)
    assert half_day == pytest.approx(2 * day)
    assert annual == pytest.approx(2 * math.pi / (365.25636 * 86400), rel=1e-12)


def test_timeseries_basics():
    model = SiderealModel(kappa_static=5.0)
    assert kappa_timeseries(model, 123.0) == 5.0
    cosine = SiderealModel(kappa_static=5.0,
                           harmonics=((OMEGA_SIDEREAL_DAY, 2.0, 0.0),))
    quarter = SIDEREAL_DAY_S / 4.0
    assert kappa_timeseries(cosine, quarter) == pytest.approx(5.0, abs=1e-9)
    values = kappa_timeseries(cosine, np.array([0.0, quarter]))
    assert values[0] == pytest.approx(7.0)


def test_sidereal_not_solar_period():
    model = SiderealModel(harmonics=((OMEGA_SIDEREAL_DAY, 1.0, 0.0),))
    t = 12345.6
    after_sidereal = kappa_timeseries(model, t + SIDEREAL_DAY_S)
    after_solar = kappa_timeseries(model, t + SOLAR_DAY_S)
    assert after_sidereal == pytest.approx(kappa_timeseries(model, t), abs=1e-12)
    slip = 2 * math.pi * (SOLAR_DAY_S - SIDEREAL_DAY_S) / SIDEREAL_DAY_S
    assert abs(after_solar - kappa_timeseries(model, t)) > 0.1 * abs(slip)


def _uniform_record(model, n, span, sigma, seed=None):
    t = np.linspace(0.0, span, n)
    y = kappa_timeseries(model, t)
    if seed is not None:
        y = y + np.random.default_rng(seed).normal(0.0, sigma, size=n)
    return t, y, np.full(n, sigma)


def test_fit_recovers_noiseless_model_exactly():
    model = SiderealModel(
        kappa_static=3.0,
        harmonics=((OMEGA_SIDEREAL_DAY, 0.4, -0.7),
                   (OMEGA_SIDEREAL_HALF_DAY, -0.2, 0.05)),
    )
    t, y, s = _uniform_record(model, 200, 5 * SIDEREAL_DAY_S, 1.0)
    fit = fit_harmonics(t, y, s, [OMEGA_SIDEREAL_DAY, OMEGA_SIDEREAL_HALF_DAY])
    assert fit.static_term == pytest.approx(3.0, rel=1e-10)
    assert fit.cos_amplitude(0) == pytest.approx(0.4, rel=1e-10)
    assert fit.sin_amplitude(0) == pytest.approx(-0.7, rel=1e-10)
    assert fit.cos_amplitude(1) == pytest.approx(-0.2, rel=1e-10)
    assert fit.sin_amplitude(1) == pytest.approx(0.05, rel=1e-10)
    assert fit.chi_squared == pytest.approx(0.0, abs=1e-18)
    assert fit.dof == 200 - 5


def test_fit_amplitude_standard_error_oracle():
    # white noise sigma0, uniform sampling over many periods:
    # se(A) ~= sigma0 * sqrt(2/n)
    sigma0 = 0.3
    n = 400
    model = SiderealModel(harmonics=((OMEGA_SIDEREAL_DAY, 0.1, 0.0),))
    t, y, s = _uniform_record(model, n, 10 * SIDEREAL_DAY_S, sigma0, seed=4)
    fit = fit_harmonics(t, y, s, [OMEGA_SIDEREAL_DAY])
    expected = sigma0 * math.sqrt(2.0 / n)
    assert fit.cos_sigma(0) == pytest.approx(expected, rel=0.2)
    assert fit.sin_sigma(0) == pytest.approx(expected, rel=0.2)


def test_fit_monte_carlo_coverage():
    # injected amplitude three standard errors above zero is recovered
    # within 3 sigma in at least 99% of seeded trials
    sigma0 = 1.0
    n = 120
    span = 6 * SIDEREAL_DAY_S
    se = sigma0 * math.sqrt(2.0 / n)
    injected = 3.0 * se
    model = SiderealModel(harmonics=((OMEGA_SIDEREAL_DAY, injected, 0.0),))
    hits = 0
    trials = 1000
    for seed in range(trials):
        t, y, s = _uniform_record(model, n, span, sigma0, seed=seed)
        fit = fit_harmonics(t, y, s, [OMEGA_SIDEREAL_DAY])
        if abs(fit.cos_amplitude(0) - injected) <= 3.0 * fit.cos_sigma(0):
            hits += 1
    assert hits >= 0.99 * trials


def test_fit_equivariance_under_constant_shift():
    model = SiderealModel(kappa_static=1.0,
                          harmonics=((OMEGA_SIDEREAL_DAY, 0.3, 0.2),))
    t, y, s = _uniform_record(model, 90, 3 * SIDEREAL_DAY_S, 0.5, seed=11)
    fit = fit_harmonics(t, y, s, [OMEGA_SIDEREAL_DAY])
    shifted = fit_harmonics(t, y + 42.0, s, [OMEGA_SIDEREAL_DAY])
    assert shifted.static_term == pytest.approx(fit.static_term + 42.0, rel=1e-9)
    assert shifted.cos_amplitude(0) == pytest.approx(fit.cos_amplitude(0), abs=1e-9)
    assert shifted.sin_amplitude(0) == pytest.approx(fit.sin_amplitude(0), abs=1e-9)


@given(shift=st.floats(-2 * SIDEREAL_DAY_S, 2 * SIDEREAL_DAY_S))
@settings(max_examples=20, deadline=None)
def test_quadrature_amplitude_invariant_under_epoch_shift(shift):
    model = SiderealModel(kappa_static=0.3,
                          harmonics=((OMEGA_SIDEREAL_DAY, 0.4, -0.1),))
    t, y, s = _uniform_record(model, 100, 4 * SIDEREAL_DAY_S, 0.2, seed=3)
    base = fit_harmonics(t, y, s, [OMEGA_SIDEREAL_DAY], t0=0.0)
    moved = fit_harmonics(t, y, s, [OMEGA_SIDEREAL_DAY], t0=shift)
    assert moved.quadrature_amplitude(0) == \
        pytest.approx(base.quadrature_amplitude(0), rel=1e-8)
    # individual amplitudes rotate by the epoch phase
    angle = OMEGA_SIDEREAL_DAY * shift
    rotated_cos = (math.cos(angle) * base.cos_amplitude(0)
                   + math.sin(angle) * base.sin_amplitude(0))
    assert moved.cos_amplitude(0) == pytest.approx(rotated_cos, abs=1e-8)


def test_covariance_shrinks_with_sample_size():
    model = SiderealModel(harmonics=((OMEGA_SIDEREAL_DAY, 0.1, 0.1),))
    t1, y1, s1 = _uniform_record(model, 100, 4 * SIDEREAL_DAY_S, 1.0, seed=8)
    t4, y4, s4 = _uniform_record(model, 400, 4 * SIDEREAL_DAY_S, 1.0, seed=9)
    var1 = fit_harmonics(t1, y1, s1, [OMEGA_SIDEREAL_DAY]).covariance[1, 1]
    var4 = fit_harmonics(t4, y4, s4, [OMEGA_SIDEREAL_DAY]).covariance[1, 1]
    assert var4 == pytest.approx(var1 / 4.0, rel=0.1)


def test_fit_validation():
    t = np.zeros(9)
    y = np.zeros(9)
    s = np.ones(9)
    with pytest.raises(ValueError, match="ill-conditioned"):
        fit_harmonics(t, y, s, [OMEGA_SIDEREAL_DAY])
    with pytest.raises(ValueError, match="at least"):
        fit_harmonics(np.arange(3.0), np.zeros(3), np.ones(3),
                      [OMEGA_SIDEREAL_DAY])
    with pytest.raises(ValueError, match="sigmas"):
        fit_harmonics(np.arange(9.0), y, np.zeros(9), [OMEGA_SIDEREAL_DAY])
    # record much shorter than the requested period is ill-conditioned
    t_short = np.linspace(0, 60.0, 12)
    with pytest.raises(ValueError, match="condition number"):
        fit_harmonics(t_short, np.zeros(12), np.ones(12), [OMEGA_ANNUAL])


def test_bound_tensor_coefficient_examples():
    sigma_amp = 2 * math.pi * 5.1e-3 / math.sqrt(2)
    t = np.linspace(0, 4 * SIDEREAL_DAY_S, 200)
    model = SiderealModel()
    y = kappa_timeseries(model, t)
    scale = sigma_amp / math.sqrt(2.0 / 200)
    fit = fit_harmonics(t, y, np.full(200, scale), [OMEGA_SIDEREAL_DAY])
    z_one_sigma = 0.6826894921370859
    bounds = bound_tensor_coefficient(fit, YB, z_one_sigma)
    expected = fit.quadrature_sigma(0) / tensor_kappa(YB, 1.0)
    assert bounds[0] == pytest.approx(expected, rel=1e-9)
    assert bounds[0] == pytest.approx(1e-18, rel=0.25)
    assert bound_tensor_coefficient(fit, YB, 0.0)[0] == 0.0
    double = IonSpecies("Yb2x", 69, "x", 7, 270.0)
    assert bound_tensor_coefficient(fit, double, z_one_sigma)[0] == \
        pytest.approx(bounds[0] / 2, rel=1e-12)


def test_record_io_and_report(tmp_path):
    path = tmp_path / "record.csv"
    path.write_text(
        "# comment\n"
        "t_unix_s,kappa_rad_per_s,sigma_rad_per_s\n"
        "0.0,1.0,0.1\n"
        "3600.0,1.1,0.1\n"
    )
    t, y, s = read_kappa_record(path)
    assert t.tolist() == [0.0, 3600.0]
    assert y.tolist() == [1.0, 1.1]

    bad = tmp_path / "bad.csv"
    bad.write_text("0.0,1.0,0.1\n3600.0,1.1\n")
    with pytest.raises(ValueError, match="bad.csv:2"):
        read_kappa_record(bad)

    model = SiderealModel(harmonics=((OMEGA_SIDEREAL_DAY, 0.2, 0.1),))
    tt, yy, ss = _uniform_record(model, 60, 3 * SIDEREAL_DAY_S, 0.3, seed=2)
    fit = fit_harmonics(tt, yy, ss, [OMEGA_SIDEREAL_DAY])
    buf = io.StringIO()
    write_fit_report(buf, fit, bound_tensor_coefficient(fit, YB, 0.95), "Yb+")
    text = buf.getvalue()
    assert "quad_amp_0_rad_per_s" in text
    assert "tensor_bound_0" in text
    assert "covariance_row_2" in text
