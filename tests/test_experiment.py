import io
import math

import numpy as np
import pytest

from ddspin.experiment import (
    FringeWrapError,
    RunConfig,
    calibrate,
    config_echo_lines,
    estimate_kappa,
    load_run_config,
    parse_angle,
    parse_frequency,
    parse_run_config,
    run_experiment,
    simulate_point,
    write_record,
)
from ddspin.noise import NoiseModel
from ddspin.sensitivity import optimal_working_point
from ddspin.sequence import SequenceConfig
from ddspin.sidereal import (
    OMEGA_SIDEREAL_DAY,
    SIDEREAL_DAY_S,
    SiderealModel,
    fit_harmonics,
    read_kappa_record,
)
from ddspin.spin_algebra import SpinSystem

S72 = SpinSystem(7)
REPORT = optimal_working_point(S72, 1, math.pi)


def _sequence(total_time=1.0, kappa=None, twice_m=1):
    kappa = REPORT.chi_m / total_time if kappa is None else kappa
    return SequenceConfig(S72, total_time / 4.0, 1, kappa, math.pi, twice_m)


def _config(n_spins=1, n_trials=200, n_points=1, spacing=3600.0, seed=5,
            injected=None, noise=None, lifetime=math.inf, total_time=1.0):
    return RunConfig(
        sequence=_sequence(total_time),
        noise=noise,
        n_spins=n_spins,
        n_trials_per_point=n_trials,
        timestamps=tuple(spacing * k for k in range(n_points)),
        master_seed=seed,
        lifetime=lifetime,
        injected=injected,
    )


def test_run_config_validation():
    with pytest.raises(ValueError):
        _config(n_spins=0)
    with pytest.raises(ValueError):
        _config(n_trials=0)
    with pytest.raises(ValueError):
        RunConfig(_sequence(), None, 1, 1, (), master_seed=0)
    cfg = _config(n_trials=50)
    assert cfg.tau_per_point == pytest.approx(50 * 1.0)


def test_calibration_brackets_nominal_point():
    cal = calibrate(_sequence())
    assert cal.chi_lo < cal.chi_nominal < cal.chi_hi
    assert cal.branch_width < cal.fringe.period
    # branch ends are fringe extrema
    assert abs(cal.fringe(cal.chi_lo, 1)[1]) <= 1e-6
    assert abs(cal.fringe(cal.chi_hi, 1)[1]) <= 1e-6
    with pytest.raises(ValueError, match="insensitive"):
        calibrate(SequenceConfig(S72, 0.25, 1, 0.0, math.pi, 1))


def test_simulate_point_at_fringe_maximum():
    # kappa*T = 0 is the fringe top: every spin returns to the prepared state
    seq = SequenceConfig(S72, 0.25, 1, 0.0, math.pi, 1)
    cfg = RunConfig(seq, None, n_spins=3, n_trials_per_point=100,
                    timestamps=(0.0,), master_seed=1)
    successes, trials = simulate_point(cfg, 0.0, (1, 0))
    assert (successes, trials) == (300, 300)


def test_simulate_point_binomial_moments():
    # half-fringe point: success fraction within 3 binomial sigma of 1/2
    fringe = calibrate(_sequence()).fringe
    chi_half = None
    for chi in np.linspace(0.01, 0.3, 400):
        if abs(fringe(float(chi)) - 0.5) < 2e-3:
            chi_half = float(chi)
            break
    assert chi_half is not None
    seq = SequenceConfig(S72, 0.25, 1, chi_half, math.pi, 1)
    cfg = RunConfig(seq, None, n_spins=1, n_trials_per_point=10 ** 6,
                    timestamps=(0.0,), master_seed=3)
    successes, trials = simulate_point(cfg, 0.0, (3, 0))
    p_true = fringe(chi_half)
    spread = 3 * math.sqrt(0.25 / 10 ** 6)
    assert abs(successes / trials - p_true) <= spread + 2e-3


def test_simulate_point_decay_contrast_deficit():
    # 33 ms interrogation with a 390 ms lifetime: the fringe-top population
    # drops by the survival deficit, about 8.1%
    t_w = 33e-3 / 4.0
    seq = SequenceConfig(S72, t_w, 1, 0.0, math.pi, 1)
    cfg = RunConfig(seq, None, n_spins=1, n_trials_per_point=2 * 10 ** 5,
                    timestamps=(0.0,), master_seed=4, lifetime=390e-3)
    successes, trials = simulate_point(cfg, 0.0, (4, 0))
    survival = math.exp(-33.0 / 390.0)
    expected = survival * 1.0 + (1 - survival) / 8.0
    assert successes / trials == pytest.approx(expected, abs=3e-3)
    deficit = 1.0 - survival
    assert deficit == pytest.approx(0.081, abs=0.005)


def test_estimate_kappa_inverts_exactly():
    cal = calibrate(_sequence())
    chi_true = cal.chi_nominal + 0.03
    p = cal.fringe(chi_true)
    big = 10 ** 12
    kappa_hat, _ = estimate_kappa(round(p * big), big, cal)
    assert abs(kappa_hat * cal.total_time - chi_true) <= 1e-10 + 1.0 / big * 10


def test_estimate_kappa_wrap_flagging():
    cal = calibrate(_sequence())
    f_lo, f_hi = cal.fringe(cal.chi_lo), cal.fringe(cal.chi_hi)
    # the branch top sits at the fringe maximum (P = 1), so leave through
    # the bottom
    below = min(f_lo, f_hi) - 0.01
    assert below > 0
    with pytest.raises(FringeWrapError):
        estimate_kappa(round(below * 1000), 1000, cal)
    with pytest.raises(ValueError):
        estimate_kappa(11, 10, cal)


def test_estimate_sigma_matches_monte_carlo():
    cfg = _config(n_trials=400)
    cal = calibrate(cfg.sequence)
    estimates = []
    sigmas = []
    for k in range(1000):
        successes, trials = simulate_point(cfg, 0.0, (123, k))
        kappa_hat, sigma = estimate_kappa(successes, trials, cal)
        estimates.append(kappa_hat)
        sigmas.append(sigma)
    empirical = float(np.std(estimates))
    reported = float(np.mean(sigmas))
    assert empirical == pytest.approx(reported, rel=0.15)


def test_sigma_scales_with_spin_number():
    sigmas = {}
    for n_spins in (1, 4, 16):
        cfg = _config(n_spins=n_spins, n_trials=300)
        cal = calibrate(cfg.sequence)
        successes, trials = simulate_point(cfg, 0.0, (9, n_spins))
        _, sigma = estimate_kappa(successes, trials, cal)
        sigmas[n_spins] = sigma
    assert sigmas[4] == pytest.approx(sigmas[1] / 2.0, rel=0.25)
    assert sigmas[16] == pytest.approx(sigmas[1] / 4.0, rel=0.25)


def test_run_experiment_matches_pointwise_estimates():
    # three trials per point: some points leave the branch through p_hat = 0
    record = run_experiment(_config(n_points=40, n_trials=3))
    cal = calibrate(record.config.sequence)
    assert 0 < record.n_wrapped < 40
    for k in range(40):
        if record.wrapped[k]:
            assert np.isnan(record.kappa_hat[k]) and np.isnan(record.sigma[k])
            with pytest.raises(FringeWrapError):
                estimate_kappa(record.successes[k], record.trials[k], cal)
        else:
            assert (record.kappa_hat[k], record.sigma[k]) == \
                estimate_kappa(record.successes[k], record.trials[k], cal)


def test_run_experiment_with_noise_and_injection():
    noise = NoiseModel(line_harmonics=((50.0, 2 * math.pi * 200.0, 0.0),))
    injected = SiderealModel(harmonics=((OMEGA_SIDEREAL_DAY, 0.01, 0.0),))
    seq = SequenceConfig(S72, 2e-4, 1, REPORT.chi_m / 8e-4, math.pi, 1)
    cfg = RunConfig(seq, noise, n_spins=1, n_trials_per_point=8,
                    timestamps=(0.0, 3600.0), master_seed=42,
                    injected=injected)
    record = run_experiment(cfg)
    assert record.trials.tolist() == [8, 8]
    assert record.successes.tolist() == [2, 5]   # pinned at a fixed seed
    repeat = run_experiment(cfg)
    assert np.array_equal(record.successes, repeat.successes)


def test_correlated_noise_option():
    from dataclasses import replace

    noise = NoiseModel(ou_sigma=2 * math.pi * 400.0, ou_tau_c=0.05)
    seq = SequenceConfig(S72, 2e-4, 1, REPORT.chi_m / 8e-4, math.pi, 1)
    base = RunConfig(seq, noise, n_spins=1, n_trials_per_point=6,
                     timestamps=(0.0,), master_seed=13)
    shared = replace(base, correlate_noise=True)
    a = simulate_point(base, 0.0, (13, 0))
    b = simulate_point(shared, 0.0, (13, 0))
    # both are deterministic; repeated calls reproduce them
    assert simulate_point(base, 0.0, (13, 0)) == a
    assert simulate_point(shared, 0.0, (13, 0)) == b
    # explicit step override is honored
    stepped = replace(base, step=5e-6)
    assert simulate_point(stepped, 0.0, (13, 0))[1] == 6
    # counts pinned at fixed seeds, per-trial and shared noise and the
    # step override, with 1 and 100 spins per trial
    assert (a, b, simulate_point(stepped, 0.0, (13, 0))) == ((3, 6), (5, 6), (2, 6))
    many = replace(base, n_spins=100)
    assert simulate_point(many, 0.0, (13, 0)) == (288, 600)
    shared_many = replace(many, correlate_noise=True)
    assert simulate_point(shared_many, 0.0, (13, 0)) == (308, 600)
    assert simulate_point(replace(many, step=5e-6), 0.0, (13, 0)) == (293, 600)


def test_noisy_decay_counts_are_pinned():
    # J = 7/2, 20 blocks, OU + mains + dc offset with decay, at three seeds
    seq = SequenceConfig(S72, 1e-4, 20, REPORT.chi_m / 8e-3, math.pi, 1)
    noise = NoiseModel(ou_sigma=2 * math.pi * 30.0, ou_tau_c=0.02,
                       line_harmonics=((50.0, 2 * math.pi * 100.0, 0.3),),
                       dc_offset=2 * math.pi * 5.0)
    cfg = RunConfig(seq, noise, n_spins=50, n_trials_per_point=10,
                    timestamps=(0.0,), master_seed=7, lifetime=0.05)
    counts = [simulate_point(cfg, 0.0, (s, 0)) for s in (1, 2, 3)]
    assert counts == [(229, 500), (241, 500), (237, 500)]


def test_wrap_free_when_kappa_stays_on_branch():
    injected = SiderealModel(harmonics=((OMEGA_SIDEREAL_DAY, 0.02, 0.0),))
    cfg = _config(n_points=24, spacing=SIDEREAL_DAY_S / 24, n_trials=400,
                  injected=injected)
    record = run_experiment(cfg)
    assert record.n_wrapped == 0


def test_record_round_trip(tmp_path):
    cfg = _config(n_points=6, n_trials=100)
    record = run_experiment(cfg)
    buf = io.StringIO()
    write_record(buf, record)
    path = tmp_path / "record.csv"
    path.write_text(buf.getvalue())
    t, kappa, sigma = read_kappa_record(path)
    valid_t, valid_k, valid_s = record.valid()
    assert np.allclose(t, valid_t)
    assert np.allclose(kappa, valid_k, rtol=1e-15)
    assert np.allclose(sigma, valid_s, rtol=1e-15)
    header = buf.getvalue().splitlines()[0]
    assert header.startswith("#")


def test_injection_recovery_through_fit():
    injected_amp = 0.02
    injected = SiderealModel(harmonics=((OMEGA_SIDEREAL_DAY, injected_amp, 0.0),))
    cfg = _config(n_points=48, spacing=SIDEREAL_DAY_S / 16, n_trials=500,
                  seed=31, injected=injected)
    record = run_experiment(cfg)
    t, kappa, sigma = record.valid()
    fit = fit_harmonics(t, kappa, sigma, [OMEGA_SIDEREAL_DAY])
    assert abs(fit.cos_amplitude(0) - injected_amp) <= 3 * fit.cos_sigma(0)


# --- config file parsing ------------------------------------------------------

CONFIG_TEXT = """
# example configuration
j = 7/2
initial_m = 1/2
t_w_s = 0.25
n_blocks = 1
kappa_rad_s = 0.15
phi_rad = pi
n_spins = 2
n_trials_per_point = 100
lifetime_s = 0.39
ou_sigma_hz = 10
ou_tau_c_s = 5
line_harmonics = 50:300:0, 150:40:pi/2
dc_offset_hz = 1
timestamps_start_s = 0
timestamps_step_s = 1800
timestamps_count = 4
inject_harmonics = sidereal-day:0.001:0
master_seed = 77
"""


def test_parse_angle_and_frequency():
    assert parse_angle("pi") == math.pi
    assert parse_angle("-pi/2") == -math.pi / 2
    assert parse_angle("0.5pi") == math.pi / 2
    assert parse_angle("2pi") == 2 * math.pi
    assert parse_angle("1.25") == 1.25
    with pytest.raises(ValueError):
        parse_angle("pi*2")
    assert parse_frequency("sidereal-day") == OMEGA_SIDEREAL_DAY
    assert parse_frequency("7.3e-5") == 7.3e-5


def test_parse_run_config():
    cfg = parse_run_config(CONFIG_TEXT.splitlines())
    assert cfg.sequence.sys.twice_j == 7
    assert cfg.sequence.initial_twice_m == 1
    assert cfg.sequence.phi == math.pi
    assert cfg.noise.ou_sigma == pytest.approx(2 * math.pi * 10)
    assert cfg.noise.line_harmonics[1] == (150.0, 2 * math.pi * 40.0, math.pi / 2)
    assert cfg.noise.dc_offset == pytest.approx(2 * math.pi)
    assert len(cfg.timestamps) == 4 and cfg.timestamps[-1] == 5400.0
    assert cfg.injected.harmonics[0][0] == OMEGA_SIDEREAL_DAY
    assert cfg.master_seed == 77
    assert cfg.lifetime == 0.39


def test_parse_run_config_rejects_unknown_and_missing():
    with pytest.raises(ValueError, match="missing required"):
        parse_run_config(["j = 7/2"])
    bad = CONFIG_TEXT + "\nmystery_key = 3\n"
    with pytest.raises(ValueError, match="unknown keys: mystery_key"):
        parse_run_config(bad.splitlines())


def test_config_echo_round_trips(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG_TEXT)
    cfg = load_run_config(path)
    echoed = config_echo_lines(cfg)
    # the echo is itself a loadable configuration
    echo_cfg = parse_run_config(
        [line for line in echoed
         if not line.startswith(("ramsey_time_s", "n_points"))]
        + [f"timestamps = {','.join(str(t) for t in cfg.timestamps)}"])
    assert echo_cfg.sequence == cfg.sequence
    assert echo_cfg.noise == cfg.noise
    assert echo_cfg.injected == cfg.injected
    assert echo_cfg.correlate_noise == cfg.correlate_noise
    assert echo_cfg.lifetime == cfg.lifetime
