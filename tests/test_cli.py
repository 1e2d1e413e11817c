import math

import numpy as np
import pytest

from ddspin.cli import main
from ddspin.sensitivity import entangled_benchmark, optimal_working_point
from ddspin.sequence import fringe_probability
from ddspin.sidereal import OMEGA_SIDEREAL_DAY, fit_harmonics, read_kappa_record
from ddspin.spin_algebra import SpinSystem, default_species_table, tensor_level_shift

RUN_CFG = """
j = 7/2
initial_m = 1/2
t_w_s = 0.25
n_blocks = 1
kappa_rad_s = 0.15
phi_rad = pi
n_spins = 1
n_trials_per_point = 150
timestamps_start_s = 0
timestamps_step_s = 5400
timestamps_count = 32
master_seed = 9
"""


def _run(*argv):
    return main(list(argv))


def test_fringe_grid_file_matches_library(tmp_path):
    out = tmp_path / "grid.csv"
    code = _run("fringe", "--J", "7/2", "--m", "-7/2",
                "--kt-points", "9", "--phi-points", "8", "--out", str(out))
    assert code == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "kappaT_rad,phi_rad,probability"
    assert len(lines) == 1 + 9 * 8
    sys = SpinSystem(7)
    for row in lines[1:]:
        kt, phi, p = (float(x) for x in row.split(","))
        assert 0.0 <= kt <= math.pi
        assert 0.0 <= phi < 2 * math.pi
        assert p == fringe_probability(sys, -7, kt, phi)


def test_fringe_default_grid_covers_one_period(tmp_path):
    out = tmp_path / "default.csv"
    assert _run("fringe", "--J", "5/2", "--m", "-3/2", "--out", str(out)) == 0
    rows = [l.split(",") for l in out.read_text().splitlines()
            if l and not l.startswith(("#", "kappaT"))]
    kts = sorted({float(r[0]) for r in rows})
    phis = sorted({float(r[1]) for r in rows})
    assert kts[0] == 0.0 and kts[-1] == pytest.approx(math.pi)
    assert phis[0] == 0.0 and phis[-1] < 2 * math.pi
    assert all(0.0 <= float(r[2]) <= 1.0 for r in rows)


def test_fringe_slice_marks_working_point(tmp_path):
    out = tmp_path / "slice.csv"
    assert _run("fringe", "--J", "7/2", "--m", "-1/2", "--slice", "phi=pi",
                "--kt-points", "33", "--out", str(out)) == 0
    text = out.read_text()
    report = optimal_working_point(SpinSystem(7), -1, math.pi)
    marked = [l for l in text.splitlines() if l.startswith("# chi_m_rad")]
    assert len(marked) == 1
    assert float(marked[0].split("=")[1]) == pytest.approx(report.chi_m, rel=1e-6)


def test_fringe_usage_errors():
    assert _run("fringe", "--J", "7/2", "--m", "-7/2", "--kt-points", "0") == 1
    # fringe reads neither an output format nor a thread count
    assert _run("fringe", "--J", "7/2", "--m", "-7/2", "--format", "kv") == 1
    assert _run("fringe", "--J", "7/2", "--m", "-7/2", "--threads", "8") == 1
    assert _run("fringe", "--J", "7/2") == 1          # missing --m
    assert _run("fringe", "--J", "7/3", "--m", "1/2") == 1


def test_table_matches_library(tmp_path):
    out = tmp_path / "table.csv"
    assert _run("table", "--out", str(out)) == 0
    rows = [l for l in out.read_text().splitlines()
            if l and not l.startswith(("#", "label"))]
    species = default_species_table()
    assert len(rows) == len(species)
    by_label = {sp.label: sp for sp in species}
    for row in rows:
        label, twice_j, me, shift, kappa_hz = row.split(",")
        sp = by_label[label]
        tm_lo = 1 if sp.twice_j % 2 else 0
        assert float(shift) == tensor_level_shift(sp, sp.twice_j, tm_lo, 1.0)
    yb = [r for r in rows if r.startswith("Yb+")][0]
    assert float(yb.split(",")[3]) == pytest.approx(6.1e16, rel=0.02)


def test_table_scale_linearity(tmp_path):
    one = tmp_path / "c1.csv"
    two = tmp_path / "c2.csv"
    assert _run("table", "--coefficient", "1.0", "--out", str(one)) == 0
    assert _run("table", "--coefficient", "2.0", "--out", str(two)) == 0
    shift1 = [float(l.split(",")[3]) for l in one.read_text().splitlines()
              if l and not l.startswith(("#", "label"))]
    shift2 = [float(l.split(",")[3]) for l in two.read_text().splitlines()
              if l and not l.startswith(("#", "label"))]
    assert np.allclose(shift2, [2 * s for s in shift1], rtol=1e-14)


def test_table_empty_species_is_validation_error(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("# nothing\n")
    assert _run("table", "--species-file", str(empty)) == 2


def test_sensitivity_command(tmp_path):
    out = tmp_path / "sens.kv"
    assert _run("sensitivity", "--J", "7/2", "--m", "1/2,3/2,5/2,7/2",
                "--phi", "pi", "--compare-entangled", "--N", "2",
                "--out", str(out)) == 0
    text = out.read_text()
    for tm in (1, 3, 5, 7):
        report = optimal_working_point(SpinSystem(7), tm, math.pi)
        assert f"{report.delta_kappa_coeff:.17g}" in text
    bench = entangled_benchmark(2)
    assert f"{bench.delta_kappa_coeff:.17g}" in text
    assert _run("sensitivity", "--J", "7/2", "--m", "1/2", "--N", "0") == 1


def test_sensitivity_csv_output(tmp_path):
    out = tmp_path / "sens.csv"
    assert _run("sensitivity", "--J", "7/2", "--m", "1/2,7/2", "--N", "3",
                "--tau", "7", "--T", "0.5", "--compare-entangled",
                "--format", "csv", "--out", str(out)) == 0
    expected = ["# command = sensitivity",
                f"# J = 7/2, phi = {math.pi:.17g}",
                "# N = 3, tau = 7, T = 0.5",
                "twice_m,chi_m_rad,delta_kappa_coeff_rad,delta_kappa_rad_per_s"]
    for tm in (1, 7):
        report = optimal_working_point(SpinSystem(7), tm, math.pi)
        c = report.delta_kappa_coeff
        expected.append(f"{tm},{report.chi_m:.17g},{c:.17g},"
                        f"{c / math.sqrt(3 * 7 * 0.5):.17g}")
    # An odd N compares against the smallest entangled register, N = 2.
    c = entangled_benchmark(2).delta_kappa_coeff
    expected.append(f"entangled,0,{c:.17g},{c / math.sqrt(7 * 0.5):.17g}")
    assert out.read_text() == "\n".join(expected) + "\n"


def test_simulate_round_trip_and_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(RUN_CFG)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert _run("simulate", "--config", str(cfg), "--out", str(out1)) == 0
    assert _run("simulate", "--config", str(cfg), "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    t, kappa, sigma = read_kappa_record(out1)
    assert len(t) == 32
    assert np.all(sigma > 0)
    # CLI output equals the direct library pipeline
    from ddspin.experiment import load_run_config, run_experiment
    record = run_experiment(load_run_config(cfg))
    assert np.allclose(kappa, record.valid()[1], rtol=1e-15)


def test_simulate_reruns_from_its_own_header(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(RUN_CFG.replace("n_blocks = 1", "n_blocks = 2")
                   .replace("kappa_rad_s = 0.15", "kappa_rad_s = 0.075")
                   + "ou_sigma_hz = 0.01\ndc_offset_hz = 0.02\n"
                   "line_harmonics = 50:0.01:0.3\nlifetime_s = 20\n"
                   "correlate_noise = yes\n"
                   "inject_harmonics = sidereal-day:0.01:0.002\n")
    first = tmp_path / "first.csv"
    assert _run("simulate", "--config", str(cfg), "--seed", "4", "--out", str(first)) == 0
    rebuilt = tmp_path / "rebuilt.cfg"
    rebuilt.write_text("".join(
        line[2:] for line in first.read_text().splitlines(keepends=True)
        if line.startswith("# ")
        and not line.startswith(("# command =", "# wrapped_excluded ="))))
    second = tmp_path / "second.csv"
    assert _run("simulate", "--config", str(rebuilt), "--out", str(second)) == 0
    assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("bad", [
    "timestamps_step_s = nan", "correlate_noise = ture", "step_s = 0",
    "n_blocks = 2.5", "t_w_s = abc"])
def test_simulate_bad_value_names_path_line_and_key(tmp_path, capsys, bad):
    key = bad.partition(" = ")[0]
    lines = [line for line in RUN_CFG.splitlines()
             if not line.startswith(key + " =")] + [bad]
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    assert _run("simulate", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    assert f"{cfg}:{len(lines)}: {key}: " in capsys.readouterr().err


def test_simulate_repeated_key_is_an_error(tmp_path, capsys):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text(RUN_CFG + "n_spins = 2\n")
    assert _run("simulate", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    assert f"{cfg}:14: n_spins given twice (first on line 8)" in capsys.readouterr().err


def test_simulate_seed_zero_overrides_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(RUN_CFG)
    zero_cfg = tmp_path / "zero.cfg"
    zero_cfg.write_text(RUN_CFG.replace("master_seed = 9", "master_seed = 0"))
    overridden = tmp_path / "overridden.csv"
    direct = tmp_path / "direct.csv"
    kept = tmp_path / "kept.csv"
    assert _run("simulate", "--config", str(cfg), "--seed", "0",
                "--out", str(overridden)) == 0
    assert _run("simulate", "--config", str(zero_cfg), "--out", str(direct)) == 0
    assert _run("simulate", "--config", str(cfg), "--out", str(kept)) == 0
    assert "# master_seed = 0\n" in overridden.read_text()
    assert overridden.read_bytes() == direct.read_bytes()
    assert "# master_seed = 9\n" in kept.read_text()


def test_simulate_negative_seed_names_master_seed(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(RUN_CFG)
    assert _run("simulate", "--config", str(cfg), "--seed", "-1",
                "--out", str(tmp_path / "o")) == 2
    assert "master_seed" in capsys.readouterr().err


def test_simulate_long_finite_pulse_sequence(tmp_path):
    # 20 blocks of finite pulses at 2 pi x 20 kHz: the running product of
    # ~2,000 pulse steps used to drift past the 1e-12 unitarity check
    cfg = tmp_path / "finite.cfg"
    cfg.write_text(RUN_CFG
                   .replace("t_w_s = 0.25", "t_w_s = 1e-4")
                   .replace("n_blocks = 1", "n_blocks = 20")
                   .replace("kappa_rad_s = 0.15", "kappa_rad_s = 180")
                   .replace("n_trials_per_point = 150", "n_trials_per_point = 2")
                   .replace("timestamps_count = 32", "timestamps_count = 1")
                   + "rabi_omega0_rad_s = 125663.7\n")
    out = tmp_path / "finite.csv"
    assert _run("simulate", "--config", str(cfg), "--out", str(out)) == 0
    assert "# n_blocks = 20\n" in out.read_text()


def test_simulate_missing_config_and_bad_config(tmp_path):
    assert _run("simulate", "--config", str(tmp_path / "nope.cfg")) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("j = 7/2\n")
    assert _run("simulate", "--config", str(bad)) == 2


def test_fit_command_null_consistency(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(RUN_CFG)
    record = tmp_path / "rec.csv"
    assert _run("simulate", "--config", str(cfg), "--out", str(record)) == 0
    report = tmp_path / "fit.kv"
    assert _run("fit", "--record", str(record), "--frequencies", "sidereal-day",
                "--species", "Yb+", "--confidence", "0.95",
                "--out", str(report)) == 0
    entries = dict(
        line.split(" = ") for line in report.read_text().splitlines()
        if " = " in line and not line.startswith("#"))
    amp = float(entries["quad_amp_0_rad_per_s"])
    sig = float(entries["quad_sigma_0_rad_per_s"])
    assert amp <= 5 * sig          # no injected signal in RUN_CFG
    assert float(entries["tensor_bound_0"]) > 0
    # fit agrees with the direct library call
    t, kappa, sigma = read_kappa_record(record)
    direct = fit_harmonics(t, kappa, sigma, [OMEGA_SIDEREAL_DAY])
    assert float(entries["cos_amp_0_rad_per_s"]) == \
        pytest.approx(direct.cos_amplitude(0), rel=1e-12)


def test_fit_rejects_record_without_sigma(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("0.0,1.0,0.1\n3600.0,1.0\n")
    assert _run("fit", "--record", str(bad)) == 2


def test_fit_rejects_non_finite_rows(tmp_path, capsys):
    good = "0.0,1.0,0.1\n1.0,1.0,0.1\n2.0,1.1,0.1\n90000.0,1.0,0.1\n"
    for bad_row in ("3600.0,nan,0.1", "3600.0,1.0,inf", "nan,1.0,0.1",
                    "3600.0,0,2,0.1,-inf,0.1"):
        rec = tmp_path / "rec.csv"
        rec.write_text("t,kappa,sigma\n" + good + bad_row + "\n180000.0,1.0,0.1\n")
        assert _run("fit", "--record", str(rec), "--species", "Yb+") == 2
        assert f"{rec}:6:" in capsys.readouterr().err


def test_fit_unknown_frequency_lists_the_tokens(tmp_path, capsys):
    rec = tmp_path / "rec.csv"
    rec.write_text("0.0,1.0,0.1\n1.0,1.0,0.1\n2.0,1.1,0.1\n90000.0,1.0,0.1\n")
    for token in ("sidereal_day", "nan"):
        assert _run("fit", "--record", str(rec), "--frequencies", token) == 2
        err = capsys.readouterr().err
        assert f"'{token}'" in err
        assert "sidereal-day, sidereal-half-day, annual, solar-day" in err


def test_fit_unknown_species(tmp_path):
    rec = tmp_path / "rec.csv"
    rec.write_text("0.0,1.0,0.1\n1.0,1.0,0.1\n2.0,1.1,0.1\n"
                   "90000.0,1.0,0.1\n180000.0,1.0,0.1\n")
    assert _run("fit", "--record", str(rec), "--species", "Unobtainium") == 2


_SMALL_RECORD = "0.0,1.0,0.1\n1.0,1.0,0.1\n2.0,1.1,0.1\n90000.0,1.0,0.1\n"


@pytest.mark.parametrize("argv", [
    ("sensitivity", "--J", "7/2", "--m", "1/2", "--T", "inf"),
    ("sensitivity", "--J", "7/2", "--m", "1/2", "--tau", "nan"),
    ("table", "--coefficient", "nan"),
    ("fit", "--record", "rec.csv", "--epoch", "nan"),
    ("fringe", "--J", "1/2", "--m", "1/2", "--kt-min", "nan"),
    ("fit", "--record", "rec.csv", "--confidence", "2"),
    ("fringe", "--m", "1/2", "--J", "inf"),
    ("fringe", "--J", "1/2", "--m", "1/2", "--slice", "phi=nan"),
])
def test_non_finite_or_out_of_range_option_is_a_usage_error(
        tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "rec.csv").write_text(_SMALL_RECORD)
    assert _run(*argv, "--out", "out.txt") == 1
    assert f"argument {argv[-2]}: " in capsys.readouterr().err
    assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize("argv", [
    ("fringe", "--J", "1/2", "--m", "1/2"), ("table",),
    ("sensitivity", "--J", "1/2", "--m", "1/2"), ("fit", "--record", "rec.csv")])
def test_only_simulate_takes_a_seed(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "rec.csv").write_text(_SMALL_RECORD)
    assert _run(*argv, "--seed", "5", "--out", "out.txt") == 1
