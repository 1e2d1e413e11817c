"""The five benchmark workloads: inputs from a seed, one op, output checks.

Every workload is built from the benchmark seed alone.  Constructing one
generates the inputs (configs, working point, and the calibration where
the workload does it once).  `op(i)` runs operation i with inputs derived
from (seed, i); `check_op` validates one outcome and returns (value,
error), and `check_run` makes the aggregate checks over the values of a
run.  `cycle` is the number of ops after which the request mix repeats.

Library functions are looked up as module attributes at call time, so
the traced run sees the calls the workloads make.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from ddspin import cli, experiment, noise, sensitivity, sequence, sidereal
from ddspin.spin_algebra import SpinSystem

J72 = SpinSystem(7)

# Criterion 5: (chi_m, delta_kappa coefficient) at J = 7/2, phi = pi.
WORKING_POINT_TABLE = {1: (0.15, 0.10), 3: (0.17, 0.11), 5: (0.20, 0.17),
                       7: (0.22, 0.28)}

# Noisy point: OU drift plus 300 Hz of 50 Hz mains, 20 blocks of 100 us.
NOISY_T_W = 100e-6
NOISY_BLOCKS = 20
NOISY_SPINS = 100
OU_SIGMA = 2.0 * math.pi * 50.0
OU_TAU_C = 1e-3
MAINS_HZ = 50.0
MAINS_AMP = 2.0 * math.pi * 300.0


def derived_seed(seed: int, stream: int, index: int) -> int:
    """A positive 62-bit integer seed for (benchmark seed, stream, index)."""
    state = np.random.SeedSequence([seed, stream, index]).generate_state(
        1, np.uint64)[0]
    return 1 + int(state) % (2 ** 62)


def _read_kv(path: Path) -> dict[str, str]:
    values = {}
    for line in path.read_text().splitlines():
        if line.startswith("#") or " = " not in line:
            continue
        key, _, value = line.partition(" = ")
        values[key] = value
    return values


class MonthRun:
    """`ddspin simulate` then two `ddspin fit` runs on a month-long record.

    J = 7/2, m = 1/2, phi = pi, T = 1 s at the steepest working point; one
    point per 30 min for 30 days (1440 points) of 40 000 trials each, with
    a daily cosine amplitude of 80 per-point sigmas injected.
    """

    name = "month_run"
    points_per_op = 1440
    trace_ops = 3
    cycle = 1
    twice_m = 1
    n_trials = 40000

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        report = sensitivity.optimal_working_point(J72, self.twice_m, math.pi)
        # Per-point sigma at the working point: C / sqrt(trials) at T = 1 s.
        sigma_point = report.delta_kappa_coeff / math.sqrt(self.n_trials)
        self.injected = 80.0 * sigma_point
        self.config = workdir / "month_run.cfg"
        self.record = workdir / "month_run.rec"
        self.fit_sidereal = workdir / "month_run.sidereal.kv"
        self.fit_solar = workdir / "month_run.solar.kv"
        self.config.write_text(
            "j = 7/2\n"
            f"initial_m = {self.twice_m}/2\n"
            "t_w_s = 0.25\n"
            "n_blocks = 1\n"
            f"kappa_rad_s = {report.chi_m!r}\n"
            "phi_rad = pi\n"
            "n_spins = 1\n"
            f"n_trials_per_point = {self.n_trials}\n"
            "master_seed = 1\n"
            "timestamps_start_s = 0\n"
            "timestamps_step_s = 1800\n"
            f"timestamps_count = {self.points_per_op}\n"
            f"inject_harmonics = sidereal-day:{self.injected!r}:0\n")

    def op(self, i: int):
        codes = (
            cli.main(["simulate", "--config", str(self.config),
                      "--seed", str(derived_seed(self.seed, 1, i)),
                      "--out", str(self.record)]),
            cli.main(["fit", "--record", str(self.record),
                      "--frequencies", "sidereal-day,sidereal-half-day",
                      "--species", "Yb+", "--out", str(self.fit_sidereal)]),
            cli.main(["fit", "--record", str(self.record),
                      "--frequencies", "solar-day",
                      "--out", str(self.fit_solar)]),
        )
        return codes

    def check_op(self, i: int, codes):
        if any(codes):
            return None, f"exit codes {codes}"
        sid = _read_kv(self.fit_sidereal)
        sol = _read_kv(self.fit_solar)
        bound = float(sid["tensor_bound_0"])
        amp = float(sid["cos_amp_0_rad_per_s"])
        amp_sigma = float(sid["cos_sigma_0_rad_per_s"])
        separation = (float(sid["quad_amp_0_rad_per_s"])
                      - float(sol["quad_amp_0_rad_per_s"]))
        quad_sigma = float(sid["quad_sigma_0_rad_per_s"])
        if not (math.isfinite(bound) and bound > 0):
            return None, f"bound {bound} is not finite and > 0"
        if not (separation > 3.0 * quad_sigma
                and float(sol["chi_squared"]) > float(sid["chi_squared"])):
            return None, "the solar-day fit does not lose to the sidereal fit"
        return (amp - self.injected) / amp_sigma, None

    def check_run(self, pulls):
        """The injected amplitude is recovered within 3 sigma: the op pulls
        combine to one N(0, 1) statistic for the run."""
        combined = sum(pulls) / math.sqrt(len(pulls))
        if abs(combined) > 3.0:
            return [f"injected amplitude missed: combined pull {combined:.2f} "
                    f"over {len(pulls)} ops"]
        return []


class NullEnsemble:
    """One null run per op: working point, a 48-point run at 12 points per
    sidereal day with 100 trials, and a sidereal-day fit."""

    name = "null_ensemble"
    points_per_op = 48
    trace_ops = 60
    cycle = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.timestamps = tuple(sidereal.SIDEREAL_DAY_S / 12.0 * k
                                for k in range(self.points_per_op))

    def op(self, i: int):
        report = sensitivity.optimal_working_point(J72, 1, math.pi)
        seq = sequence.SequenceConfig(J72, 0.25, 1, report.chi_m, math.pi, 1)
        cfg = experiment.RunConfig(
            seq, None, n_spins=1, n_trials_per_point=100,
            timestamps=self.timestamps,
            master_seed=derived_seed(self.seed, 1, i))
        record = experiment.run_experiment(cfg)
        t, kappa, sigma = record.valid()
        return sidereal.fit_harmonics(t, kappa, sigma,
                                      [sidereal.OMEGA_SIDEREAL_DAY])

    def check_op(self, i: int, fit):
        amp, amp_sigma = fit.quadrature_amplitude(0), fit.quadrature_sigma(0)
        if not (math.isfinite(amp) and math.isfinite(amp_sigma) and amp_sigma > 0):
            return None, f"non-finite fit: amplitude {amp}, sigma {amp_sigma}"
        return amp <= 3.0 * amp_sigma, None

    def check_run(self, consistent):
        fraction = sum(consistent) / len(consistent)
        if fraction < 0.99:
            return [f"only {100 * fraction:.1f}% of null runs are consistent "
                    "with zero (>= 99% required)"]
        return []


class NoisyInstant:
    """One noisy point per op, calibration in set-up: 16 trials of 100
    spins, instantaneous pulses, OU drift plus mains with a seeded phase."""

    name = "noisy_instant"
    trace_ops = 30
    cycle = 1
    points_per_op = 1
    n_trials = 16
    rabi_omega0 = math.inf
    twice_m = 7

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        report = sensitivity.optimal_working_point(J72, self.twice_m, math.pi)
        total_time = 4.0 * NOISY_BLOCKS * NOISY_T_W
        seq = sequence.SequenceConfig(J72, NOISY_T_W, NOISY_BLOCKS,
                                      report.chi_m / total_time, math.pi,
                                      self.twice_m, rabi_omega0=self.rabi_omega0)
        mains_phase = float(np.random.default_rng([seed, 0]).uniform(0, 2 * math.pi))
        model = noise.NoiseModel(ou_sigma=OU_SIGMA, ou_tau_c=OU_TAU_C,
                                 line_harmonics=((MAINS_HZ, MAINS_AMP, mains_phase),))
        self.cfg = experiment.RunConfig(seq, model, n_spins=NOISY_SPINS,
                                        n_trials_per_point=self.n_trials,
                                        timestamps=(0.0,), master_seed=seed)
        self.calibration = experiment.calibrate(seq)
        self.p_closed_form = sequence.fringe_probability(
            J72, self.twice_m, report.chi_m, math.pi)

    def op(self, i: int):
        successes, trials = experiment.simulate_point(self.cfg, 0.0,
                                                      (self.seed, 1, i))
        try:
            experiment.estimate_kappa(successes, trials, self.calibration)
        except experiment.FringeWrapError:
            pass   # a wrapped point, counted by the trace; not a failure
        return successes, trials

    def check_op(self, i: int, outcome):
        successes, trials = outcome
        p = successes / trials
        if not (math.isfinite(p) and 0.0 <= p <= 1.0):
            return None, f"population {p} is not in [0, 1]"
        return outcome, None

    def check_run(self, outcomes):
        """Run-averaged population against the closed-form fringe: 2%
        (criterion 8) plus three binomial standard errors."""
        successes = sum(s for s, _ in outcomes)
        trials = sum(t for _, t in outcomes)
        p_mean = successes / trials
        p0 = self.p_closed_form
        margin = 0.02 + 3.0 * math.sqrt(p0 * (1.0 - p0) / trials)
        if abs(p_mean - p0) > margin:
            return [f"mean population {p_mean:.5f} is {abs(p_mean - p0):.5f} "
                    f"from the closed form {p0:.5f} (allowed {margin:.5f})"]
        return []


class NoisyFinite(NoisyInstant):
    """As noisy_instant with finite pulses at 2 pi x 50 kHz and a single
    trial per point.  Only the population range is checked: the closed
    form does not model finite pulses."""

    name = "noisy_finite"
    trace_ops = 30
    n_trials = 1
    rabi_omega0 = 2.0 * math.pi * 50e3

    def check_run(self, outcomes):
        return []


class DesignScan:
    """CLI requests cycling through `ddspin fringe --J J --m -J` on the
    default 65 x 64 grid and `ddspin sensitivity --J J --m <all m >= 0>`,
    for J in 5/2, 7/2 and 6; the seed picks where the cycle starts."""

    name = "design_scan"
    points_per_op = 0
    twice_js = (5, 7, 12)
    cycle = 2 * len(twice_js)
    trace_ops = 2 * cycle

    def __init__(self, seed: int, workdir: Path):
        self.offset = int(np.random.default_rng([seed, 0]).integers(self.cycle))
        self.out = {"fringe": workdir / "design_scan.fringe.csv",
                    "sensitivity": workdir / "design_scan.sensitivity.kv"}

    def request(self, i: int) -> tuple[str, int]:
        k = (self.offset + i) % self.cycle
        return ("fringe", "sensitivity")[k % 2], self.twice_js[k // 2]

    def op(self, i: int):
        kind, tj = self.request(i)
        if kind == "fringe":
            args = ["fringe", "--J", f"{tj}/2", "--m", f"-{tj}/2"]
        else:
            levels = ",".join(f"{tm}/2" for tm in range(tj % 2, tj + 1, 2))
            args = ["sensitivity", "--J", f"{tj}/2", "--m", levels,
                    "--phi", "pi"]
        return cli.main(args + ["--out", str(self.out[kind])])

    def check_op(self, i: int, code):
        kind, tj = self.request(i)
        if code != 0:
            return None, f"{kind} J={tj}/2 exited {code}"
        if kind == "fringe":
            rows = [line for line in self.out[kind].read_text().splitlines()
                    if line and not line.startswith("#")]
            p = np.array([float(row.rsplit(",", 1)[1]) for row in rows[1:]])
            if p.size != 65 * 64:
                return None, f"fringe grid has {p.size} values, not 65 x 64"
            if not (np.all(np.isfinite(p)) and np.all((p >= 0) & (p <= 1))):
                return None, "fringe grid value outside [0, 1]"
            return True, None
        blocks = self.out[kind].read_text().split("\n\n")
        points = {}
        for block in blocks:
            kv = dict(line.split(" = ", 1) for line in block.splitlines()
                      if " = " in line and not line.startswith("#"))
            if "twice_m" in kv:
                points[int(kv["twice_m"])] = (float(kv["chi_m_rad"]),
                                              float(kv["delta_kappa_coeff_rad"]))
        expected = list(range(tj % 2, tj + 1, 2))
        if sorted(points) != expected:
            return None, f"sensitivity J={tj}/2 reported m levels {sorted(points)}"
        if tj == 7:
            for tm, (chi_ref, coeff_ref) in WORKING_POINT_TABLE.items():
                chi, coeff = points[tm]
                if abs(chi - chi_ref) > 0.1 * chi_ref \
                        or abs(coeff - coeff_ref) > 0.1 * coeff_ref:
                    return None, (f"working point m={tm}/2 ({chi:.4f}, "
                                  f"{coeff:.4f}) is not within 10% of "
                                  f"({chi_ref}, {coeff_ref})")
        return True, None

    def check_run(self, outcomes):
        return []


WORKLOADS = {w.name: w for w in (MonthRun, NullEnsemble, NoisyInstant,
                                 NoisyFinite, DesignScan)}
