"""Command-line surface: fringe, table, sensitivity, simulate, fit.

Every subcommand is a thin composition over the library; outputs carry a
'#'-prefixed header echoing the resolved configuration; only simulate
draws, takes --seed and echoes one.  Exit codes: 0 success, 1 usage
error, 2 numerical/validation error.
"""

from __future__ import annotations

import argparse
import math
import re
import sys as _sys
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from ddspin.experiment import (
    load_run_config,
    parse_angle,
    parse_frequency,
    run_experiment,
    write_record,
)
from ddspin.sensitivity import (
    FringeFunction,
    entangled_benchmark,
    optimal_working_point,
    write_report,
)
from ddspin.sequence import fringe_grid, write_fringe_grid
from ddspin.sidereal import bound_tensor_coefficient, fit_harmonics, read_kappa_record, write_fit_report
from ddspin.spin_algebra import (
    SpinSystem,
    as_twice,
    default_species_table,
    require,
    tensor_kappa,
    load_species_file,
    tensor_level_shift,
)

USAGE_ERROR = 1
VALIDATION_ERROR = 2


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Let bare negative half-integers like -7/2 through as option values.
        self._negative_number_matcher = re.compile(r"^-\d+([./]\d+)?$")

    def error(self, message):
        self.print_usage(_sys.stderr)
        _sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(USAGE_ERROR)


def _arg_type(read):
    """An argparse type: read(text), its error reported under the option."""
    def convert(text: str):
        try:
            return read(text)
        except (ValueError, TypeError) as exc:
            raise argparse.ArgumentTypeError(str(exc))
    return convert


_half_integer = _arg_type(as_twice)
_count = _arg_type(lambda text: require("value", int(text), "an integer >= 1"))
_number = _arg_type(lambda text: require("value", float(text)))
_positive = _arg_type(lambda text: require("value", float(text), "finite and > 0"))
_angle = _arg_type(lambda text: require("value", parse_angle(text)))
_confidence = _arg_type(lambda text: require("confidence", float(text), "in [0, 1)"))


@_arg_type
def _slice_phi(text: str) -> float:
    key, _, value = text.partition("=")
    if key.strip() != "phi" or not value:
        raise ValueError("expected phi=ANGLE")
    return _angle(value)


@contextmanager
def _open_out(path: str | None):
    if path is None or path == "-":
        yield _sys.stdout
    else:
        with open(path, "w") as fh:
            yield fh


def build_parser() -> _Parser:
    parser = _Parser(prog="ddspin",
                     description="Decoupled-Ramsey spin simulator and "
                                 "shift-bound analysis")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p_fringe = sub.add_parser("fringe", parents=[], help="fringe surface P(kappa*T, phi)")
    p_fringe.add_argument("--J", type=_half_integer, required=True,
                          help="spin, e.g. 7/2 or 3.5")
    p_fringe.add_argument("--m", type=_half_integer, required=True,
                          help="prepared m level, e.g. -7/2")
    p_fringe.add_argument("--kt-min", type=_angle, default="0")
    p_fringe.add_argument("--kt-max", type=_angle, default="pi")
    p_fringe.add_argument("--kt-points", type=_count, default=65)
    p_fringe.add_argument("--phi-min", type=_angle, default="0")
    p_fringe.add_argument("--phi-max", type=_angle, default="2pi",
                          help="exclusive upper edge of the phi axis")
    p_fringe.add_argument("--phi-points", type=_count, default=64)
    p_fringe.add_argument("--slice", dest="slice_phi", type=_slice_phi, default=None,
                          metavar="phi=ANGLE",
                          help="emit a 1-D fringe at fixed phi and mark the "
                               "steepest point")

    p_table = sub.add_parser("table", help="per-species shift table")
    p_table.add_argument("--species-file", default=None,
                         help="species table path (default: shipped table)")
    p_table.add_argument("--coefficient", type=_number, default=1.0,
                         help="tensor coefficient scale")

    p_sens = sub.add_parser("sensitivity", help="working points and shift resolution")
    p_sens.add_argument("--J", type=_half_integer, required=True)
    p_sens.add_argument("--m", required=True,
                        help="comma list of m levels, e.g. 1/2,3/2,5/2,7/2")
    p_sens.add_argument("--phi", type=_angle, default="pi")
    p_sens.add_argument("--N", type=_count, default=1, help="number of spin probes")
    p_sens.add_argument("--tau", type=_positive, default=1.0,
                        help="total measurement time, s")
    p_sens.add_argument("--T", type=_positive, default=1.0, help="Ramsey time, s")
    p_sens.add_argument("--compare-entangled", action="store_true",
                        help="append the entangled-register benchmark")
    for p in (p_table, p_sens):
        p.add_argument("--format", choices=("csv", "kv"), default=None,
                       help="output style (default: csv for table, kv for "
                            "sensitivity)")

    p_sim = sub.add_parser("simulate", help="run a simulated measurement record")
    p_sim.add_argument("--config", required=True, help="run configuration file")
    p_sim.add_argument("--seed", type=int, default=None,
                       help="master seed (u64); overrides the config's master_seed")

    p_fit = sub.add_parser("fit", help="harmonic amplitudes and coefficient bound")
    p_fit.add_argument("--record", required=True,
                       help="record file: (t, kappa, sigma) or simulate output")
    p_fit.add_argument("--frequencies", default="sidereal-day",
                       help="comma list: sidereal-day, sidereal-half-day, "
                            "annual, solar-day, or rad/s values")
    p_fit.add_argument("--species", default=None,
                       help="species label from the table (enables the bound)")
    p_fit.add_argument("--species-file", default=None)
    p_fit.add_argument("--confidence", type=_confidence, default=0.95)
    p_fit.add_argument("--epoch", type=_number, default=0.0,
                       help="fit epoch t0, UTC seconds")
    for p in (p_fringe, p_table, p_sens, p_sim, p_fit):
        p.add_argument("--out", default=None, help="output path (default stdout)")
    return parser


def _cmd_fringe(args) -> int:
    sys = SpinSystem(args.J)
    if args.slice_phi is not None:
        phi = args.slice_phi
        kt_axis = np.linspace(args.kt_min, args.kt_max, args.kt_points)
        report = optimal_working_point(sys, args.m, phi)
        fringe = FringeFunction(sys, args.m, phi)
        values = fringe(kt_axis)
        with _open_out(args.out) as out:
            out.write(f"# command = fringe --slice phi={phi:.17g}\n")
            out.write(f"# J = {args.J}/2, m = {args.m}/2\n")
            out.write(f"# chi_m_rad = {report.chi_m:.17g}\n")
            out.write(f"# p_at_chi_m = {fringe(report.chi_m):.17g}\n")
            out.write("kappaT_rad,probability\n")
            for x, p in zip(kt_axis, values):
                out.write(f"{x:.17g},{p:.17g}\n")
        return 0
    kt_axis = np.linspace(args.kt_min, args.kt_max, args.kt_points)
    phi_axis = np.linspace(args.phi_min, args.phi_max, args.phi_points,
                           endpoint=False)
    grid = fringe_grid(sys, args.m, kt_axis, phi_axis)
    header = [
        "command = fringe",
        f"J = {args.J}/2, m = {args.m}/2",
    ]
    with _open_out(args.out) as out:
        write_fringe_grid(out, kt_axis, phi_axis, grid, header)
    return 0


def _load_species(path: str | None):
    species = load_species_file(path) if path else default_species_table()
    if not species:
        raise ValueError("no species in table")
    return species


def _cmd_table(args) -> int:
    species = _load_species(args.species_file)
    rows = []
    for sp in species:
        tm_hi = sp.twice_j
        tm_lo = 1 if sp.twice_j % 2 else 0
        shift = tensor_level_shift(sp, tm_hi, tm_lo, args.coefficient)
        kappa_cycles = tensor_kappa(sp, args.coefficient) / (2.0 * math.pi)
        rows.append((sp, shift, kappa_cycles))
    with _open_out(args.out) as out:
        out.write("# command = table\n")
        out.write(f"# coefficient = {args.coefficient:.17g}\n")
        if args.format == "kv":
            for sp, shift, kappa_cycles in rows:
                out.write(f"label = {sp.label}\n")
                out.write(f"twice_J = {sp.twice_j}\n")
                out.write(f"reduced_me_au = {sp.reduced_me_au:.17g}\n")
                out.write(f"shift_hz = {shift:.17g}\n")
                out.write(f"tensor_kappa_hz = {kappa_cycles:.17g}\n")
                out.write("\n")
        else:
            out.write("label,twice_J,reduced_me_au,shift_hz,tensor_kappa_hz\n")
            for sp, shift, kappa_cycles in rows:
                out.write(f"{sp.label},{sp.twice_j},{sp.reduced_me_au:.17g},"
                          f"{shift:.17g},{kappa_cycles:.17g}\n")
    return 0


def _cmd_sensitivity(args) -> int:
    sys = SpinSystem(args.J)
    twice_ms = [as_twice(tok) for tok in args.m.split(",")]
    reports = [optimal_working_point(sys, tm, args.phi) for tm in twice_ms]
    scale = math.sqrt(args.N * args.tau * args.T)
    # The entangled scheme pairs ions, so an odd N compares against N = 2.
    n_ions = args.N if args.N % 2 == 0 else 2
    bench = entangled_benchmark(n_ions) if args.compare_entangled else None
    bench_scale = math.sqrt(args.tau * args.T)
    with _open_out(args.out) as out:
        out.write("# command = sensitivity\n")
        out.write(f"# J = {args.J}/2, phi = {args.phi:.17g}\n")
        out.write(f"# N = {args.N}, tau = {args.tau:.17g}, T = {args.T:.17g}\n")
        if args.format == "csv":
            out.write("twice_m,chi_m_rad,delta_kappa_coeff_rad,"
                      "delta_kappa_rad_per_s\n")
            for report in reports:
                out.write(f"{report.twice_m},{report.chi_m:.17g},"
                          f"{report.delta_kappa_coeff:.17g},"
                          f"{report.delta_kappa_coeff / scale:.17g}\n")
            if bench is not None:
                out.write(f"entangled,{bench.chi_m:.17g},"
                          f"{bench.delta_kappa_coeff:.17g},"
                          f"{bench.delta_kappa_coeff / bench_scale:.17g}\n")
        else:
            for report in reports:
                write_report(out, report)
                out.write(f"delta_kappa_rad_per_s = "
                          f"{report.delta_kappa_coeff / scale:.17g}\n\n")
            if bench is not None:
                out.write(f"benchmark = entangled, N = {n_ions}\n")
                write_report(out, bench)
                out.write(f"delta_kappa_rad_per_s = "
                          f"{bench.delta_kappa_coeff / bench_scale:.17g}\n")
    return 0


def _cmd_simulate(args) -> int:
    cfg = load_run_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, master_seed=args.seed)
    record = run_experiment(cfg)
    with _open_out(args.out) as out:
        write_record(out, record, extra_header=["command = simulate"])
    return 0


def _cmd_fit(args) -> int:
    times, values, sigmas = read_kappa_record(args.record)
    frequencies = [parse_frequency(tok) for tok in args.frequencies.split(",")]
    fit = fit_harmonics(times, values, sigmas, frequencies, t0=args.epoch)
    bounds = None
    label = None
    if args.species is not None:
        species = {sp.label: sp for sp in _load_species(args.species_file)}
        if args.species not in species:
            raise ValueError(f"unknown species {args.species!r}; "
                             f"table has {', '.join(sorted(species))}")
        bounds = bound_tensor_coefficient(fit, species[args.species], args.confidence)
        label = args.species
    with _open_out(args.out) as out:
        out.write("# command = fit\n")
        out.write(f"# record = {args.record}\n")
        out.write(f"# confidence = {args.confidence:.17g}\n")
        write_fit_report(out, fit, bounds, label)
    return 0


_COMMANDS = {
    "fringe": _cmd_fringe,
    "table": _cmd_table,
    "sensitivity": _cmd_sensitivity,
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, ArithmeticError, OSError) as exc:
        _sys.stderr.write(f"ddspin {args.command}: {exc}\n")
        return VALIDATION_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
