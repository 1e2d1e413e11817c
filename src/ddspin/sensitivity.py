"""Projection-noise sensitivity of the fringe readout.

For a fringe F(chi) read out with N probes over total time tau at Ramsey
time T, the smallest resolvable change of the quadratic shift coefficient is

    delta_kappa = sqrt(F(chi)(1 - F(chi))) / (sqrt(N tau T) |dF/dchi|)

The working point chi_m maximizes |dF/dchi|.  Reports quote the coefficient
C = delta_kappa at N = tau = T = 1, so delta_kappa = C / sqrt(N tau T).

The sensitivity analysis uses the phi = pi fringe line (where the fringe
starts at its maximum); the engine supports any final-pulse phase.
FringeFunction is the package's one fringe kernel and find_root its one
root finder.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import IO, Callable

import numpy as np

from ddspin.spin_algebra import SpinSystem, require, rotation


def fringe_period(sys: SpinSystem) -> float:
    """Period of the fringes in kappa*T: pi for half-integer J (m^2 mod 2
    is uniform across the multiplet, a global phase), 2*pi for integer J."""
    return math.pi if sys.twice_j % 2 else 2.0 * math.pi


class FringeFunction:
    """The fringe F(chi) = P(chi, phi) for one (J, m, phi), with its
    analytic chi-derivatives.

    F = |S|^2 with S(chi) = sum_k a_k exp(i chi q_k), where the q_k are the
    distinct values of m'^2 and a_k sums the amplitude products
    <m|R(phi, pi/2)|m'><m'|R(0, pi/2)|m> over m' = +-sqrt(q_k).  With S^(j)
    the j-th chi-derivative of S,

        F' = 2 Re(conj(S) S'),   F'' = 2 (|S'|^2 + Re(conj(S) S'')),
        F''' = 2 (3 Re(conj(S') S'') + Re(conj(S) S''')).

    Scalars and arrays of chi give the same value bit for bit.
    """

    def __init__(self, sys: SpinSystem, twice_m: int, phi: float):
        self.sys = sys
        self.twice_m = twice_m
        self.phi = float(phi)
        i = sys.index_of(twice_m)
        r_init = rotation(sys, 0.0, math.pi / 2.0)
        r_final = rotation(sys, self.phi, math.pi / 2.0)
        self._msq, slot = np.unique(sys.m_values ** 2, return_inverse=True)
        amps = np.zeros(self._msq.size, dtype=complex)
        np.add.at(amps, slot, r_final[i, :] * r_init[:, i])
        # Row j holds the coefficients of S^(j).
        self._coeffs = amps * (1j * self._msq) ** np.arange(4)[:, None]
        self.period = fringe_period(sys)

    def __call__(self, chi, order: int = 0):
        """F(chi) for order 0; the tuple (F, F', ..., F^(order)) for
        order 1 to 3.  A scalar chi gives floats, an array gives arrays
        of its shape."""
        chi_arr = np.asarray(chi, dtype=float)
        phases = np.exp(1j * np.multiply.outer(chi_arr, self._msq))
        s = np.moveaxis(
            np.sum(phases[..., None, :] * self._coeffs[:order + 1], axis=-1), -1, 0)

        def re_dot(j, k):
            # Re(conj(S^(j)) S^(k)) in real arithmetic: numpy's complex
            # array loops may fuse multiply-adds, so scalar and array
            # results could otherwise differ in the last bit.
            return s[j].real * s[k].real + s[j].imag * s[k].imag

        # |S|^2 <= 1 exactly; clamp the last-bit float excess.
        values = [np.minimum(1.0, re_dot(0, 0))]
        if order >= 1:
            values.append(2.0 * re_dot(0, 1))
        if order >= 2:
            values.append(2.0 * (re_dot(1, 1) + re_dot(0, 2)))
        if order >= 3:
            values.append(2.0 * (3.0 * re_dot(1, 2) + re_dot(0, 3)))
        if chi_arr.ndim == 0:
            values = [float(v) for v in values]
        return values[0] if order == 0 else tuple(values)


def find_root(func: Callable, lo, hi):
    """Roots of g on the brackets [lo, hi], elementwise over arrays.

    func(x) returns (g(x), g'(x)); g must change sign (or vanish) on each
    bracket.  Each element starts at its bracket midpoint and takes Newton
    steps, falling back to bisection when a step would leave the bracket;
    the bracket shrinks around the sign change after every evaluation.
    An element stops when g is exactly 0 or its step is at most 1e-13;
    the search ends when all have stopped, or after 100 steps.  Returns
    an array of the brackets' broadcast shape.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float),
                                 np.asarray(hi, dtype=float))
    sign_lo = np.sign(func(lo)[0])
    done = sign_lo == 0
    x = np.where(done, lo, 0.5 * (lo + hi))
    for _ in range(100):
        g, slope = func(x)
        on_lo_side = np.sign(g) == sign_lo
        lo = np.where(on_lo_side, x, lo)
        hi = np.where(on_lo_side, hi, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = x - g / slope
        x_next = np.where((newton >= lo) & (newton <= hi), newton, 0.5 * (lo + hi))
        stop = done | (g == 0)
        done = stop | (np.abs(x_next - x) <= 1e-13)
        x = np.where(stop, x, x_next)
        if np.all(done):
            break
    return x


@dataclass(frozen=True)
class SensitivityReport:
    """Working point and sensitivity coefficient for one readout scheme.

    delta_kappa_coeff is C in delta_kappa = C / <scaling>; for the
    decoupled single-m readout the scaling is sqrt(N tau T), for the
    entangled benchmark it is sqrt(tau T) (the ion number N is inside C).
    """

    twice_m: int | None
    phi: float | None
    chi_m: float
    dF_dchi_max: float
    delta_kappa_coeff: float
    scaling: str
    assumptions: str

    def __post_init__(self):
        require("delta_kappa_coeff", self.delta_kappa_coeff, "finite and > 0")


def delta_kappa(f: float, slope: float, n_probes: int, tau: float,
                total_time: float) -> float:
    """Projection-noise-limited shift resolution at a fringe point with
    value f = F(chi) and slope = dF/dchi.

    Raises if the fringe carries no projection-noise information there
    (F at 0 or 1) or if the slope vanishes.
    """
    if not 0.0 < f < 1.0:
        raise ValueError("no projection noise information: F(chi) is 0 or 1")
    if abs(slope) < 1e-8:
        raise ValueError("insensitive working point: dF/dchi vanishes")
    n_repeats = tau / total_time
    if n_probes * n_repeats * f * (1.0 - f) < 10.0:
        warnings.warn("variance of the summed outcomes is small; the Gaussian "
                      "projection-noise model is marginal here", stacklevel=2)
    return math.sqrt(f * (1.0 - f)) / (math.sqrt(n_probes * tau * total_time)
                                       * abs(slope))


def optimal_working_point(sys: SpinSystem, twice_m: int,
                          phi: float) -> SensitivityReport:
    """Locate the steepest point of the fringe F(chi) = P(chi, phi).

    Dense 2001-point scan of |dF/dchi| over one period; every near-maximal
    local peak is refined to the root of d2F/dchi2 within one grid spacing.
    The fringe is mirror symmetric for these sequences, so the maximum
    slope is attained twice per period; the smallest such chi is returned.
    """
    fringe = FringeFunction(sys, twice_m, phi)
    period = fringe.period
    chis = np.linspace(0.0, period, 2001)
    slopes = np.abs(fringe(chis, 1)[1])
    spacing = period / 2000.0
    padded = np.pad(slopes, 1, constant_values=-np.inf)
    peaks = chis[(slopes >= padded[:-2]) & (slopes >= padded[2:])
                 & (slopes >= np.max(slopes) * (1.0 - 1e-6))]
    steepest = find_root(lambda chi: fringe(chi, 3)[2:],
                         np.maximum(0.0, peaks - spacing),
                         np.minimum(period, peaks + spacing))
    peak_slopes = np.abs(fringe(steepest, 1)[1])
    chi_m = float(np.min(steepest[peak_slopes >= np.max(peak_slopes) * (1.0 - 1e-9)]))
    f, slope = fringe(chi_m, 1)
    with warnings.catch_warnings():
        # The unit-normalized coefficient is a scale factor, not a
        # prediction, so the small-variance guard does not apply.
        warnings.simplefilter("ignore")
        coeff = delta_kappa(f, slope, 1, 1.0, 1.0)
    return SensitivityReport(
        twice_m=twice_m,
        phi=float(phi),
        chi_m=chi_m,
        dF_dchi_max=abs(slope),
        delta_kappa_coeff=float(coeff),
        scaling="1/sqrt(N*tau*T)",
        assumptions="unit contrast, no phase drift",
    )


def entangled_benchmark(n_ions: int) -> SensitivityReport:
    """Sensitivity of the entangled comparison scheme (closed form).

    The register is read out as a single two-outcome parity measurement,
    so delta_kappa = (1/2)/(6N sqrt(tau T)) = 0.0833/(N sqrt(tau T)).
    Requires an even number of ions.
    """
    if not isinstance(n_ions, int) or n_ions < 2 or n_ions % 2:
        raise ValueError("the entangled scheme pairs ions: N must be even and >= 2")
    slope_max = 6.0 * n_ions
    return SensitivityReport(
        twice_m=None,
        phi=None,
        chi_m=0.0,
        dF_dchi_max=slope_max,
        delta_kappa_coeff=1.0 / (12.0 * n_ions),
        scaling="1/sqrt(tau*T)",
        assumptions=f"perfect Ramsey contrast, N={n_ions} ions read as one parity probe",
    )


def write_report(out: IO[str], report: SensitivityReport) -> None:
    """Structured key-value export, one block per report."""
    if report.twice_m is not None:
        out.write(f"twice_m = {report.twice_m}\n")
        out.write(f"phi_rad = {report.phi:.17g}\n")
    out.write(f"chi_m_rad = {report.chi_m:.17g}\n")
    out.write(f"dF_dchi_max = {report.dF_dchi_max:.17g}\n")
    out.write(f"delta_kappa_coeff_rad = {report.delta_kappa_coeff:.17g}\n")
    out.write(f"scaling = {report.scaling}\n")
    out.write(f"assumptions = {report.assumptions}\n")
