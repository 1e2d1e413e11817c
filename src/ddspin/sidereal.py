"""Harmonic model and weighted least-squares extraction of a slowly
modulated quadratic shift.

An orientation-dependent tensor shift modulates kappa at the Earth's
rotation frequency and its first harmonic (periods of one sidereal day and
half a sidereal day), and boost terms add an annual line.  The model here
is phenomenological: each frequency carries free cosine/sine amplitudes;
mapping those amplitudes to individual frame-tensor components is out of
scope.

Fitting is plain weighted linear least squares: the frequencies are known
a priori, so no periodogram machinery is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import IO, Sequence

import numpy as np

from ddspin.spin_algebra import IonSpecies, require, tensor_kappa

SIDEREAL_DAY_S = 86164.0905
SOLAR_DAY_S = 86400.0
SIDEREAL_YEAR_S = 365.25636 * 86400.0

OMEGA_SIDEREAL_DAY = 2.0 * math.pi / SIDEREAL_DAY_S
OMEGA_SIDEREAL_HALF_DAY = 2.0 * OMEGA_SIDEREAL_DAY
OMEGA_ANNUAL = 2.0 * math.pi / SIDEREAL_YEAR_S
OMEGA_SOLAR_DAY = 2.0 * math.pi / SOLAR_DAY_S


@dataclass(frozen=True)
class SiderealModel:
    """kappa(t) = kappa_static + sum_k [A_k cos w_k (t-t0) + B_k sin w_k (t-t0)].

    harmonics: (omega_rad_s, cos_amplitude_rad_s, sin_amplitude_rad_s).
    t0: epoch in UTC seconds.
    Rules: kappa_static, t0 and every harmonic value finite.
    """

    kappa_static: float = 0.0
    harmonics: tuple[tuple[float, float, float], ...] = ()
    t0: float = 0.0

    def __post_init__(self):
        require("kappa_static", self.kappa_static)
        require("t0", self.t0)
        harmonics = tuple((float(w), float(a), float(b)) for w, a, b in self.harmonics)
        for value in sum(harmonics, ()):
            require("harmonics", value)
        object.__setattr__(self, "harmonics", harmonics)


def kappa_timeseries(model: SiderealModel, timestamps):
    """Evaluate the model; scalar in, scalar out."""
    t = np.asarray(timestamps, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("timestamps must be finite")
    rel = t - model.t0
    value = np.full(t.shape, model.kappa_static)
    for omega, a_cos, b_sin in model.harmonics:
        value = value + a_cos * np.cos(omega * rel) + b_sin * np.sin(omega * rel)
    return float(value) if np.isscalar(timestamps) or t.ndim == 0 else value


@dataclass(frozen=True, eq=False)
class HarmonicFit:
    """Weighted least-squares result.

    Parameter order: [static, A_1, B_1, A_2, B_2, ...] matching the
    frequency tuple.  covariance is (X^T W X)^-1.
    """

    frequencies: tuple[float, ...]
    params: np.ndarray
    covariance: np.ndarray
    chi_squared: float
    dof: int
    condition_number: float
    t0: float = 0.0

    def __post_init__(self):
        require("dof", self.dof, "an integer >= 1")
        cov = np.asarray(self.covariance, dtype=float)
        if np.max(np.abs(cov - cov.T)) > 1e-10 * max(1.0, np.max(np.abs(cov))):
            raise ValueError("covariance must be symmetric")
        if np.min(np.linalg.eigvalsh(0.5 * (cov + cov.T))) < -1e-10 * max(
                1.0, np.max(np.abs(cov))):
            raise ValueError("covariance must be positive semidefinite")

    @property
    def static_term(self) -> float:
        return float(self.params[0])

    def cos_amplitude(self, k: int) -> float:
        return float(self.params[1 + 2 * k])

    def sin_amplitude(self, k: int) -> float:
        return float(self.params[2 + 2 * k])

    def cos_sigma(self, k: int) -> float:
        return float(math.sqrt(self.covariance[1 + 2 * k, 1 + 2 * k]))

    def sin_sigma(self, k: int) -> float:
        return float(math.sqrt(self.covariance[2 + 2 * k, 2 + 2 * k]))

    def quadrature_amplitude(self, k: int) -> float:
        """sqrt(A_k^2 + B_k^2); invariant under time-origin shifts."""
        return float(math.hypot(self.cos_amplitude(k), self.sin_amplitude(k)))

    def quadrature_sigma(self, k: int) -> float:
        """Quadrature-combined amplitude standard error,
        sqrt(var(A_k) + var(B_k))."""
        return float(math.sqrt(self.covariance[1 + 2 * k, 1 + 2 * k]
                               + self.covariance[2 + 2 * k, 2 + 2 * k]))


def fit_harmonics(times, kappa_estimates, sigmas,
                  frequencies: Sequence[float], t0: float = 0.0,
                  max_condition: float = 1e10) -> HarmonicFit:
    """Weighted linear least squares of kappa(t) on [1, cos w_k t, sin w_k t].

    sigmas are per-sample standard errors (> 0).  Raises on rank-deficient
    or severely ill-conditioned designs (all timestamps equal, or a record
    much shorter than the longest period), reporting the condition number.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(kappa_estimates, dtype=float)
    s = np.asarray(sigmas, dtype=float)
    freqs = tuple(float(w) for w in frequencies)
    if t.shape != y.shape or t.shape != s.shape:
        raise ValueError("times, estimates and sigmas must have equal length")
    if np.any(s <= 0):
        raise ValueError("sigmas must be > 0")
    n_params = 1 + 2 * len(freqs)
    if t.size < n_params + 1:
        raise ValueError(f"need at least {n_params + 1} samples to fit "
                         f"{n_params} parameters with dof >= 1")

    rel = t - t0
    columns = [np.ones_like(rel)]
    for omega in freqs:
        columns.append(np.cos(omega * rel))
        columns.append(np.sin(omega * rel))
    design = np.column_stack(columns)
    weighted = design / s[:, None]
    target = y / s

    u_mat, svals, vt = np.linalg.svd(weighted, full_matrices=False)
    cond = float(svals[0] / svals[-1]) if svals[-1] > 0 else math.inf
    if cond > max_condition:
        raise ValueError(
            f"design matrix is ill-conditioned (condition number {cond:.3g}); "
            "the record may be too short to resolve the requested frequencies")
    params = vt.T @ ((u_mat.T @ target) / svals)
    covariance = (vt.T / svals ** 2) @ vt
    residual = target - weighted @ params
    chi_squared = float(residual @ residual)
    return HarmonicFit(
        frequencies=freqs,
        params=params,
        covariance=covariance,
        chi_squared=chi_squared,
        dof=int(t.size - n_params),
        condition_number=cond,
        t0=t0,
    )


def bound_tensor_coefficient(fit: HarmonicFit, species: IonSpecies,
              confidence: float) -> np.ndarray:
    """Per-frequency bound on the tensor coefficient.

    bound_k = z(confidence) * quadrature amplitude standard error /
    tensor_kappa(species, 1); z is the two-sided Gaussian quantile, so
    confidence 0 gives 0.
    """
    z = NormalDist().inv_cdf(0.5 + require("confidence", confidence, "in [0, 1)") / 2.0)
    per_unit = tensor_kappa(species, 1.0)
    return np.array([z * fit.quadrature_sigma(k) / per_unit
                     for k in range(len(fit.frequencies))])


def read_kappa_record(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parse a (t_unix_s, kappa_rad_per_s, sigma_rad_per_s) record file.

    Also accepts the six-column simulation record (taking columns
    t, kappa_hat, sigma).  '#' lines and a header row are skipped; rows
    with a wrong field count or a non-finite t, kappa or sigma raise with
    their line number.
    """
    times, values, sigmas = [], [], []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split(",")
            if not times and _looks_like_header(fields):
                continue
            if len(fields) == 3:
                t_idx, k_idx, s_idx = 0, 1, 2
            elif len(fields) == 6:
                t_idx, k_idx, s_idx = 0, 4, 5
            else:
                raise ValueError(
                    f"{path}:{lineno}: expected 3 columns "
                    "(t_unix_s, kappa_rad_per_s, sigma_rad_per_s) or a "
                    f"6-column simulation record, got {len(fields)}")
            try:
                row = [float(fields[i]) for i in (t_idx, k_idx, s_idx)]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            if not all(math.isfinite(x) for x in row):
                raise ValueError(f"{path}:{lineno}: non-finite value in "
                                 "t, kappa or sigma")
            times.append(row[0])
            values.append(row[1])
            sigmas.append(row[2])
    if not times:
        raise ValueError(f"{path}: no data rows")
    return np.array(times), np.array(values), np.array(sigmas)


def _looks_like_header(fields) -> bool:
    try:
        float(fields[0])
    except ValueError:
        return True
    return False


def write_fit_report(out: IO[str], fit: HarmonicFit,
                     bounds: np.ndarray | None = None,
                     species_label: str | None = None) -> None:
    """Key-value fit report with the covariance lower triangle."""
    out.write(f"n_frequencies = {len(fit.frequencies)}\n")
    out.write(f"epoch_s = {fit.t0:.17g}\n")
    out.write(f"static_rad_per_s = {fit.static_term:.17g}\n")
    for k, omega in enumerate(fit.frequencies):
        out.write(f"omega_{k}_rad_per_s = {omega:.17g}\n")
        out.write(f"cos_amp_{k}_rad_per_s = {fit.cos_amplitude(k):.17g}\n")
        out.write(f"sin_amp_{k}_rad_per_s = {fit.sin_amplitude(k):.17g}\n")
        out.write(f"cos_sigma_{k}_rad_per_s = {fit.cos_sigma(k):.17g}\n")
        out.write(f"sin_sigma_{k}_rad_per_s = {fit.sin_sigma(k):.17g}\n")
        out.write(f"quad_amp_{k}_rad_per_s = {fit.quadrature_amplitude(k):.17g}\n")
        out.write(f"quad_sigma_{k}_rad_per_s = {fit.quadrature_sigma(k):.17g}\n")
        if bounds is not None:
            out.write(f"tensor_bound_{k} = {bounds[k]:.17g}\n")
    if species_label is not None:
        out.write(f"species = {species_label}\n")
    out.write(f"chi_squared = {fit.chi_squared:.17g}\n")
    out.write(f"dof = {fit.dof}\n")
    out.write(f"condition_number = {fit.condition_number:.17g}\n")
    n = fit.covariance.shape[0]
    for i in range(n):
        row = ",".join(f"{fit.covariance[i, j]:.17g}" for j in range(i + 1))
        out.write(f"covariance_row_{i} = {row}\n")
