import io
import math

import numpy as np
import pytest

from ddspin.sensitivity import (
    FringeFunction,
    SensitivityReport,
    delta_kappa,
    entangled_benchmark,
    find_root,
    optimal_working_point,
    write_report,
)
from ddspin.sequence import SequenceConfig, fringe_probability, sequence_unitary
from ddspin.spin_algebra import IonSpecies, SpinSystem, tensor_kappa

S72 = SpinSystem(7)
YB = IonSpecies("Yb+", 69, "4f^13 6s^2", 7, 135.0)

# steepest-slope points of the phi=pi fringes for J=7/2, quoted to two digits
REFERENCE_WORKING_POINTS = {
    1: (0.15, 0.10),
    3: (0.17, 0.11),
    5: (0.20, 0.17),
    7: (0.22, 0.28),
}


def test_fringe_function_matches_engine():
    for tm, phi in [(1, math.pi), (-3, 0.9), (7, 0.0)]:
        fringe = FringeFunction(S72, tm, phi)
        for chi in np.linspace(0.0, math.pi, 41):
            assert fringe(float(chi)) == pytest.approx(
                fringe_probability(S72, tm, float(chi), phi), abs=1e-13)
    array_eval = FringeFunction(S72, 1, math.pi)(np.array([0.1, 0.2]))
    assert array_eval.shape == (2,)


def test_fringe_matches_sequence_unitary():
    # the kernel against the explicit matrix product, every m of each J
    for twice_j in (1, 2, 5, 7, 12):
        sys = SpinSystem(twice_j)
        for phi in (math.pi, 0.9):
            for tm in sys.twice_m_values:
                fringe = FringeFunction(sys, tm, phi)
                i = sys.index_of(tm)
                for chi in np.linspace(-1.0, 7.0, 17):
                    cfg = SequenceConfig(sys, 0.25, 1, float(chi), phi, tm)
                    u = sequence_unitary(cfg).matrix
                    assert abs(fringe(float(chi)) - abs(u[i, i]) ** 2) <= 1e-13


def test_fringe_derivatives_match_central_differences():
    h = 1e-5
    chis = np.linspace(0.01, 2 * math.pi, 97)
    for sys, tm, phi in [(S72, 1, math.pi), (S72, -5, 0.9), (SpinSystem(12), 4, math.pi),
                         (SpinSystem(5), 3, 2.0)]:
        fringe = FringeFunction(sys, tm, phi)
        derivs = fringe(chis, 3)
        above, below = fringe(chis + h, 3), fringe(chis - h, 3)
        for n in (1, 2, 3):
            central = (above[n - 1] - below[n - 1]) / (2 * h)
            assert np.max(np.abs(derivs[n] - central)) <= 1e-6 * np.max(np.abs(central))


def test_fringe_array_evaluation_equals_scalar():
    for sys, tm, phi in [(SpinSystem(5), -3, 1.3), (S72, 1, math.pi), (SpinSystem(12), 0, 0.4)]:
        fringe = FringeFunction(sys, tm, phi)
        for n in (2, 7, 65, 2001):
            chis = np.linspace(-0.5, 4.0, n)
            for order in (0, 1, 3):
                array_values = fringe(chis, order)
                scalar_values = [fringe(float(chi), order) for chi in chis]
                if order == 0:
                    assert np.array_equal(array_values, scalar_values)
                else:
                    assert np.array_equal(np.array(array_values).T, scalar_values)
                    assert np.array_equal(array_values[0], fringe(chis))
    grid = FringeFunction(S72, 1, math.pi)(np.linspace(0, 1, 12).reshape(3, 4), 2)
    assert [v.shape for v in grid] == [(3, 4)] * 3


def test_find_root_stays_in_bracket_and_stops_when_flat():
    targets = np.array([0.3, -1.7, 2.5, 0.0])
    lo, hi = np.array([-1.0, -3.0, 0.0, -0.1]), np.array([4.0, 0.0, 2.5, 5.0])
    roots = find_root(lambda x: (x ** 3 - targets ** 3, 3 * x ** 2), lo, hi)
    assert np.all((lo <= roots) & (roots <= hi))
    assert np.max(np.abs(roots - targets)) <= 1e-12
    # Newton overshoots arctan from far away; bisection takes over
    root = find_root(lambda x: (np.arctan(x - 9.0), 1.0 / (1.0 + (x - 9.0) ** 2)),
                     -50.0, 10.0)
    assert root.shape == () and abs(root - 9.0) <= 1e-12
    # no slope anywhere: the search still ends, inside the bracket
    flat = find_root(lambda x: (np.ones_like(x), np.zeros_like(x)), lo, hi)
    assert np.all((lo <= flat) & (flat <= hi))
    zero = find_root(lambda x: (np.zeros_like(x), np.zeros_like(x)), lo, hi)
    assert np.array_equal(zero, lo)


@pytest.mark.filterwarnings("ignore:variance")
def test_delta_kappa_closed_form_fringe():
    # sine fringe of the entangled register, F = (1 + sin(12 N chi))/2,
    # read at chi = 0 by one parity probe
    for n_ions in (2, 6):
        bench = entangled_benchmark(n_ions)
        value = delta_kappa(0.5, bench.dF_dchi_max, 1, 1.0, 1.0)
        assert value == pytest.approx(1.0 / (12.0 * n_ions), rel=1e-12)
        assert value == pytest.approx(bench.delta_kappa_coeff, rel=1e-12)


def test_delta_kappa_scalings():
    f, slope = FringeFunction(S72, 1, math.pi)(0.15, 1)
    base = delta_kappa(f, slope, 1, 100.0, 1.0)
    assert delta_kappa(f, slope, 2, 100.0, 1.0) == \
        pytest.approx(base / math.sqrt(2), rel=1e-12)
    assert delta_kappa(f, slope, 1, 200.0, 1.0) == \
        pytest.approx(base / math.sqrt(2), rel=1e-12)


def test_delta_kappa_error_cases():
    with pytest.raises(ValueError, match="no projection noise information"):
        delta_kappa(1.0, 0.3, 1, 1.0, 1.0)
    with pytest.raises(ValueError, match="insensitive working point"):
        delta_kappa(0.5, 0.0, 1, 1.0, 1.0)
    # the real fringe extremum at chi = 0 trips one of the two guards
    f, slope = FringeFunction(S72, 1, math.pi)(0.0, 1)
    with pytest.raises(ValueError):
        delta_kappa(f, slope, 1, 1.0, 1.0)


def test_delta_kappa_warns_on_small_variance():
    f, slope = FringeFunction(S72, 1, math.pi)(0.15, 1)
    with pytest.warns(UserWarning, match="Gaussian"):
        delta_kappa(f, slope, 1, 2.0, 1.0)


@pytest.mark.filterwarnings("ignore:variance")
def test_delta_kappa_invariant_under_fringe_flip():
    fringe = FringeFunction(S72, 3, math.pi)
    for chi in (0.1, 0.17, 0.4):
        f, slope = fringe(chi, 1)
        assert delta_kappa(f, slope, 4, 50.0, 2.0) == \
            pytest.approx(delta_kappa(1.0 - f, -slope, 4, 50.0, 2.0), rel=1e-12)


def test_working_points_match_quoted_values():
    for tm, (chi_ref, coeff_ref) in REFERENCE_WORKING_POINTS.items():
        report = optimal_working_point(S72, tm, math.pi)
        assert report.chi_m == pytest.approx(chi_ref, rel=0.10)
        assert report.delta_kappa_coeff == pytest.approx(coeff_ref, rel=0.10)


def test_working_point_is_stationary():
    report = optimal_working_point(S72, 1, math.pi)
    fringe = FringeFunction(S72, 1, math.pi)
    here = abs(fringe(report.chi_m, 1)[1])
    step = fringe.period / 2000.0
    for sign in (-1.0, 1.0):
        nearby = abs(fringe(report.chi_m + sign * 1e-5 * step, 1)[1])
        assert nearby <= here + 1e-9


def test_coefficients_monotone_in_m():
    coeffs = [optimal_working_point(S72, tm, math.pi).delta_kappa_coeff
              for tm in (1, 3, 5, 7)]
    assert all(a <= b + 1e-12 for a, b in zip(coeffs, coeffs[1:]))


def test_entangled_benchmark_closed_form():
    for n_ions in (2, 4, 10, 16):
        report = entangled_benchmark(n_ions)
        assert report.delta_kappa_coeff == pytest.approx(1.0 / (12 * n_ions),
                                                         abs=1e-15)
        assert report.dF_dchi_max == 6.0 * n_ions
    assert entangled_benchmark(2).delta_kappa_coeff == pytest.approx(0.0417, rel=1e-2)
    with pytest.raises(ValueError):
        entangled_benchmark(3)
    with pytest.raises(ValueError):
        entangled_benchmark(0)


def test_methods_comparable_at_small_n():
    # two probes, separable readout vs two-ion entangled register
    separable = optimal_working_point(S72, 1, math.pi).delta_kappa_coeff / math.sqrt(2)
    entangled = entangled_benchmark(2).delta_kappa_coeff
    assert 0.5 < separable / entangled < 2.5


def test_tensor_bound_examples():
    # a shift resolution bounds the tensor coefficient through the
    # species' per-unit kappa
    dk = 2 * math.pi * 5.1e-3
    bound = dk / tensor_kappa(YB, 1.0)
    assert bound == pytest.approx(1e-18, rel=0.01)
    half_me = IonSpecies("Yb half", 69, "4f^13 6s^2", 7, 135.0 / 2)
    assert dk / tensor_kappa(half_me, 1.0) == pytest.approx(2 * bound, rel=1e-12)


def test_bound_ratio_between_species():
    from ddspin.spin_algebra import tensor_level_shift

    ca = IonSpecies("Ca+", 19, "3d", 5, 9.3)
    u34 = IonSpecies("U34+", 58, "4f^12", 12, 769.0)
    # full m-range shifts differ by the quoted factor of about 67
    shift_ratio = (tensor_level_shift(u34, 12, 0, 1.0)
                   / tensor_level_shift(ca, 5, 1, 1.0))
    assert shift_ratio == pytest.approx(3.0e17 / 4.5e15, rel=0.05)
    # at equal shift resolution the bound tightens by the per-m^2 ratio
    bound_ratio = tensor_kappa(u34, 1.0) / tensor_kappa(ca, 1.0)
    assert bound_ratio == pytest.approx(shift_ratio * 6.0 / 36.0, rel=1e-12)


@pytest.mark.filterwarnings("ignore:variance")
def test_contrast_sweep_degrades_sensitivity():
    # contrast c scales the fringe toward the uniform baseline 1/(2J+1):
    # F -> c F + (1 - c)/dim and dF/dchi -> c dF/dchi at the ideal chi_m
    report = optimal_working_point(S72, 1, math.pi)
    f, slope = FringeFunction(S72, 1, math.pi)(report.chi_m, 1)
    coeffs = [delta_kappa(c * f + (1.0 - c) / S72.dim, c * slope, 1, 1.0, 1.0)
              for c in (1.0, 0.8, 0.5)]
    assert coeffs[0] < coeffs[1] < coeffs[2]
    assert coeffs[0] == pytest.approx(report.delta_kappa_coeff, rel=1e-9)


def test_report_validation_and_export():
    with pytest.raises(ValueError):
        SensitivityReport(1, math.pi, 0.15, 5.0, 0.0, "s", "a")
    report = optimal_working_point(S72, 5, math.pi)
    buf = io.StringIO()
    write_report(buf, report)
    text = buf.getvalue()
    assert "twice_m = 5" in text
    assert "chi_m_rad" in text and "delta_kappa_coeff_rad" in text
