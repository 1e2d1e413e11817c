import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddspin.spin_algebra import (
    IonSpecies,
    OperatorMatrix,
    SpinSystem,
    as_twice,
    build_angular_momentum_ops,
    default_species_table,
    hyperfine_reduced_me,
    tensor_kappa,
    load_species_file,
    tensor_level_shift,
    rotation,
    t20_geometric_factor,
    wigner_3j,
    wigner_6j,
)
from oracles import (
    brute_hyperfine_reduced_me,
    brute_wigner_6j,
    expm_scaling_squaring,
)

YB = IonSpecies("Yb+", 69, "4f^13 6s^2", 7, 135.0)


def test_as_twice_parsing():
    assert as_twice("7/2") == 7
    assert as_twice("3.5") == 7
    assert as_twice("-7/2") == -7
    assert as_twice(4) == 8
    assert as_twice(Fraction(3, 2)) == 3
    with pytest.raises(ValueError):
        as_twice("7/3")
    with pytest.raises(ValueError):
        as_twice(0.3)


def test_spin_system_basis():
    sys = SpinSystem(7)
    assert sys.dim == 8
    assert sys.twice_m_values == (-7, -5, -3, -1, 1, 3, 5, 7)
    assert sys.index_of(-7) == 0
    assert sys.index_of(7) == 7
    with pytest.raises(ValueError):
        sys.index_of(2)
    with pytest.raises(ValueError):
        SpinSystem(0)


def test_operator_matrix_checks_unitarity():
    good = np.array([[0, 1j], [1j, 0]])
    assert OperatorMatrix(good).matrix.flags.writeable is False
    with pytest.raises(ValueError, match="must be square"):
        OperatorMatrix(np.ones((2, 3)))
    with pytest.raises(ValueError, match="not unitary"):
        OperatorMatrix(np.array([[1, 0], [0, 2]]))


def test_spin_half_is_defining_representation():
    jx, jy, jz = build_angular_momentum_ops(SpinSystem(1))
    half = 0.5
    assert np.allclose(jz, np.diag([-half, half]))
    assert np.allclose(jx, half * np.array([[0, 1], [1, 0]]))
    assert np.allclose(jy, half * np.array([[0, 1j], [-1j, 0]]))
    for op in (jx, jy, jz):
        assert sorted(np.linalg.eigvalsh(op)) == pytest.approx([-0.5, 0.5])


@given(twice_j=st.integers(min_value=1, max_value=15))
def test_commutation_relations(twice_j):
    jx, jy, jz = build_angular_momentum_ops(SpinSystem(twice_j))
    for op in (jx, jy, jz):
        assert np.array_equal(op, op.conj().T)
        assert op.flags.writeable is False
    assert np.max(np.abs(jx @ jy - jy @ jx - 1j * jz)) <= 1e-13
    assert np.max(np.abs(jy @ jz - jz @ jy - 1j * jx)) <= 1e-13
    assert np.max(np.abs(jz @ jx - jx @ jz - 1j * jy)) <= 1e-13


@given(twice_j=st.integers(min_value=1, max_value=15))
def test_casimir(twice_j):
    sys = SpinSystem(twice_j)
    jx, jy, jz = build_angular_momentum_ops(sys)
    total = jx @ jx + jy @ jy + jz @ jz
    expected = sys.j * (sys.j + 1) * np.eye(sys.dim)
    assert np.max(np.abs(total - expected)) <= 1e-12


def test_jz_squared_trace_closed_form():
    # sum of m^2 over the multiplet is J(J+1)(2J+1)/3
    jz = build_angular_momentum_ops(SpinSystem(7))[2]
    assert np.trace(jz @ jz).real == pytest.approx(42.0)


def test_rotation_identity_at_zero_angle():
    u = rotation(SpinSystem(7), 0.3, 0.0)
    assert np.max(np.abs(u - np.eye(8))) <= 1e-14


def test_rotation_is_cached_and_read_only():
    sys = SpinSystem(7)
    u = rotation(sys, 0.3, 1.1)
    assert rotation(sys, 0.3, 1.1) is u
    assert u.flags.writeable is False
    with pytest.raises(ValueError):
        u[0, 0] = 0.0
    for phi, theta in ((math.nan, 1.0), (0.3, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            rotation(sys, phi, theta)


@given(
    twice_j=st.integers(min_value=1, max_value=12),
    phi=st.floats(-7.0, 7.0),
    theta=st.floats(-7.0, 7.0),
)
@settings(max_examples=60)
def test_rotation_matches_series_expm(twice_j, phi, theta):
    sys = SpinSystem(twice_j)
    jx, jy, _ = build_angular_momentum_ops(sys)
    gen = math.cos(phi) * jx - math.sin(phi) * jy
    reference = expm_scaling_squaring(1j * theta * gen)
    assert np.max(np.abs(rotation(sys, phi, theta) - reference)) <= 1e-12


def test_pi_rotation_kills_diagonal():
    # a pi rotation about an equatorial axis maps m -> -m up to phase
    sys = SpinSystem(7)
    u = rotation(sys, 0.0, math.pi)
    assert np.max(np.abs(np.diag(u))) <= 1e-13
    reference = expm_scaling_squaring(
        1j * math.pi * build_angular_momentum_ops(sys)[0])
    assert np.max(np.abs(u - reference)) <= 1e-12


def test_pi_y_pulse_flips_jz():
    sys = SpinSystem(7)
    jz = build_angular_momentum_ops(sys)[2]
    u = rotation(sys, math.pi / 2.0, math.pi)
    flipped = u @ jz @ u.conj().T
    assert np.max(np.abs(flipped + jz)) <= 1e-12


@given(
    twice_j=st.integers(min_value=1, max_value=12),
    phi=st.floats(-3.0, 3.0),
    theta1=st.floats(-3.0, 3.0),
    theta2=st.floats(-3.0, 3.0),
)
@settings(max_examples=60)
def test_rotation_one_parameter_group(twice_j, phi, theta1, theta2):
    sys = SpinSystem(twice_j)
    combined = rotation(sys, phi, theta1 + theta2)
    product = rotation(sys, phi, theta1) @ rotation(sys, phi, theta2)
    assert np.max(np.abs(combined - product)) <= 1e-12


@given(twice_j=st.integers(min_value=2, max_value=15))
def test_t20_traceless_and_even(twice_j):
    values = [t20_geometric_factor(twice_j, tm)
              for tm in range(-twice_j, twice_j + 1, 2)]
    assert sum(values) == pytest.approx(0.0, abs=1e-13)
    for tm in range(twice_j % 2, twice_j + 1, 2):
        assert t20_geometric_factor(twice_j, tm) == \
            t20_geometric_factor(twice_j, -tm)


def test_t20_derived_values():
    assert t20_geometric_factor(7, 7) - t20_geometric_factor(7, 1) == \
        pytest.approx(36.0 / math.sqrt(7560.0), rel=1e-14)
    assert t20_geometric_factor(12, 12) - t20_geometric_factor(12, 0) == \
        pytest.approx(108.0 / math.sqrt(90090.0), rel=1e-14)


def test_t20_rejects_spin_half():
    with pytest.raises(ValueError):
        t20_geometric_factor(1, 1)


def test_energy_shift_reference_species():
    ca = IonSpecies("Ca+", 19, "3d", 5, 9.3)
    u34 = IonSpecies("U34+", 58, "4f^12", 12, 769.0)
    assert tensor_level_shift(YB, 7, 1, 1.0) == pytest.approx(6.1e16, rel=0.02)
    assert tensor_level_shift(ca, 5, 1, 1.0) == pytest.approx(4.5e15, rel=0.02)
    assert tensor_level_shift(u34, 12, 0, 1.0) == pytest.approx(3.0e17, rel=0.02)


def test_tensor_kappa_reference_value():
    assert tensor_kappa(YB, 1.0) / (2 * math.pi) == pytest.approx(5.1e15, rel=0.01)
    assert tensor_kappa(YB, 0.0) == 0.0


@given(
    coefficient=st.floats(1e-20, 1.0),
    pair=st.sampled_from([(7, 1), (7, 3), (5, 1), (7, 5)]),
)
def test_shift_kappa_consistency(coefficient, pair):
    tm_hi, tm_lo = pair
    shift = tensor_level_shift(YB, tm_hi, tm_lo, coefficient)
    m_sq_span = (tm_hi ** 2 - tm_lo ** 2) / 4.0
    from_kappa = tensor_kappa(YB, coefficient) / (2 * math.pi) * m_sq_span
    assert shift == pytest.approx(from_kappa, rel=1e-12)


# --- Wigner symbols ----------------------------------------------------------

def test_3j_selection_rules():
    assert wigner_3j(4, 4, 4, 2, 2, 2) == 0.0          # m1+m2+m3 != 0
    assert wigner_3j(2, 2, 8, 0, 0, 0) == 0.0          # triangle violated
    with pytest.raises(TypeError):
        wigner_3j(1.5, 1, 1, 0, 0, 0)
    with pytest.raises(ValueError):
        wigner_3j(2, 2, 2, 1, 1, -2)                   # m-j parity mismatch


def test_3j_known_values():
    # (1/2 1/2 1; 1/2 1/2 -1) = -1/sqrt(3)
    assert wigner_3j(1, 1, 2, 1, 1, -2) == pytest.approx(-1 / math.sqrt(3), rel=1e-13)
    # (1 1 0; 1 -1 0) = 1/sqrt(3)
    assert wigner_3j(2, 2, 0, 2, -2, 0) == pytest.approx(1 / math.sqrt(3), rel=1e-13)
    # (2 2 2; 0 0 0) = -sqrt(2/35)
    assert wigner_3j(4, 4, 4, 0, 0, 0) == pytest.approx(-math.sqrt(2 / 35), rel=1e-13)


def _random_3j_args(rng):
    while True:
        tj1 = rng.randint(0, 9)
        tj2 = rng.randint(0, 9)
        options = list(range(abs(tj1 - tj2), tj1 + tj2 + 1, 2))
        tj3 = rng.choice(options)
        tm1 = rng.choice(range(-tj1, tj1 + 1, 2)) if tj1 else 0
        tm2 = rng.choice(range(-tj2, tj2 + 1, 2)) if tj2 else 0
        tm3 = -tm1 - tm2
        if abs(tm3) <= tj3:
            return tj1, tj2, tj3, tm1, tm2, tm3


def test_3j_symmetries():
    rng = random.Random(20240801)
    for _ in range(200):
        tj1, tj2, tj3, tm1, tm2, tm3 = _random_3j_args(rng)
        base = wigner_3j(tj1, tj2, tj3, tm1, tm2, tm3)
        sign = (-1.0) ** ((tj1 + tj2 + tj3) // 2)
        # even (cyclic) permutation: invariant
        assert wigner_3j(tj2, tj3, tj1, tm2, tm3, tm1) == pytest.approx(base, abs=1e-13)
        # odd permutation: column-exchange phase
        assert wigner_3j(tj2, tj1, tj3, tm2, tm1, tm3) == \
            pytest.approx(sign * base, abs=1e-13)
        # projection reversal: same phase
        assert wigner_3j(tj1, tj2, tj3, -tm1, -tm2, -tm3) == \
            pytest.approx(sign * base, abs=1e-13)


def test_3j_orthogonality():
    # sum over m1 of (2j3+1) (3j)^2 at fixed m3 is unity
    rng = random.Random(7)
    for _ in range(20):
        tj1, tj2, tj3, _, _, tm3 = _random_3j_args(rng)
        total = 0.0
        for tm1 in range(-tj1, tj1 + 1, 2):
            tm2 = -tm3 - tm1
            if abs(tm2) <= tj2:
                total += (tj3 + 1) * wigner_3j(tj1, tj2, tj3, tm1, tm2, tm3) ** 2
        assert total == pytest.approx(1.0, rel=1e-11)


def test_6j_zero_argument_closed_form():
    for ta, td, te in [(7, 7, 4), (5, 5, 4), (12, 12, 4), (3, 3, 2), (6, 2, 4)]:
        closed = (-1.0) ** ((ta + td + te) // 2) / math.sqrt((ta + 1) * (td + 1))
        assert wigner_6j(ta, 0, ta, td, te, td) == pytest.approx(closed, rel=1e-12)
        # the brute-force oracle must agree with the same independent form
        assert brute_wigner_6j(ta, 0, ta, td, te, td) == \
            pytest.approx(closed, rel=1e-11)


def _random_6j_args(rng):
    while True:
        ta, tb, td, te = (rng.randint(0, 7) for _ in range(4))
        cs = [c for c in range(abs(ta - tb), ta + tb + 1, 2)
              if abs(td - te) <= c <= td + te and (td + te + c) % 2 == 0]
        fs = [f for f in range(abs(ta - te), ta + te + 1, 2)
              if abs(td - tb) <= f <= td + tb and (td + tb + f) % 2 == 0]
        if cs and fs:
            return ta, tb, rng.choice(cs), td, te, rng.choice(fs)


def test_6j_against_brute_force_oracle():
    rng = random.Random(42)
    for _ in range(40):
        args = _random_6j_args(rng)
        assert wigner_6j(*args) == pytest.approx(brute_wigner_6j(*args), abs=1e-11)


def test_6j_symmetries():
    rng = random.Random(99)
    column_perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (1, 0, 2), (2, 1, 0)]
    for _ in range(40):
        t1, t2, t3, t4, t5, t6 = _random_6j_args(rng)
        upper = (t1, t2, t3)
        lower = (t4, t5, t6)
        base = wigner_6j(t1, t2, t3, t4, t5, t6)
        for perm in column_perms:
            permuted = wigner_6j(upper[perm[0]], upper[perm[1]], upper[perm[2]],
                                 lower[perm[0]], lower[perm[1]], lower[perm[2]])
            assert permuted == pytest.approx(base, abs=1e-12)
        # upper/lower exchange in two columns (all three pairs)
        assert wigner_6j(t4, t5, t3, t1, t2, t6) == pytest.approx(base, abs=1e-12)
        assert wigner_6j(t4, t2, t6, t1, t5, t3) == pytest.approx(base, abs=1e-12)
        assert wigner_6j(t1, t5, t6, t4, t2, t3) == pytest.approx(base, abs=1e-12)


def test_t20_factor_is_wigner_eckart_consistent():
    # (J 2 J; -m 0 m)(-1)^(J-m) is proportional to the geometric factor with
    # one J-dependent constant across the multiplet
    for twice_j in (2, 5, 7, 12):
        ratios = []
        for tm in range(-twice_j, twice_j + 1, 2):
            three_j = wigner_3j(twice_j, 4, twice_j, -tm, 0, tm)
            signed = (-1.0) ** ((twice_j - tm) // 2) * three_j
            factor = t20_geometric_factor(twice_j, tm)
            if abs(factor) > 1e-12:
                ratios.append(signed / factor)
        assert max(ratios) - min(ratios) <= 1e-12
        assert ratios[0] == pytest.approx(1.0, rel=1e-12)


# --- Hyperfine recoupling ----------------------------------------------------

def test_hyperfine_identity_without_nuclear_spin():
    for twice_j in (2, 3, 5, 7, 12, 15):
        out = hyperfine_reduced_me(twice_j, twice_j, 0, twice_j, twice_j, 135.0)
        assert out == pytest.approx(135.0, rel=1e-12)


def test_hyperfine_rank2_selection_rule():
    # |F - F'| = 3 exceeds the tensor rank
    assert hyperfine_reduced_me(7, 7, 7, 14, 8, 135.0) == 0.0


def test_hyperfine_matches_uncoupled_basis_oracle():
    value = hyperfine_reduced_me(7, 7, 1, 8, 8, 135.0)
    oracle = brute_hyperfine_reduced_me(7, 1, 8, 8, 135.0)
    assert value == pytest.approx(oracle, rel=1e-10)


# --- Species table -----------------------------------------------------------

def test_shipped_species_table():
    species = default_species_table()
    labels = [sp.label for sp in species]
    assert labels[0] == "Ca+"
    assert "Yb+" in labels and "U34+" in labels
    assert len(species) == len(set(labels))
    for sp in species:
        assert sp.twice_j >= 2
        assert sp.reduced_me_au > 0


def test_species_file_round_trip(tmp_path):
    path = tmp_path / "species.csv"
    path.write_text("# label,n_electrons,configuration,twice_J,reduced_me_au\n"
                    "Xx+,10,3d,5,42.0\n")
    species = load_species_file(path)
    assert species == [IonSpecies("Xx+", 10, "3d", 5, 42.0)]


def test_species_file_rejects_bad_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("Xx+,10,3d\n")
    with pytest.raises(ValueError, match="bad.csv:1"):
        load_species_file(path)
