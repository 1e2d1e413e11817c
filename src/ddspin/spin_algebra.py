"""Exact angular-momentum algebra for a single spin J.

Operator matrices, axis-phase rotations, Wigner 3j/6j symbols, and the
rank-2 tensor matrix elements that turn a reduced matrix element (in
atomic units) into a quadratic-in-m level shift.

Conventions used throughout the package:

* Half-integers (J, m, I, F) are carried as *twice-value integers*, so
  J = 7/2 is ``twice_j = 7`` and m = -3/2 is ``twice_m = -3``.  This keeps
  selection rules exact and the values hashable.
* The basis of a spin-J system is ordered by ascending m, index
  ``i <-> m = -J + i``.
* hbar = 1; rotations are ``exp(i * theta * (Jx cos(phi) - Jy sin(phi)))``
  with the plus sign in the exponent (see the sequence module for the
  matching evolution convention).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Iterable

import numpy as np

# Hartree-to-hertz conversion E_h/h (CODATA).
HARTREE_HZ = 6.579683920502e15


def as_twice(value: int | float | str | Fraction) -> int:
    """Normalize a half-integer given as '7/2', 3.5, Fraction(7, 2) or 4
    to its exact twice-value integer representation."""
    if isinstance(value, bool):
        raise TypeError("boolean is not a half-integer")
    if isinstance(value, int):
        return 2 * value
    if isinstance(value, Fraction):
        frac = value
    elif isinstance(value, float):
        frac = Fraction(value).limit_denominator(2)
        if frac != Fraction(value):
            raise ValueError(f"{value!r} is not a half-integer")
    elif isinstance(value, str):
        text = value.strip()
        try:
            if "/" in text:
                num, den = text.split("/")
                frac = Fraction(int(num), int(den))
            else:
                return as_twice(float(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse half-integer from {value!r}") from exc
    else:
        raise TypeError(f"cannot interpret {type(value).__name__} as half-integer")
    doubled = frac * 2
    if doubled.denominator != 1:
        raise ValueError(f"{value!r} is not a half-integer")
    return int(doubled)


def _require_twice_int(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(
            f"{name} must be a twice-value integer (got {value!r}); "
            "use as_twice() to convert half-integers"
        )
    return int(value)


@dataclass(frozen=True)
class SpinSystem:
    """A spin-J multiplet, J given as a twice-value integer >= 1."""

    twice_j: int

    def __post_init__(self):
        _require_twice_int("twice_j", self.twice_j)
        if self.twice_j < 1:
            raise ValueError("twice_j must be >= 1 (dim = 2J+1 >= 2)")

    @property
    def j(self) -> float:
        return self.twice_j / 2.0

    @property
    def dim(self) -> int:
        return self.twice_j + 1

    @property
    def twice_m_values(self) -> tuple[int, ...]:
        return tuple(range(-self.twice_j, self.twice_j + 1, 2))

    @property
    def m_values(self) -> np.ndarray:
        return np.arange(-self.twice_j, self.twice_j + 1, 2) / 2.0

    def index_of(self, twice_m: int) -> int:
        """Basis index of |J, m>, with m ascending."""
        _require_twice_int("twice_m", twice_m)
        if abs(twice_m) > self.twice_j or (self.twice_j - twice_m) % 2:
            raise ValueError(f"twice_m={twice_m} invalid for twice_j={self.twice_j}")
        return (twice_m + self.twice_j) // 2


def _check_unitary(mat: np.ndarray) -> None:
    if np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0]))) > 1e-12:
        raise ValueError("matrix flagged unitary is not unitary")


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """A square complex matrix checked to be unitary to 1e-12: the
    propagator returned by sequence_unitary, dd_block_unitary and
    integrate_noisy.  The stored array is read-only."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("matrix must be square")
        _check_unitary(mat)
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


@lru_cache(maxsize=64)
def build_angular_momentum_ops(sys: SpinSystem) -> tuple[np.ndarray, ...]:
    """(Jx, Jy, Jz) as read-only matrices in the ascending-m basis.

    Jz is diagonal with entries m; <m+1|J+|m> = sqrt(J(J+1) - m(m+1));
    Jx = (J+ + J-)/2 and Jy = (J+ - J-)/(2i).  Each is checked to be
    hermitian to 1e-13 relative to its largest entry.
    """
    j = sys.j
    m = sys.m_values
    jplus = np.zeros((sys.dim, sys.dim), dtype=complex)
    for i in range(sys.dim - 1):
        jplus[i + 1, i] = math.sqrt(j * (j + 1) - m[i] * (m[i] + 1))
    jminus = jplus.conj().T
    ops = ((jplus + jminus) / 2.0, (jplus - jminus) / 2.0j,
           np.diag(m.astype(complex)))
    for op in ops:
        if np.max(np.abs(op - op.conj().T)) > 1e-13 * np.max(np.abs(op)):
            raise ValueError("matrix flagged hermitian is not hermitian")
        op.setflags(write=False)
    return ops


@lru_cache(maxsize=4096)
def _rotation_matrix(twice_j: int, phi: float, theta: float) -> np.ndarray:
    jx, jy, _ = build_angular_momentum_ops(SpinSystem(twice_j))
    gen = math.cos(phi) * jx - math.sin(phi) * jy
    w, v = np.linalg.eigh(gen)
    u = (v * np.exp(1j * theta * w)) @ v.conj().T
    _check_unitary(u)
    u.setflags(write=False)
    return u


def rotation(sys: SpinSystem, phi: float, theta: float) -> np.ndarray:
    """exp(i * theta * (Jx cos(phi) - Jy sin(phi))), computed by
    eigendecomposition of the Hermitian generator (exact at these sizes).

    The matrix is cached and read-only: repeat calls with the same
    (J, phi, theta) return the same array.
    """
    if not (math.isfinite(phi) and math.isfinite(theta)):
        raise ValueError("phi and theta must be finite")
    return _rotation_matrix(sys.twice_j, float(phi), float(theta))


def t20_geometric_factor(twice_j: int, twice_m: int) -> float:
    """Geometric factor of the diagonal rank-2 tensor matrix element:

        (-J(J+1) + 3 m^2) / sqrt((2J+3)(J+1)(2J+1)J(2J-1))

    The m^2 dependence of the level shift lives entirely in this factor.
    Requires J >= 1; a rank-2 tensor has no matrix element inside a
    J = 1/2 multiplet.
    """
    tj = _require_twice_int("twice_j", twice_j)
    tm = _require_twice_int("twice_m", twice_m)
    if tj < 2:
        raise ValueError("rank-2 tensor requires J >= 1")
    if abs(tm) > tj or (tj - tm) % 2:
        raise ValueError(f"twice_m={tm} invalid for twice_j={tj}")
    # Numerator and radicand are exact integers in the twice-value scheme.
    num = 3 * tm * tm - tj * (tj + 2)
    rad = (tj + 3) * (tj + 2) * (tj + 1) * tj * (tj - 1)
    return num / (2.0 * math.sqrt(rad))


@dataclass(frozen=True)
class IonSpecies:
    """One row of the species table: a probe state and its reduced
    rank-2 matrix element in atomic units."""

    label: str
    n_electrons: int
    configuration: str
    twice_j: int
    reduced_me_au: float

    def __post_init__(self):
        _require_twice_int("twice_j", self.twice_j)
        if self.twice_j < 2:
            raise ValueError("species must have J >= 1 (rank-2 selection rule)")
        if not math.isfinite(self.reduced_me_au) or self.reduced_me_au < 0:
            raise ValueError("reduced_me_au must be finite and >= 0")

    @property
    def system(self) -> SpinSystem:
        return SpinSystem(self.twice_j)


def tensor_level_shift(species: IonSpecies, twice_m_hi: int, twice_m_lo: int,
                    coefficient: float) -> float:
    """|Delta E / h| in Hz between two m levels for a tensor coefficient coefficient.

    The shift is (1/6) |factor(m_hi) - factor(m_lo)| * <J||T2||J> * coefficient,
    converted from atomic units with E_h/h.
    """
    f_hi = t20_geometric_factor(species.twice_j, twice_m_hi)
    f_lo = t20_geometric_factor(species.twice_j, twice_m_lo)
    return abs(f_hi - f_lo) * species.reduced_me_au * abs(coefficient) * HARTREE_HZ / 6.0


def tensor_kappa(species: IonSpecies, coefficient: float) -> float:
    """Coefficient of m^2 in the tensor level shift, as an angular
    frequency in rad/s (divide by 2*pi for Hz).

    This is the per-unit-m^2 form of tensor_level_shift:
    tensor_level_shift(hi, lo) == (tensor_kappa / 2 pi) * (m_hi^2 - m_lo^2).
    """
    tj = species.twice_j
    rad = (tj + 3) * (tj + 2) * (tj + 1) * tj * (tj - 1)
    cycles = species.reduced_me_au * coefficient * HARTREE_HZ / math.sqrt(rad)
    return 2.0 * math.pi * cycles


# --- Wigner symbols (Racah closed forms, log-factorial table) ---------------

_LNFACT = [0.0, 0.0]


def _lnfact(n: int) -> float:
    while len(_LNFACT) <= n:
        _LNFACT.append(_LNFACT[-1] + math.log(len(_LNFACT)))
    return _LNFACT[n]


def _triangle_ok(ta: int, tb: int, tc: int) -> bool:
    return (abs(ta - tb) <= tc <= ta + tb) and (ta + tb + tc) % 2 == 0


def _ln_triangle(ta: int, tb: int, tc: int) -> float:
    return 0.5 * (_lnfact((ta + tb - tc) // 2)
                  + _lnfact((ta - tb + tc) // 2)
                  + _lnfact((-ta + tb + tc) // 2)
                  - _lnfact((ta + tb + tc) // 2 + 1))


def wigner_3j(tj1: int, tj2: int, tj3: int,
              tm1: int, tm2: int, tm3: int) -> float:
    """3j symbol; all six arguments are twice-value integers.

    Violated selection rules (triangle, m-sum, projection range) return 0.
    """
    args = [_require_twice_int(n, v) for n, v in
            (("tj1", tj1), ("tj2", tj2), ("tj3", tj3),
             ("tm1", tm1), ("tm2", tm2), ("tm3", tm3))]
    tj1, tj2, tj3, tm1, tm2, tm3 = args
    if min(tj1, tj2, tj3) < 0:
        raise ValueError("angular momenta must be >= 0")
    for tj, tm in ((tj1, tm1), (tj2, tm2), (tj3, tm3)):
        if (tj - tm) % 2:
            raise ValueError("m must differ from j by an integer")
    if tm1 + tm2 + tm3 != 0:
        return 0.0
    if not _triangle_ok(tj1, tj2, tj3):
        return 0.0
    if abs(tm1) > tj1 or abs(tm2) > tj2 or abs(tm3) > tj3:
        return 0.0

    ln_pref = (_ln_triangle(tj1, tj2, tj3)
               + 0.5 * (_lnfact((tj1 + tm1) // 2) + _lnfact((tj1 - tm1) // 2)
                        + _lnfact((tj2 + tm2) // 2) + _lnfact((tj2 - tm2) // 2)
                        + _lnfact((tj3 + tm3) // 2) + _lnfact((tj3 - tm3) // 2)))
    # Sum limits in twice-value units (k itself is an ordinary integer).
    k_min = max(0, (tj2 - tj3 - tm1) // 2, (tj1 - tj3 + tm2) // 2)
    k_max = min((tj1 + tj2 - tj3) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    total = 0.0
    for k in range(k_min, k_max + 1):
        ln_den = (_lnfact(k)
                  + _lnfact((tj1 + tj2 - tj3) // 2 - k)
                  + _lnfact((tj1 - tm1) // 2 - k)
                  + _lnfact((tj2 + tm2) // 2 - k)
                  + _lnfact((tj3 - tj2 + tm1) // 2 + k)
                  + _lnfact((tj3 - tj1 - tm2) // 2 + k))
        total += (-1.0) ** k * math.exp(ln_pref - ln_den)
    phase = (-1.0) ** ((tj1 - tj2 - tm3) // 2)
    return phase * total


def wigner_6j(tj1: int, tj2: int, tj3: int,
              tj4: int, tj5: int, tj6: int) -> float:
    """6j symbol {j1 j2 j3; j4 j5 j6}; arguments are twice-value integers.

    Any violated triangle condition returns 0.
    """
    args = [_require_twice_int(f"tj{i+1}", v) for i, v in
            enumerate((tj1, tj2, tj3, tj4, tj5, tj6))]
    tj1, tj2, tj3, tj4, tj5, tj6 = args
    if min(args) < 0:
        raise ValueError("angular momenta must be >= 0")
    triads = ((tj1, tj2, tj3), (tj1, tj5, tj6), (tj4, tj2, tj6), (tj4, tj5, tj3))
    if not all(_triangle_ok(*t) for t in triads):
        return 0.0

    ln_pref = sum(_ln_triangle(*t) for t in triads)
    s1 = (tj1 + tj2 + tj3) // 2
    s2 = (tj1 + tj5 + tj6) // 2
    s3 = (tj4 + tj2 + tj6) // 2
    s4 = (tj4 + tj5 + tj3) // 2
    t1 = (tj1 + tj2 + tj4 + tj5) // 2
    t2 = (tj2 + tj3 + tj5 + tj6) // 2
    t3 = (tj3 + tj1 + tj6 + tj4) // 2
    total = 0.0
    for z in range(max(s1, s2, s3, s4), min(t1, t2, t3) + 1):
        ln_term = (_lnfact(z + 1)
                   - _lnfact(z - s1) - _lnfact(z - s2)
                   - _lnfact(z - s3) - _lnfact(z - s4)
                   - _lnfact(t1 - z) - _lnfact(t2 - z) - _lnfact(t3 - z))
        total += (-1.0) ** z * math.exp(ln_pref + ln_term)
    return total


def hyperfine_reduced_me(twice_j_prime: int, twice_j: int, twice_i: int,
                         twice_f_prime: int, twice_f: int,
                         reduced_me: float) -> float:
    """Recouple an electronic reduced matrix element onto hyperfine levels:

        (-1)^(F+J'+I) sqrt((2F'+1)(2F+1)) {J I F; F' 2 J'} <J'||T2||J>

    Triangle violations are selection rules and return 0.
    """
    tjp = _require_twice_int("twice_j_prime", twice_j_prime)
    tj = _require_twice_int("twice_j", twice_j)
    ti = _require_twice_int("twice_i", twice_i)
    tfp = _require_twice_int("twice_f_prime", twice_f_prime)
    tf = _require_twice_int("twice_f", twice_f)
    six_j = wigner_6j(tj, ti, tf, tfp, 4, tjp)
    if six_j == 0.0:
        return 0.0
    phase = (-1.0) ** ((tf + tjp + ti) // 2)
    return phase * math.sqrt((tfp + 1.0) * (tf + 1.0)) * six_j * reduced_me


# --- Species table I/O -------------------------------------------------------

_SPECIES_COLUMNS = ("label", "n_electrons", "configuration", "twice_J",
                    "reduced_me_au")


def _parse_species_rows(lines: Iterable[str], source: str = "<species>") -> list[IonSpecies]:
    species = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = next(csv.reader([line]))
        if len(fields) != len(_SPECIES_COLUMNS):
            raise ValueError(
                f"{source}:{lineno}: expected {len(_SPECIES_COLUMNS)} columns "
                f"{_SPECIES_COLUMNS}, got {len(fields)}"
            )
        try:
            species.append(IonSpecies(
                label=fields[0].strip(),
                n_electrons=int(fields[1]),
                configuration=fields[2].strip(),
                twice_j=int(fields[3]),
                reduced_me_au=float(fields[4]),
            ))
        except ValueError as exc:
            raise ValueError(f"{source}:{lineno}: {exc}") from exc
    return species


def load_species_file(path: str | Path) -> list[IonSpecies]:
    """Read a delimiter-separated species table.

    Columns: label, n_electrons, configuration, twice_J, reduced_me_au.
    Lines starting with '#' are comments.
    """
    path = Path(path)
    with path.open() as fh:
        return _parse_species_rows(fh, source=str(path))


def default_species_table() -> list[IonSpecies]:
    """The species table shipped with the package."""
    text = resources.files("ddspin").joinpath("data/species_table.csv").read_text()
    return _parse_species_rows(text.splitlines(), source="species_table.csv")
