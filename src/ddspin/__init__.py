"""ddspin: dynamical-decoupling spin simulation and shift-sensitivity analysis.

The package simulates generalized Ramsey sequences on a single spin J whose
free evolution carries a quadratic-in-m level shift (coefficient kappa) on
top of a noisy linear Zeeman term, and provides the statistical machinery to
turn repeated population measurements into bounds on a slowly modulated
tensor shift.
"""

from ddspin.spin_algebra import (
    HARTREE_HZ,
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

__version__ = "0.1.0"
