"""stark-lab: exact group-ring algebra, Fitting ideals, certified leading
terms of Dirichlet L-series at s = 0, and a scenario harness checking
equivariant L-value identities on concrete abelian extensions of Q.

`__all__` is exactly what this module imports.  Three of its names have
no caller inside the package: they are the references that tests compare
production code against (`rational_solve` for the back-substitution in
`GLattice.dual_values`, and `Subgroup` with `norm_element` for
`norm_sum_identity`).
"""

from .ball import Ball, CBall, Undecided, working_precision
from .grpring import (AbelianGroup, Character, GroupRingElement, Subgroup,
                      norm_element)
from .hnf import rational_solve
from .sublat import HyperplaneSet, enumerate_omega_star, norm_sum_identity
from .zideal import (FiniteGModule, GIdealLattice, Presentation, annihilator,
                     augmentation_ideal, augmentation_ideal_power,
                     fitting_from_extension, fitting_ideal,
                     ideal_from_generators)
from .multilin import (GLattice, WedgeElement, det_pairing,
                       norm_decomposition_residual)
from .lfun import (AbelianFieldRealization, DirichletChar, LSpec,
                   bernoulli_value, hurwitz_jet, l_jet, stickelberger_element,
                   theoretical_order)
from .numfld import (QuadField, QuadElt, QuadIdeal, class_number,
                     fundamental_unit, kronecker, ray_class, s_unit_lattice)
from .biquad import BiquadField, BiquadSUnitLattice
from .verify import (Scenario, certificate_summary, run_acnf, run_scenario,
                     check_sign_criterion)

__all__ = [
    "Ball", "CBall", "Undecided", "working_precision",
    "AbelianGroup", "Character", "GroupRingElement", "Subgroup",
    "norm_element",
    "rational_solve",
    "HyperplaneSet", "enumerate_omega_star", "norm_sum_identity",
    "FiniteGModule", "GIdealLattice", "Presentation", "annihilator",
    "augmentation_ideal", "augmentation_ideal_power",
    "fitting_from_extension", "fitting_ideal", "ideal_from_generators",
    "GLattice", "WedgeElement", "det_pairing", "norm_decomposition_residual",
    "AbelianFieldRealization", "DirichletChar", "LSpec",
    "bernoulli_value", "hurwitz_jet", "l_jet", "stickelberger_element",
    "theoretical_order",
    "QuadField", "QuadElt", "QuadIdeal", "class_number", "fundamental_unit",
    "kronecker", "ray_class", "s_unit_lattice",
    "BiquadField", "BiquadSUnitLattice",
    "Scenario", "certificate_summary", "run_acnf", "run_scenario",
    "check_sign_criterion",
]

__version__ = "0.1.0"
