"""stark-lab: exact group-ring algebra, Fitting ideals, certified Dirichlet
L-jets, and a scenario harness checking equivariant L-value identities on
concrete abelian extensions of Q.
"""

from .ball import Ball, CBall, Undecided, working_precision
from .grpring import (AbelianGroup, Character, GroupRingElement, Subgroup,
                      affine_projection, idempotent, involution,
                      norm_element)
from .sublat import (HyperplaneSet, count_avoiding, enumerate_omega_star,
                     norm_sum_identity)
from .zideal import (FiniteGModule, GIdealLattice, Presentation, annihilator,
                     augmentation_ideal, augmentation_ideal_power,
                     fitting_from_extension, fitting_ideal,
                     ideal_from_generators, membership)
from .multilin import (GLattice, WedgeElement, bidual_member, det_pairing,
                       image_lattice, interior_contract,
                       norm_decomposition_residual, scaled_inclusion)
from .lfun import (AbelianFieldRealization, DirichletChar, Jet, LSpec,
                   bernoulli_value, hurwitz_jet, l_jet,
                   leading_term_element, stickelberger_element,
                   theoretical_order)
from .numfld import (QuadField, QuadElt, QuadIdeal, class_number,
                     fundamental_unit, kronecker, ray_class, s_unit_lattice)
from .biquad import BiquadField, BiquadSUnitLattice
from .verify import (Scenario, certificate_summary, run_acnf, run_scenario,
                     check_congruence_biquadratic, check_sign_criterion)

__version__ = "0.1.0"
