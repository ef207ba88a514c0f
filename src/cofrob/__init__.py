"""Exact verification of graded bialgebra structures and 2D open-closed TQFTs.

The library represents finitely generated Z-graded modules over an exact
coefficient field with Koszul-sign-correct multilinear operations, and
decides the axiom systems of infinitesimal anti-symmetric bialgebras,
coFrobenius bialgebras, algebraic Poincare duality, and graded 2D
open-closed TQFTs by exact map equality.
"""

from .fields import QQ, RationalField, PrimeField, field_from_name
from .core import (GradedModule, TensorSpace, Element, GradedMap, make_module,
                   apply, compose, map_equal, element_as_map, scalar_space)
from .tensor import (tensor_maps, twist, permute, Permutation, dual_module,
                     dual_map, ShiftMaps, shift_map, shift_module)
from .windows import WindowSpec
from .reports import CheckReport, Witness, Relation, check_relations, suite_passes
from .structures import (BialgebraData, check_cofrobenius, check_derived_identities,
                         check_involutive, direct_sum, counit_solve)
from .duality import (PairingHandle, CopairingHandle, pairing_handle,
                      copairing_handle, check_perfect, dualize, shift_structure,
                      rescale_signs, transpose_structure, check_intertwines_product,
                      check_intertwines_coproduct, poincare_dual_structure,
                      check_poincare_duality, complete_from_pairing,
                      cyclic_triple_checks)
from .tqft import OpenClosedTQFT, run_full_tqft_suite, check_cardy, derive_cozipper
from .models import (CupData, sphere_cohomology, manifold_from_cup,
                     sphere_cup_data, torus_cup_data, s2xs2_cup_data,
                     submanifold_tqft, equator_pair, diagonal_pair, factor_pair,
                     rabinowitz_loop_sphere, loop_sphere, based_loop_sphere,
                     based_rabinowitz_loop_sphere, circle_models, loop_tqft_sphere)
from .docio import (StructureDocument, ParseError, parse, render,
                    to_bialgebra, to_tqft, from_bialgebra, from_tqft)
from .suites import run_suite, SUITE_NAMES

__version__ = "0.1.0"
