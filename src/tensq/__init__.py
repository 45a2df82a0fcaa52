"""Non-abelian tensor squares of finite groups through the nu-group
construction, with Engel scans and graded Lie rings of p-groups.

Everything runs at desk scale over explicit permutation groups; each
computed structure ships with exhaustive or seeded verification of the
identities it is supposed to satisfy.
"""

__version__ = "0.2.0"

from .catalog import catalog, get_group, get_presentation, resolve_group
from .closure import SeriesReport, Subgroup, power_subgroup
from .coset import (CosetTable, EnumerationLimits, LetterPresentation,
                    multiplication_table_presentation, tc_enumerate,
                    to_perm_group)
from .engel import (EngelScanConfig, EngelScanResult, engel_power_scan,
                    engel_stack_identity, engel_projection_check,
                    engel_degree, fitting_subgroup, is_left_n_engel,
                    left_engel_set)
from .errors import (AmbientMismatchError, CapacityError,
                     EnumerationLimitError, InvariantError, StateError)
from .linalg import abelian_invariants, invariant_factors_from_cyclic
from .liering import (GradedElement, GradedLieRing, PGroupSeries,
                      ad_nilpotency_index, dimension_subgroups,
                      jennings_recursion, lie_nilpotency_class, lie_ring,
                      subalgebra_Lp, verify_lazard, verify_lie_axioms)
from .nu import (NuGroup, TensorReport, build_nu, nu_presentation,
                 route_independence, tensor_module, tensor_order,
                 tensor_report, tensor_square)
from .perm import FiniteGroup, format_perm_group, parse_perm_group
from .permutation import (Permutation, commutator, iterated_commutator,
                          parse_cycles)
from .verify import (VerificationReport, derived_map_check,
                     verify_decomposition, verify_nu_relations,
                     verify_tensor_set_closed)
from .words import Presentation, parse_presentation, parse_word

__all__ = [name for name in dir() if not name.startswith("_")]
