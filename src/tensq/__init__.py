"""Non-abelian tensor squares of finite groups through the nu-group
construction, with Engel scans and graded Lie rings of p-groups.

Everything runs at desk scale over explicit permutation groups; each
computed structure ships with exhaustive verification of the identities
it is supposed to satisfy.

``liering``, ``cache``, ``words`` and the nu(G) stack (``coset``,
``symbol``, ``nu`` and ``verify``) are deferred: importing the package
registers them without running them, and each runs on the first lookup
of a name it does not yet hold, so a command that never reads one never
compiles it.  ``liering`` and ``verify`` import their other halves,
``liecheck`` and ``nucheck``, when they run.  ``lie``, ``identity-f``,
``left_engel_set`` and ``fitting_subgroup`` on a ``.perm`` group compile
none of the stack.
The package's names from deferred modules are looked up there on use
(PEP 562).
"""

import importlib.util
import sys
import threading
import types

__version__ = "0.2.0"

# one lock for every deferred module: a module run under it may look up
# names on another
_run_lock = threading.RLock()


class _Deferred(types.ModuleType):
    """A registered submodule that has not run.  The first lookup of a
    name it does not hold runs it (``_run_deferred``) and makes it a
    plain module."""

    def __getattr__(self, name):
        _run_deferred(self)
        if type(self) is _Running:
            # the module's own code asked for a name it has not bound yet
            raise AttributeError(f"partially initialized module "
                                 f"{self.__name__!r} has no attribute "
                                 f"{name!r}")
        return getattr(self, name)


class _Running(_Deferred):
    """A deferred submodule whose code is running."""


def _run_deferred(module):
    """Run ``module`` if it is deferred and has not run: once, under
    ``_run_lock``, so a lookup from another thread meanwhile waits for
    the run instead of seeing the half-built namespace fail."""
    with _run_lock:
        if type(module) is _Deferred:
            module.__class__ = _Running
            try:
                module.__spec__.loader.exec_module(module)
            except BaseException:
                module.__class__ = _Deferred
                raise
            module.__class__ = types.ModuleType


def _defer(name):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    module = importlib.util.module_from_spec(spec)
    module.__class__ = _Deferred
    sys.modules[spec.name] = module
    return module


# registered before anything below imports them
cache = _defer("cache")
coset = _defer("coset")
liering = _defer("liering")
nu = _defer("nu")
symbol = _defer("symbol")
verify = _defer("verify")
words = _defer("words")

from .catalog import catalog, get_group, get_presentation, resolve_group
from .closure import SeriesReport, Subgroup, power_subgroup
from .engel import (EngelScanConfig, EngelScanResult, engel_power_scan,
                    engel_stack_identity, engel_projection_check,
                    engel_degree, fitting_subgroup, is_left_n_engel,
                    left_engel_set)
from .errors import (AmbientMismatchError, CapacityError,
                     EnumerationLimitError, EnumerationLimits,
                     InvariantError, StateError)
from .linalg import abelian_invariants, invariant_factors_from_cyclic
from .perm import FiniteGroup, format_perm_group, parse_perm_group
from .permutation import (Permutation, commutator, iterated_commutator,
                          parse_cycles)
from .report import VerificationReport

_DEFERRED_NAMES = {
    **dict.fromkeys(("CosetTable", "LetterPresentation",
                     "multiplication_table_presentation", "tc_enumerate",
                     "to_perm_group"), coset),
    **dict.fromkeys(("GradedElement", "GradedLieRing", "PGroupSeries",
                     "ad_nilpotency_index", "dimension_subgroups",
                     "jennings_recursion", "lie_nilpotency_class",
                     "lie_ring", "subalgebra_Lp", "verify_lazard",
                     "verify_lie_axioms"), liering),
    **dict.fromkeys(("NuGroup", "TensorReport", "build_nu",
                     "nu_presentation", "route_independence",
                     "tensor_module", "tensor_order", "tensor_report",
                     "tensor_square"), nu),
    **dict.fromkeys(("derived_map_check", "verify_decomposition",
                     "verify_nu_relations", "verify_tensor_set_closed"),
                    verify),
    **dict.fromkeys(("Presentation", "parse_presentation", "parse_word"),
                    words),
}


def __getattr__(name):
    module = _DEFERRED_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    return getattr(module, name)


def __dir__():
    return sorted({*globals(), *_DEFERRED_NAMES})


__all__ = [
    "AmbientMismatchError", "CapacityError", "CosetTable",
    "EngelScanConfig", "EngelScanResult", "EnumerationLimitError",
    "EnumerationLimits", "FiniteGroup", "GradedElement", "GradedLieRing",
    "InvariantError", "LetterPresentation", "NuGroup", "PGroupSeries",
    "Permutation", "Presentation", "SeriesReport", "StateError",
    "Subgroup", "TensorReport", "VerificationReport", "abelian_invariants",
    "ad_nilpotency_index", "build_nu", "catalog", "commutator",
    "derived_map_check", "dimension_subgroups", "engel_degree",
    "engel_power_scan", "engel_projection_check", "engel_stack_identity",
    "fitting_subgroup", "format_perm_group", "get_group",
    "get_presentation", "invariant_factors_from_cyclic",
    "is_left_n_engel", "iterated_commutator", "jennings_recursion",
    "left_engel_set", "lie_nilpotency_class", "lie_ring",
    "multiplication_table_presentation", "nu_presentation", "parse_cycles",
    "parse_perm_group", "parse_presentation", "parse_word",
    "power_subgroup", "resolve_group", "route_independence",
    "subalgebra_Lp", "tc_enumerate", "tensor_module", "tensor_order",
    "tensor_report", "tensor_square", "to_perm_group",
    "verify_decomposition", "verify_lazard", "verify_lie_axioms",
    "verify_nu_relations", "verify_tensor_set_closed",
]
