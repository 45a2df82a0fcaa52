"""Test oracle: a subgroup copied out of its parent.

``standalone_group`` builds a new permutation group on the same points
from the subgroup's generators, so its closure, element numbering and
lower central series are computed from scratch, with none of the
parent's index-space state.  Production code never leaves the parent;
the tests compare it with this copy.
"""

from tensq import FiniteGroup


def standalone_group(sub):
    """The subgroup ``sub`` as a FiniteGroup of its own, generated by the
    identity when it has no generators."""
    amb = sub.parent
    gens = [amb.element(g) for g in sub.generators] or [amb.identity]
    return FiniteGroup(gens, max_order=amb.max_order)
