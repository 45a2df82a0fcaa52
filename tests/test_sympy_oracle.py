"""Differential test of coset enumeration against sympy's FpGroup.order()
on presentations of groups known to be finite."""

import functools
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensq import LetterPresentation, tc_enumerate

fp_groups = pytest.importorskip("sympy.combinatorics.fp_groups")
free_groups = pytest.importorskip("sympy.combinatorics.free_groups")


# relators as (generator, integer exponent) pairs, per family parameter
def _cyclic(n):
    return 1, [[(0, n)]]


def _dihedral(n):
    return 2, [[(0, n)], [(1, 2)], [(0, 1), (1, 1)] * 2]


def _abelian(m, n):
    return 2, [[(0, m)], [(1, n)], [(0, -1), (1, -1), (0, 1), (1, 1)]]


def _von_dyck(k):
    return 2, [[(0, 2)], [(1, 3)], [(0, 1), (1, 1)] * k]


FAMILIES = st.one_of(
    st.builds(_cyclic, st.integers(1, 12)),
    st.builds(_dihedral, st.integers(2, 8)),
    st.builds(_abelian, st.integers(1, 6), st.integers(1, 6)),
    st.builds(_von_dyck, st.integers(2, 5)),
)


@st.composite
def presentations(draw):
    """A family member with permuted generators, each relator cyclically
    rotated and possibly inverted, plus one redundant relator (the
    product of two drawn ones)."""
    ngens, relators = draw(FAMILIES)
    relabel = draw(st.permutations(range(ngens)))
    out = []
    for rel in relators:
        letters = [(relabel[g], 1 if e > 0 else -1)
                   for g, e in rel for _ in range(abs(e))]
        shift = draw(st.integers(0, len(letters) - 1))
        letters = letters[shift:] + letters[:shift]
        if draw(st.booleans()):
            letters = [(g, -e) for g, e in reversed(letters)]
        out.append(letters)
    first = draw(st.integers(0, len(out) - 1))
    second = draw(st.integers(0, len(out) - 1))
    out.append(out[first] + out[second])
    return ngens, draw(st.permutations(out))


def _row(letters):
    """(generator, +-1) letters as the enumerator's row: 2g for
    generator g, 2g + 1 for its inverse."""
    return tuple(2 * g + (e < 0) for g, e in letters)


def _both(ngens, relators):
    """The presentation for tc_enumerate, and sympy's FpGroup."""
    pres = LetterPresentation(ngens, tuple(map(_row, relators)))
    free, *gens = free_groups.free_group(
        " ".join(f"x{i}" for i in range(ngens)))
    group = fp_groups.FpGroup(free, [_sympy_word(free, gens, r)
                                     for r in relators])
    return pres, group


def _sympy_word(free, gens, letters):
    return functools.reduce(operator.mul, (gens[g] ** e for g, e in letters),
                            free.identity)


@settings(max_examples=40, deadline=None)
@given(presentations())
def test_coset_count_matches_sympy_order(case):
    pres, group = _both(*case)
    assert tc_enumerate(pres).coset_count == group.order()

