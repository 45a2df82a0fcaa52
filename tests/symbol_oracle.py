"""The symbol presentation of G (x) G on all n^2 symbols, unreduced: the
oracle the reduced symbol route of ``tensq.symbol`` is checked
against."""

import numpy as np

from tensq import LetterPresentation
from tensq.symbol import group_arrays, symbol_relators


def symbol_presentation(group):
    """G (x) G on the symbols g (x) h, numbered g n + h for |G| = n, and
    the 2n^3 relators a^-1 b c of ``symbol_relators``, as rows of three
    letters: 2s for symbol s, 2s + 1 for its inverse."""
    a, b, c = symbol_relators(group_arrays(group)).T
    rows = np.stack([2 * a + 1, 2 * b, 2 * c], axis=1)
    return LetterPresentation(group.order() ** 2, tuple(rows.tolist()))
