"""The certificates of a Tietze reduction (``tensq.tietze``): the
replay of its eliminations (``replay_reduction``), the symbol columns
read through its images (``symbol_columns``) and the check of every
original relator on them (``check_relators``).  The argument is in
``tensq.symbol``.

A letter is 2s for the symbol s and 2s + 1 for its inverse, and -1 is
no letter, as in ``tensq.tietze``, from which this module imports
nothing.
"""

from __future__ import annotations

import time

import numpy as np

from .closure import sweep_rows
from .errors import EnumerationLimitError, invariant


def replay_reduction(rows, reduction):
    """Certify ``reduction`` of the relators ``rows`` one scalar step at
    a time, sharing no code with ``reduce_symbols``: each logged
    relator, under the eliminations before it, must reduce to t^+-1 or
    to t^+-1 u^+-1 for its symbol t and a symbol u still kept; the
    images so derived must be ``reduction.image``; and each remaining
    relator must be its source row reduced under them.  Every step
    rewrites a relator of G (x) G by equations that hold in G (x) G, so
    the kept symbols generate it and the remaining relators hold in it.
    Raises InvariantError otherwise."""
    nsym = len(reduction.image)
    direct = [2 * s for s in range(nsym)]

    def resolve(letter):
        while letter >= 0 and direct[letter >> 1] != letter & ~1:
            image = direct[letter >> 1]
            letter = image ^ (letter & 1) if image >= 0 else -1
        return letter

    def relator(r):
        a, b, c = rows[r].tolist()
        out = []
        for letter in (resolve(2 * a + 1), resolve(2 * b), resolve(2 * c)):
            if letter < 0:
                continue
            if out and out[-1] == letter ^ 1:
                out.pop()
            else:
                out.append(letter)
        while len(out) > 1 and out[0] == out[-1] ^ 1:
            out = out[1:-1]
        return out

    for t, r in reduction.log:
        word = relator(r)
        symbols = [letter >> 1 for letter in word]
        invariant(direct[t] == 2 * t and symbols.count(t) == 1
                  and len(word) <= 2,
                  f"symbol replay: relator {r} does not eliminate "
                  f"symbol {t}")
        if len(word) == 1:
            direct[t] = -1
        else:
            i = symbols.index(t)
            direct[t] = word[1 - i] ^ 1 ^ (word[i] & 1)
    invariant([resolve(2 * s) for s in range(nsym)]
              == reduction.image.tolist(),
              "symbol replay: the eliminations give other images")
    for word, r in zip(reduction.relators, reduction.sources.tolist()):
        invariant([letter for letter in word.tolist() if letter >= 0]
                  == relator(r),
                  f"symbol replay: relator {r} does not reduce to the "
                  "relator kept for it")


def symbol_columns(table, reduction):
    """Right multiplication by every symbol on the points of T, one
    column each, read through its image: a kept symbol's column of the
    closed coset ``table`` (its inverse's for an inverse letter), or the
    identity."""
    image = reduction.image
    points = np.arange(len(table), dtype=table.dtype)
    ext = np.concatenate([table, points[:, None]], axis=1)
    column = np.where(image >= 0,
                      2 * reduction.ranks()[image >> 1] + (image & 1),
                      table.shape[1])
    return ext[:, column]


def check_relators(rows, columns, deadline):
    """Whether every relator a^-1 b c of ``rows`` holds on the symbol
    ``columns`` (point by symbol): p b c = p a at every point p, checked
    for ``closure.sweep_rows(points)`` relators at a time.  Raises
    EnumerationLimitError if a block would start after the
    ``time.monotonic()`` ``deadline``."""
    # a view: ``symbol_columns`` returns its columns column-major
    by_symbol = np.ascontiguousarray(columns.T)
    points = by_symbol.shape[1]
    flat = by_symbol.ravel()
    block = sweep_rows(points)
    for lo in range(0, len(rows), block):
        if time.monotonic() > deadline:
            raise EnumerationLimitError(
                f"time limit exceeded in the relator check ({lo} of "
                f"{len(rows)} relators checked by the enumeration's "
                "deadline)")
        a, b, c = rows[lo:lo + block].T
        got = flat[c[:, None] * points + by_symbol[b]]
        if not np.array_equal(got, by_symbol[a]):
            return False
    return True
