"""Tietze elimination on the symbol presentation of G (x) G.  The two
certificates of its result are in ``tensq.tietzecert``: the replay of
the eliminations, which reads only the relators it names, and the check
of every original relator, one sweep block at a time (the argument is
in ``tensq.symbol``).

A letter is 2s for the symbol s and 2s + 1 for its inverse (so
``l ^ 1`` inverts it), and -1 is no letter.  A word is a row of three
letters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coset import LetterPresentation


def _letters(rows):
    """The relators a^-1 b c of ``rows`` as rows of letters."""
    words = 2 * rows
    words[:, 0] += 1
    return words


def _reduce(words):
    """Freely and cyclically reduce words of at most three letters,
    their letters moved to the front."""
    x, y, z = words.T
    a, b = x >= 0, y >= 0
    words = np.stack([np.where(a, x, np.where(b, y, z)),
                      np.where(a & b, y, np.where(a | b, z, -1)),
                      np.where(a & b, z, -1)], axis=1)
    x, y, z = words.T
    xy = (y >= 0) & (x == y ^ 1)
    yz = (z >= 0) & (y == z ^ 1)
    zx = (z >= 0) & (x == z ^ 1)
    cut = xy | yz | zx
    words[cut, 0] = np.where(xy, z, np.where(yz, x, y))[cut]
    words[cut, 1:] = -1
    return words


def _first_occurrences(words):
    """Indices of the first of each class of non-empty words equal up to
    rotation and inversion, in order (a sort, not ``np.unique``, which
    would import numpy.ma)."""
    # digits letter + 1, so 0 is no letter and a key's zero digits give
    # its length; the inverse of the largest letter is max + 1
    base = int(words.max()) + 3
    x, y, z = (words + 1).T
    xi, yi, zi = (words ^ 1).T + 1

    def key(a, b, c):
        return (a * base + b) * base + c

    # key(x, y, z) is the identity rotation at every length
    keys = key(x, y, z)
    three, two = z > 0, (z == 0) & (y > 0)
    for a, b, c in ((y, z, x), (z, x, y), (zi, yi, xi), (yi, xi, zi),
                    (xi, zi, yi)):
        np.minimum(keys, key(a, b, c), out=keys, where=three)
    for a, b in ((y, x), (yi, xi), (xi, yi)):
        np.minimum(keys, key(a, b, 0), out=keys, where=two)
    order = np.argsort(keys, kind="stable")
    first = np.ones(len(order), dtype=bool)
    first[1:] = keys[order[1:]] != keys[order[:-1]]
    mark = np.zeros(len(order), dtype=bool)
    mark[order[first]] = True
    keep = np.flatnonzero(mark)
    return keep[words[keep, 0] >= 0]


@dataclass(frozen=True)
class SymbolReduction:
    """The outcome of ``reduce_symbols`` on the relators ``rows``.

    ``image[s]`` is the letter symbol s equals in G (x) G: 2s for a
    symbol kept, a kept symbol's letter or -1 (the identity) for one
    eliminated.  ``log`` lists (symbol, row) in the order of
    elimination: the relator that justifies it.  ``relators`` are the
    rows of letters that remain over the kept symbols, and
    ``sources[i]`` the row ``relators[i]`` was reduced from."""
    image: np.ndarray
    log: tuple
    relators: np.ndarray
    sources: np.ndarray

    def kept(self):
        """The symbols kept, in order."""
        return np.flatnonzero(self.image == 2 * np.arange(len(self.image)))

    def ranks(self):
        """Each kept symbol's place among the kept ones (0 elsewhere)."""
        rank = np.zeros(len(self.image), dtype=np.intp)
        kept = self.kept()
        rank[kept] = np.arange(len(kept))
        return rank

    def presentation(self):
        """The remaining relators, padded with -1, over the kept symbols
        renumbered in order: the presentation of G (x) G enumerated."""
        words = self.relators
        letters = 2 * self.ranks()[words >> 1] + (words & 1)
        rows = np.where(words >= 0, letters, -1).tolist()
        return LetterPresentation(len(self.kept()), tuple(rows))


def reduce_symbols(rows, nsym):
    """Tietze-eliminate symbols from the relators ``rows`` in whole-array
    passes.  Each pass substitutes the eliminations so far into every
    relator, reduces it and drops empty and repeated ones.  A relator
    that reduces to t^+-1 eliminates t = 1; one that reduces to two
    letters of distinct symbols writes the larger symbol as the other
    letter's inverse.  A symbol takes its first such relator, one equal
    to 1 before the others, and waits for the next pass if its image is
    eliminated in this one.  Substitution never lengthens a relator, so
    every word stays within three letters."""
    words = _letters(rows)
    sources = np.arange(len(rows))
    image = 2 * np.arange(nsym)
    log = []
    while True:
        words = _reduce(words)
        keep = _first_occurrences(words)
        words, sources = words[keep], sources[keep]
        x, y, z = words.T
        one = y < 0
        two = (y >= 0) & (z < 0) & (x >> 1 != y >> 1)
        if not (one.any() or two.any()):
            break
        x2, y2 = x[two], y[two]
        larger = x2 >> 1 > y2 >> 1
        # t u = 1 makes t = u^-1; the image of t's positive letter flips
        # with the sign of t's letter
        t = np.concatenate([x[one] >> 1, np.where(larger, x2, y2) >> 1])
        img = np.concatenate([np.full(int(one.sum()), -1),
                              np.where(larger, y2 ^ 1 ^ (x2 & 1),
                                       x2 ^ 1 ^ (y2 & 1))])
        row = np.concatenate([sources[one], sources[two]])
        # by symbol, eliminations to 1 first, then by relator; the key
        # stays below 1.5e10 within the symbol route's relator budget
        pick = np.argsort((2 * t + (img >= 0)) * len(rows) + row,
                          kind="stable")
        t, img, row = t[pick], img[pick], row[pick]
        first = np.ones(len(t), dtype=bool)
        first[1:] = t[1:] != t[:-1]
        gone = np.zeros(nsym, dtype=bool)
        gone[t[first]] = True
        take = first & ((img < 0) | ~gone[img >> 1])
        t, img = t[take], img[take]
        step = np.arange(2 * nsym)
        step[2 * t] = img
        step[2 * t + 1] = np.where(img >= 0, img ^ 1, -1)
        image = np.where(image >= 0, step[image], -1)
        words = np.where(words >= 0, step[words], -1)
        log += zip(t.tolist(), row[take].tolist())
    # by largest symbol, then smallest: HLT then defines fewer cosets
    # (Heis3 3,087 against 4,813 in first-occurrence order)
    symbols = words >> 1
    smallest = np.where(words >= 0, symbols, nsym).min(axis=1)
    order = np.argsort(symbols.max(axis=1) * (nsym + 1) + smallest,
                       kind="stable")
    return SymbolReduction(image=image, log=tuple(log),
                           relators=words[order], sources=sources[order])
