"""The symbol presentation of G (x) G, and nu(G) assembled from it.

Brown and Loday (Topology 26, 1987) present G (x) G on the n^2 symbols
g (x) h, for |G| = n, subject to 2n^3 crossed-pairing relators of three
letters each (``symbol_relators``).  Most of the presentation is
redundant, so it is Tietze-reduced before it is enumerated (Holt, Eick
and O'Brien, Handbook of Computational Group Theory, 2005):
``tensq.tietze.reduce_symbols`` substitutes, in whole-array passes,
every relator that reduces to one letter t (t = 1, so t goes) or to
two letters t u^+-1 of distinct symbols (the larger is written as the
smaller's letter, inverted).  A substitution replaces a letter by a
letter or by nothing, so every relator stays within three letters and
rewriting is index arithmetic.  D4 keeps 17 of its 64 symbols, A4 17
of 144, Heis3 169 of 729.

Todd-Coxeter over what remains, over the trivial subgroup, gives a
regular group T, and each of the n^2 symbols acts on it through its
image.  Two certificates make T = G (x) G:

* the replay (``replay_reduction``) re-reduces, one scalar step at a
  time, the relator logged for each elimination under the eliminations
  before it, and each remaining relator's source under all of them.  So
  the eliminations are equations of G (x) G and the relators
  enumerated hold in it: G (x) G is a quotient of T, |T| >= |G (x) G|;
* the relator check (``check_relators``) evaluates all 2n^3 original
  relators on the symbols' columns of T, one ``closure.SWEEP_ENTRIES``
  block at a time.  So g (x) h |-> its column is a homomorphism onto T:
  T is a quotient of G (x) G.

``tensor_symbols`` is the enumeration and both certificates, within a
budget on the symbol columns and one deadline that the enumeration and
the relator check share; ``symbol_route_arrays`` refuses, before
building anything, a G with more relators than the relator budget.

Neither is enough alone.  Merging two symbols that are not equal in
G (x) G enumerates a proper quotient of it, on which every original
relator still holds (one wrongly merged pair of symbols makes
|D4 (x) D4| read 8 or 16, not 32); only the replay sees it.  Dropping
a relator, say by a wrong deduplication, enumerates a group too large,
whose eliminations and remaining relators all replay; only the relator
check sees it.

By Rocco (Bol. Soc. Brasil. Mat. 22, 1991), nu(G) = ((G (x) G) . G') .
G, so each element is t h' g for unique t in [G, G'] and h, g in G, and
nu(G) acts on the points (t, h, g), numbered t n^2 + h n + g.  Right
multiplication by a generator x of G, and by its copy y', is

    x:   (t, h, g) -> (t, h, g x),
    y':  (t, h, g) -> (t c, h y, g),
         c = (s g s^-1) (x) (s g y g^-1 s^-1),  s = h y,

since g y' = y' g [g, y'], and the compatibility relations move the
tensor [g, y'] left past g and then past s'.  Each column is one gather
through the symbols' columns of T (``assemble_nu``).  Todd-Coxeter
guarantees a regular action; the assembled one is certified regular
(``FiniteGroup.is_regular``) before anything reads it, and
``tensq.nu`` certifies the result is nu(G) as it does for every route.
nu(G) is assembled for ``tensq nu`` and for the checks of ``tensq
verify`` about nu(G) itself; ``tensq tensor`` on this route, ``tensq
engel`` and verify's relation families read T and its symbol columns
alone, as the crossed module of ``tensq.crossed``.
Conjugation is x^k = k^-1 x k, as everywhere in tensq.
"""

from __future__ import annotations

import time

import numpy as np

from .coset import points_group, tc_enumerate
from .errors import EnumerationLimitError, invariant

# The symbol route's budgets, in the manner of the coset table's 1 GiB.
# The 2n^3 relator rows, checked before G's n x n arrays are built,
# admit |G| <= 81 (``tensq tensor`` of C81 peaks at 212 MB RSS).  The
# |T| n^2 symbol column entries, which the certificates read a sweep
# block at a time, are checked once the enumeration closes: they admit
# C3^3 (14.3 M, 158 MB) and C2^4 (2^24, 403 MB, 263 MB of it the
# enumeration, which only the coset limit, the table's 1 GiB and the
# time limit bound).
_MAX_RELATOR_ROWS = 1_100_000
_MAX_SYMBOL_ENTRIES = 1 << 24


def group_arrays(group):
    """G's products, inverses and conjugates as index arrays:
    ``mul[i, j] = index(e_i e_j)``, ``inv[i] = index(e_i^-1)`` and
    ``conj[i, k] = index(e_i^e_k) = index(e_k^-1 e_i e_k)``."""
    n = group.order()
    mul = group.right_columns(range(n)).T
    inv = group.inverse_indices()
    k = np.arange(n)
    conj = mul[mul[inv[None, :], k[:, None]], k[None, :]]
    return mul, inv, conj


def symbol_route_arrays(group):
    """``group_arrays`` for the symbol route, or EnumerationLimitError,
    before anything n x n is built, if G's 2n^3 relators are more than
    the relator budget allows."""
    n = group.order()
    if 2 * n ** 3 > _MAX_RELATOR_ROWS:
        raise EnumerationLimitError(
            f"symbol relator limit {_MAX_RELATOR_ROWS} exceeded: |G| = {n} "
            f"has {2 * n ** 3} relators (none built)")
    return group_arrays(group)


def symbol_relators(arrays):
    """Brown and Loday's crossed-pairing relators on the symbols g (x) h,
    numbered g n + h for |G| = n, from G's multiplication and conjugation
    ``arrays``:

        (g k) (x) h = (g^k (x) h^k) (k (x) h),
        g (x) (h k) = (g (x) k) (g^k (x) h^k)

    for every g, h and k, in that order: a (2n^3, 3) array whose row
    (a, b, c) is the relator a^-1 b c."""
    mul, _, conj = arrays
    n = len(mul)
    g, h, k = np.meshgrid(*[np.arange(n)] * 3, indexing="ij")
    sym = conj[g, k] * n + conj[h, k]
    first = (mul[g, k] * n + h, sym, k * n + h)
    second = (g * n + mul[h, k], g * n + k, sym)
    return np.stack([np.stack(first, axis=-1), np.stack(second, axis=-1)],
                    axis=-2).reshape(-1, 3)


def _primed_step(mul, inv, conj, y):
    """Right multiplication by y' on nu(G) = ((G (x) G) . G^phi) . G:
    t h' g y' = t c s' g with s = h y and the symbol c = (s g s^-1) (x)
    (s g y g^-1 s^-1).  Returns s over h and c over (h, g)."""
    n = len(mul)
    s = mul[:, y]
    s_inv = inv[s][:, None]
    a = conj[np.arange(n)[None, :], s_inv]
    b = conj[conj[y, inv][None, :], s_inv]
    return s, a * n + b


def tensor_symbols(arrays, limits):
    """T = G (x) G from the symbol presentation of G's
    ``symbol_route_arrays``: reduced and certified by replay
    (``tensq.tietze``), enumerated from what remains, and every symbol's
    column of T read through its image and checked against all 2n^3
    relators, by the enumeration's deadline.  Returns the (|T|, n^2)
    symbol columns, column g n + h right multiplication by g (x) h on
    T's points, and the symbols kept, whose columns are the
    enumeration's generators (none for the trivial group).  Raises
    EnumerationLimitError rather than build more column entries than
    the budget allows."""
    # loaded here, not with the package: a process that never takes
    # the symbol route does not hold the reduction's code
    from .tietze import reduce_symbols
    from .tietzecert import check_relators, replay_reduction, symbol_columns

    n = len(arrays[0])
    rows = symbol_relators(arrays)
    reduction = reduce_symbols(rows, n * n)
    replay_reduction(rows, reduction)
    # the enumeration and the relator check share one deadline
    deadline = time.monotonic() + limits.time_limit
    table = tc_enumerate(reduction.presentation(), limits).table
    if len(table) * n * n > _MAX_SYMBOL_ENTRIES:
        raise EnumerationLimitError(
            f"symbol column limit {_MAX_SYMBOL_ENTRIES} entries exceeded: "
            f"|G (x) G| = {len(table)} points times {n * n} symbols (the "
            f"enumeration closed on {len(reduction.kept())} kept symbols)")
    symbols = symbol_columns(table, reduction)
    invariant(check_relators(rows, symbols, deadline),
              "the reduced enumeration of G (x) G fails a relator of the "
              "symbol presentation")
    return symbols, reduction.kept()


def assemble_nu(group, arrays, symbols, name):
    """nu(G) assembled from the ``symbols`` columns of T = G (x) G
    (``tensor_symbols``).  The point t n^2 + h n + g stands for t h' g,
    and each generator of G and each primed copy gets one column,
    gathered through the symbol columns.  Certified regular before
    anything reads it."""
    mul, inv, conj = arrays
    n = len(mul)
    size = len(symbols) * n * n
    t = (np.arange(len(symbols)) * (n * n))[:, None, None]
    h = (np.arange(n) * n)[None, :, None]
    g = np.arange(n)[None, None, :]
    gens = group.generator_indices()
    columns = [(t + h + mul[g, x]).ravel() for x in gens]
    for y in gens:
        s, c = _primed_step(mul, inv, conj, y)
        columns.append((symbols[:, c] * (n * n)
                        + (s * n)[None, :, None] + g).ravel())
    ambient = points_group(columns, size, name=name)
    invariant(ambient.is_regular(),
              "the assembled nu(G) does not act regularly")
    return ambient
