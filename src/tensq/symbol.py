"""The symbol presentation of G (x) G, and nu(G) assembled from it.

Brown and Loday (Topology 26, 1987) present G (x) G on the symbols
g (x) h subject to the crossed-pairing relations
(``symbol_presentation``).  Todd-Coxeter over it, over the trivial
subgroup, gives a regular group T of |G (x) G| points.  By Rocco (Bol.
Soc. Brasil. Mat. 22, 1991), nu(G) = ((G (x) G) . G') . G, so each
element is t h' g for unique t in [G, G'] and h, g in G, and nu(G) acts
on the points (t, h, g), numbered t n^2 + h n + g for |G| = n.  Right
multiplication by a generator x of G, and by its copy y', is

    x:   (t, h, g) -> (t, h, g x),
    y':  (t, h, g) -> (t c, h y, g),
         c = (s g s^-1) (x) (s g y g^-1 s^-1),  s = h y,

since g y' = y' g [g, y'], and the compatibility relations move the
tensor [g, y'] left past g and then past s'.  Each column is one gather
through T's coset table (``assemble_nu``).  Todd-Coxeter guarantees a
regular action; the assembled one is certified regular
(``FiniteGroup.is_regular``) before anything reads it, and
``tensq.nu`` certifies the result is nu(G) as it does for every route.
Conjugation is x^k = k^-1 x k, as everywhere in tensq.
"""

from __future__ import annotations

import numpy as np

from .coset import points_group, tc_enumerate
from .errors import invariant
from .words import Presentation, Word


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


def symbol_presentation(group, arrays=None):
    """Brown and Loday's presentation of G (x) G: one generator g (x) h,
    numbered g n + h for |G| = n, per pair of elements, and the
    crossed-pairing relators

        (g k) (x) h = (g^k (x) h^k) (k (x) h),
        g (x) (h k) = (g (x) k) (g^k (x) h^k)

    for every g, h and k, in that order: 2n^3 relators, each of length 3
    before reduction, read off G's multiplication and conjugation
    arrays (``arrays``, if the caller has them)."""
    mul, _, conj = arrays or group_arrays(group)
    n = len(mul)
    g, h, k = np.meshgrid(*[np.arange(n)] * 3, indexing="ij")
    sym = conj[g, k] * n + conj[h, k]
    first = (mul[g, k] * n + h, sym, k * n + h)
    second = (g * n + mul[h, k], g * n + k, sym)
    rows = np.stack([np.stack(first, axis=-1), np.stack(second, axis=-1)],
                    axis=-2).reshape(-1, 3).tolist()
    names = tuple(f"t{a}_{b}" for a in range(n) for b in range(n))
    return Presentation(names, tuple(Word(((a, -1), (b, 1), (c, 1)))
                                     for a, b, c in rows))


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


def assemble_nu(group, arrays, limits, name):
    """nu(G) assembled from the regular group T = G (x) G of the symbol
    presentation: the point t n^2 + h n + g stands for t h' g, and each
    generator of G and each primed copy gets one column, gathered
    through T's closed coset table (column 2c is right multiplication
    by symbol c).  Certified regular before anything reads it."""
    table = tc_enumerate(symbol_presentation(group, arrays), (),
                         limits).table
    mul, inv, conj = arrays
    n = len(mul)
    size = len(table) * n * n
    t = (np.arange(len(table)) * (n * n))[:, None, None]
    h = (np.arange(n) * n)[None, :, None]
    g = np.arange(n)[None, None, :]
    gens = group.generator_indices()
    columns = [(t + h + mul[g, x]).ravel() for x in gens]
    for y in gens:
        s, c = _primed_step(mul, inv, conj, y)
        columns.append((table[:, 2 * c] * (n * n)
                        + (s * n)[None, :, None] + g).ravel())
    ambient = points_group(columns, size, name=name)
    invariant(ambient.is_regular(),
              "the assembled nu(G) does not act regularly")
    return ambient
