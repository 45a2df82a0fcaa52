"""The relation families (i)-(v) evaluated in nu(G) itself.

``tensq.verify.verify_nu_relations`` evaluates them on the crossed
module (T, phi, lambda) of G (x) G, where each value is rewritten into
T.  This oracle evaluates them as they are written, in the ambient
group of a built ``tensq.nu.NuGroup``: the copies ``left`` and ``right``
of G, the tensors [a, b'] and products of ambient elements, over whole
index arrays, on n^2 |G (x) G| points.  The tuples, draws and report
are the library's (``_relation_report``), so the two reports are equal
exactly when the two evaluations agree; ``scalar_relations`` checks
this one a tuple at a time.
"""

import numpy as np

from tensq.verify import (RELATION_FAMILIES, _commutators,
                          _group_commutators, _products, _relation_report)


def nu_relations(nu, exhaustive_cap=8, samples=10_000, seed=0,
                 families=RELATION_FAMILIES):
    """``verify_nu_relations``, evaluated in nu(G)."""
    G = nu.group
    amb = nu.ambient
    left, right, T = nu.left, nu.right, nu.tensors
    inv = amb.inverse_indices()
    gcomm = _group_commutators(G)

    def mul(a, b):
        return _products(amb, a, b)

    def comm(a, b):
        return _commutators(amb, a, b)

    def conj(a, b):
        return mul(mul(inv[b], a), b)

    def fam_i(g, h, x, y):
        t = T[g, h]
        return conj(t, T[x, y]) == conj(t, comm(left[x], left[y]))

    def fam_ii(g, h, x):
        t, rx, lx = T[g, h], right[x], left[x]
        rl = comm(right[g], left[h])
        first, *rest = (comm(t, rx), comm(comm(left[g], left[h]), rx),
                        comm(t, lx), comm(rl, rx),
                        comm(comm(right[g], right[h]), lx), comm(rl, lx))
        return np.logical_and.reduce([first == v for v in rest])

    def fam_iii(g, h):
        return mul(T[g, h], T[h, g]) == 0

    def fam_iv(g, h, x):
        c = gcomm[h, x]
        return T[g, c] == inv[T[c, g]]

    def fam_v(g, h, x, y):
        return comm(T[g, h], T[x, y]) == T[gcomm[g, h], gcomm[x, y]]

    return _relation_report(
        G, {"i": fam_i, "ii": fam_ii, "iii": fam_iii, "iv": fam_iv,
            "v": fam_v}, exhaustive_cap, samples, seed, families)
