"""The relation families (i)-(v) over every tuple, with no reduction.

``tensq.verify.verify_nu_relations`` evaluates them on the crossed
module (T, phi, lambda) of G (x) G, where each value is rewritten into
T, and runs families (i) and (v) over pairs of keys (T[g, h], [g, h])
rather than pairs of pairs.  ``nu_relations`` evaluates them as they
are written, in the ambient group of a built ``tensq.nu.NuGroup``: the
copies ``left`` and ``right`` of G, the tensors [a, b'] and products of
ambient elements, on n^2 |G (x) G| points.  ``module_relations``
evaluates the library's formulas on T, on every (g, h, x, y).  Both
enumerate every tuple themselves (``every_tuple_report``), so a report
equal to the library's shows that its key reduction loses no failure;
``scalar_relations`` checks the nu(G) evaluation a tuple at a time.
"""

import numpy as np

from tensq.nucheck import _commutators, _group_commutators, _products
from tensq.report import RELATION_FAMILIES, Check, VerificationReport
from tensq.verify import _actions, _family_arity


def every_tuple_report(G, evaluators, families):
    """The report of the relation ``families``, each evaluated by
    ``evaluators[fam]`` over index arrays of G's elements, one per slot,
    on every tuple in lexicographic order (family (iii): the pairs with
    the second slot in G', then those with the first)."""
    n = G.order()
    derived = np.asarray(G.derived_subgroup().indices(), dtype=np.intp)
    every = np.arange(n)
    checks = []
    counterexample = None
    for fam in families:
        if fam == "iii":
            tuples = np.concatenate(
                [[np.repeat(every, derived.size), np.tile(derived, n)],
                 [np.repeat(derived, n), np.tile(every, derived.size)]],
                axis=1)
        else:
            arity = _family_arity(fam)
            tuples = np.indices((n,) * arity).reshape(arity, -1)
        ok = evaluators[fam](*tuples)
        fails = np.flatnonzero(~ok)
        checks.append(Check(
            label=f"relation ({fam})", passed=not fails.size,
            details={"checked": int(fails[0]) + 1 if fails.size
                     else ok.size, "mode": "exhaustive"}))
        if fails.size and counterexample is None:
            bad = tuples[:, fails[0]].tolist()
            counterexample = {"family": fam, "tuple": bad,
                              "words": [list(G.word(v)) for v in bad]}
    return VerificationReport(name="nu-relations", checks=checks,
                              counterexample=counterexample)


def nu_relations(nu, families=RELATION_FAMILIES):
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

    return every_tuple_report(
        G, {"i": fam_i, "ii": fam_ii, "iii": fam_iii, "iv": fam_iv,
            "v": fam_v}, families)


def module_relations(module, families=RELATION_FAMILIES):
    """``verify_nu_relations``' formulas on the crossed module, over
    every tuple (g, h, x, y) rather than every pair of keys."""
    amb = module.tgroup
    T = module.tensors
    inv = amb.inverse_indices()
    gcomm = _group_commutators(module.group)
    act = _actions(module)

    def mul(a, b):
        return _products(amb, a, b)

    def by(t, x):
        return mul(inv[t], act[x, t])

    def fam_i(g, h, x, y):
        t, s = T[g, h], T[x, y]
        return mul(mul(inv[s], t), s) == act[gcomm[x, y], t]

    def fam_ii(g, h, x):
        c = gcomm[g, h]
        first, *rest = (by(T[g, h], x), T[c, x], by(inv[T[h, g]], x),
                        inv[T[x, c]])
        return np.logical_and.reduce([first == v for v in rest])

    def fam_iii(g, h):
        return mul(T[g, h], T[h, g]) == 0

    def fam_iv(g, h, x):
        c = gcomm[h, x]
        return T[g, c] == inv[T[c, g]]

    def fam_v(g, h, x, y):
        return _commutators(amb, T[g, h], T[x, y]) == \
            T[gcomm[g, h], gcomm[x, y]]

    return every_tuple_report(
        module.group, {"i": fam_i, "ii": fam_ii, "iii": fam_iii,
                       "iv": fam_iv, "v": fam_v}, families)
