"""The checks of nu(G)'s identities.

The relation families (i)-(v) (``verify_nu_relations``) read the
crossed module (T, phi, lambda) of G (x) G (``tensq.crossed``): every
value they compare lies in T = [G, G'], on which G and G' act through
phi.  The checks of nu(G) itself (``verify_tensor_set_closed``,
``verify_decomposition`` and ``derived_map_check``) and the products
over index arrays that both read are in ``tensq.nucheck``, imported
here, so a ``verify`` run compiles two modules of under 2,000 AST nodes
each.  Each check evaluates over whole index arrays: a product of
elements is one gather through the right-multiplication columns of the
right factors' distinct values, and a relation family runs over every
one of its tuples, in blocks.
The scalar loops these replaced, and the relation families evaluated in
nu(G), are kept in the tests as oracles.  All checks are read-only over
immutable inputs and may run concurrently.  Their results are
``tensq.report``'s ``Check`` and ``VerificationReport``.
"""

from __future__ import annotations

import numpy as np

from . import closure
# cli, tensq.nu and the package read the three checks from here
from .nucheck import (_commutators, _group_commutators, _products,
                      derived_map_check, verify_decomposition,
                      verify_tensor_set_closed)
from .report import RELATION_FAMILIES, Check, VerificationReport


# -- identity verification ----------------------------------------------------


def _family_arity(fam):
    return {"i": 4, "ii": 3, "iii": 2, "iv": 3, "v": 4}[fam]


def _actions(module):
    """``act[g, t] = phi_g(t)``, the index of t^g = t^(g') in T, for
    every g in G: one sweep along G's breadth-first levels from the
    ``phi`` rows, since t^(p s) = phi_s(t^p)."""
    phi = module.phi
    return module.group.sweep(np.arange(module.tgroup.order()),
                              lambda v, g: phi[g[:, None], v])


def _first_failure(holds, firsts, seconds):
    """The first pair (a, b) of ``firsts`` x ``seconds``, row by row,
    with ``holds(a, b)`` False, or None: the rows are evaluated
    ``closure.sweep_rows(seconds.size)`` at a time, up to the first
    block that fails."""
    step = closure.sweep_rows(seconds.size)
    for lo in range(0, firsts.size, step):
        a = np.repeat(firsts[lo:lo + step], seconds.size)
        b = np.tile(seconds, a.size // seconds.size)
        fails = np.flatnonzero(~holds(a, b))
        if fails.size:
            return int(a[fails[0]]), int(b[fails[0]])
    return None


def verify_nu_relations(module, families=RELATION_FAMILIES):
    """Check the basic tensor-commutator identities of nu(G) on the
    crossed module (T, phi, lambda) of ``tensq.nu.tensor_module``.

    In nu(G), T = [G, G'] is normal, g and g' both act on it as phi_g,
    and [g', h] = [h, g']^-1.  So every value the identities compare
    lies in T: [t, x'] = [t, x] = t^-1 phi_x(t), [g', h] = (h (x) g)^-1,
    [[g,h]', x] = (x (x) [g,h])^-1 and [[g,h], x'] = [g,h] (x) x.  They
    are evaluated on T's |G (x) G| points, not nu(G)'s n^2 |G (x) G|.

    Every tuple is checked, in lexicographic order; family (iii)
    restricts one slot to the derived subgroup, as the identity
    requires, and takes the pairs with the second slot in G' first.
    ``checked`` counts the tuples up to and including the first failure,
    or all of them when the family holds.  A pair (g, h) is read at its
    position q = g n + h.  Families (i) and (v) read it only through its
    key (T[g, h], [g, h]), so they run over the pairs of keys, each key
    at its first position: the first failing pair of keys is the first
    failing pair of pairs.
    """
    G = module.group
    n = G.order()
    amb = module.tgroup
    inv = amb.inverse_indices()
    T = module.tensors
    t_at = T.ravel()
    c_at = _group_commutators(G).ravel()
    act = _actions(module)
    derived = np.asarray(G.derived_subgroup().indices(), dtype=np.intp)
    every = np.arange(n)
    pairs = np.concatenate(
        [[np.repeat(every, derived.size), np.tile(derived, n)],
         [np.repeat(derived, n), np.tile(every, derived.size)]], axis=1)

    # the first position of each value of T, then every position whose
    # [g, h] is not its first position's: on a certified module, where
    # lambda(g (x) h) = [g, h], there are none
    squares = np.arange(n * n)
    least = np.full(amb.order(), n * n)
    closure.least_positions(least, t_at, squares)
    rep = least[t_at]
    marked = np.zeros(n * n, dtype=bool)
    marked[rep] = True
    marked[c_at != c_at[rep]] = True
    keys = np.flatnonzero(marked)

    def mul(a, b):
        return _products(amb, a, b)

    def by(t, x):
        # [t, x'] = [t, x] = t^-1 phi_x(t)
        return mul(inv[t], act[x, t])

    def fam_i(p, q):
        t, s = t_at[p], t_at[q]
        return mul(mul(inv[s], t), s) == act[c_at[q], t]

    def fam_ii(g, q):
        # nu(G)'s six values, of which [t, x'] and [t, x] are one value
        # in T, and so are [[g', h], x'] and [[g', h], x]
        h, x = q // n, q % n
        c = c_at[g * n + h]
        first, *rest = (by(T[g, h], x), T[c, x], by(inv[T[h, g]], x),
                        inv[T[x, c]])
        return np.logical_and.reduce([first == v for v in rest])

    def fam_iii(_, j):
        g, h = pairs[:, j]
        return mul(T[g, h], T[h, g]) == 0

    def fam_iv(g, q):
        return T[g, c_at[q]] == inv[T[c_at[q], g]]

    def fam_v(p, q):
        return _commutators(amb, t_at[p], t_at[q]) == T[c_at[p], c_at[q]]

    # each family's evaluation over the pairs of its first and second
    # slots, and its tuples; (iii) has one first slot, 0
    walks = {"i": (fam_i, keys, keys, n ** 4),
             "ii": (fam_ii, every, squares, n ** 3),
             "iii": (fam_iii, np.zeros(1, dtype=np.intp),
                     np.arange(pairs.shape[1]), pairs.shape[1]),
             "iv": (fam_iv, every, squares, n ** 3),
             "v": (fam_v, keys, keys, n ** 4)}
    checks = []
    counterexample = None
    for fam in families:
        holds, firsts, seconds, size = walks[fam]
        bad = _first_failure(holds, firsts, seconds)
        checks.append(Check(
            label=f"relation ({fam})", passed=bad is None,
            details={"checked": size if bad is None
                     else bad[0] * n * n + bad[1] + 1, "mode": "exhaustive"}))
        if bad is not None and counterexample is None:
            a, b = bad
            slots = pairs[:, b].tolist() if fam == "iii" else \
                [*(divmod(a, n) if _family_arity(fam) == 4 else [a]),
                 *divmod(b, n)]
            counterexample = {"family": fam, "tuple": slots,
                              "words": [list(G.word(v)) for v in slots]}
    return VerificationReport(name="nu-relations", checks=checks,
                              counterexample=counterexample)
