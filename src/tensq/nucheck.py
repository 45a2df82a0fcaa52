"""The checks of nu(G) itself, the ``closed``, ``decomp`` and ``rho``
lemmas of ``tensq verify``.

Each reads a built nu(G), a ``tensq.nu.NuGroup``: its ambient group,
the copies ``left`` and ``right`` of G, the n x n array ``tensors`` of
[a, b'], ``rho`` and the subgroups ``tensor`` and ``mu``.  The products
and commutators over index arrays that these checks and the relation
families of ``tensq.verify`` read are here too; ``verify`` imports them
and every check here, and this module imports nothing from it.  All
checks are read-only over immutable inputs and may run concurrently.
"""

from __future__ import annotations

import numpy as np

from . import closure, perm
from .report import Check, VerificationReport


def _products(amb, a, b):
    """``index(a[i] * b[i])`` in ``amb`` over index arrays of one shape:
    a gather through the columns of b's distinct values, read in blocks
    of at most ``perm.COLUMN_CACHE_ENTRIES`` entries."""
    a = np.asarray(a, dtype=np.intp)
    b = np.asarray(b, dtype=np.intp)
    n = amb.order()
    seen = np.zeros(n, dtype=bool)
    seen[b] = True
    values = np.flatnonzero(seen)
    rank = np.zeros(n, dtype=np.intp)
    rank[values] = np.arange(values.size)
    row = rank[b]
    step = max(1, perm.COLUMN_CACHE_ENTRIES // n)
    if values.size <= step:
        return amb.right_columns(values.tolist())[row, a]
    out = np.empty(b.shape, dtype=np.int32)
    for lo in range(0, values.size, step):
        part = (row >= lo) & (row < lo + step)
        block = amb.right_columns(values[lo:lo + step].tolist())
        out[part] = block[row[part] - lo, a[part]]
    return out


def _commutators(amb, a, b):
    """[a, b] = a^-1 b^-1 a b over index arrays, multiplied left to right
    as ``comm_idx`` does, so it reads the columns of b^-1, a and b."""
    inv = amb.inverse_indices()
    p = _products(amb, inv[a], inv[b])
    return _products(amb, _products(amb, p, a), b)


def _group_commutators(G):
    """``c[a, b] = index([a, b])`` for all a, b in G."""
    return G.commutator_columns(range(G.order())).T


def verify_tensor_set_closed(nu):
    """The set X = {[a, b'] : a, b in G} is normal in nu(G) and closed
    under commutators, with [[a,b'],[c,d']] = [[a,b], [c,d]'] verified
    elementwise."""
    amb = nu.ambient
    G = nu.group
    witnesses = nu.all_tensor_indices()
    members = list(witnesses)
    inside = np.zeros(amb.order(), dtype=bool)
    inside[members] = True
    checks = []
    counterexample = None

    # every conjugate of every witness by every generator, in one gather
    # and with no column per witness; the first miss, witness-major
    miss = np.argwhere(~inside[amb.generator_conjugates(members)].T)
    bad = None
    if miss.size:
        x, t = miss[0].tolist()
        bad = (members[x], amb.generator_indices()[t])
    checks.append(Check("X is a normal subset", bad is None,
                        {"set_size": len(members)}))
    if bad and counterexample is None:
        counterexample = {"kind": "normality", "tensor": bad[0],
                          "conjugator": bad[1]}

    # [x1, x2] against [[a,b], [c,d]'] over the witness pairs, x1-major
    m = len(members)
    x = np.asarray(members, dtype=np.intp)
    pairs = np.array(list(witnesses.values()), dtype=np.intp)
    c = _group_commutators(G)[pairs[:, 0], pairs[:, 1]]
    got = _commutators(amb, np.repeat(x, m), np.tile(x, m))
    want = nu.tensors[np.repeat(c, m), np.tile(c, m)]
    miss = np.flatnonzero((got != want) | ~inside[got])
    bad = None
    if miss.size:
        k = int(miss[0])
        bad = tuple(pairs[k // m].tolist() + pairs[k % m].tolist())
    checks.append(Check("X is commutator-closed, elementwise", bad is None,
                        {"pairs": m ** 2}))
    if bad and counterexample is None:
        counterexample = {"kind": "commutator", "tuple": list(bad)}

    # X generates what the witnesses outside the closure of those before
    # them generate, so only their columns are stacked: 4 of the 33
    # witnesses of nu(C3xC3)
    kept, span = [], {0}
    for w in members:
        if w not in span:
            kept.append(w)
            span = amb.subgroup(kept).index_set()
    checks.append(Check("X generates the tensor subgroup",
                        span == nu.tensor.index_set(),
                        {"tensor_order": nu.tensor.order()}))
    return VerificationReport(name="tensor-set-closed", checks=checks,
                              counterexample=counterexample)


def _product_set(amb, xs, ys):
    """The distinct products x y, x in ``xs`` and y in ``ys``, ascending."""
    prods = _products(amb, np.repeat(xs, len(ys)), np.tile(ys, len(xs)))
    seen = np.zeros(amb.order(), dtype=bool)
    seen[prods] = True
    return np.flatnonzero(seen)


def verify_decomposition(nu):
    """Decomposition of the derived subgroup of nu(G) as the iterated
    internal semidirect product ([G,G'] . G') . (G')'."""
    amb = nu.ambient
    G = nu.group
    nu_prime = amb.derived_subgroup()
    gp = G.derived_subgroup()
    t_idx = nu.tensor.indices()
    gp_idx = np.asarray(gp.indices(), dtype=np.intp)
    l_gp, r_gp = nu.left[gp_idx], nu.right[gp_idx]

    tl = _product_set(amb, t_idx, l_gp)
    tlr = _product_set(amb, tl, r_gp)

    checks = [
        Check("tensor meets left copy of G' trivially",
              len(tl) == len(t_idx) * len(l_gp),
              {"product_size": len(tl)}),
        Check("first factor meets right copy of G' trivially",
              len(tlr) == len(tl) * len(r_gp),
              {"product_size": len(tlr)}),
        Check("set product equals the derived subgroup of nu(G)",
              set(tlr.tolist()) == nu_prime.index_set(),
              {"nu_prime_order": nu_prime.order()}),
        Check("order law |nu(G)'| = |tensor| * |G'|^2",
              nu_prime.order() ==
              nu.tensor.order() * gp.order() * gp.order(),
              {"tensor_order": nu.tensor.order(), "gprime": gp.order()}),
    ]

    # tl = tensor . G' lies in the group generated by X, the generators
    # of the tensor subgroup and of the left copy of G', and contains X.
    # If 1 is in tl and tl . s lies in tl for every s in X, then tl holds
    # every positive word in X, which is all of <X> since nu(G) is
    # finite; so tl = <X> is a subgroup.  A subgroup containing X passes
    # both tests, so they equal the pairwise check tl . tl within tl,
    # and they read one column per member of X, not one per member of tl.
    x_idx = list(nu.tensor.generators) + \
        [int(nu.left[g]) for g in gp.generators]
    inside = np.zeros(amb.order(), dtype=bool)
    inside[tl] = True
    tl_closed = bool(inside[0]) and \
        bool(inside[amb.right_columns(x_idx)[:, tl]].all())
    checks.append(Check("tensor . G' is a subgroup", tl_closed,
                        {"order": len(tl)}))
    # u^g = (g^-1 u) g with g^-1 u = (u^-1 g)^-1: only g's column is read
    inv = amb.inverse_indices()
    inv_members = inv[tl]
    normal = all(
        bool(inside[c[inv[c[inv_members]]]].all())
        for c in amb.right_columns(nu_prime.generators))
    checks.append(Check("tensor . G' is normal in nu(G)'", normal, {}))
    return VerificationReport(name="decomposition", checks=checks)


def derived_map_check(nu):
    """The derived map rho' : [G,G'] -> G', [a,b'] |-> [a,b]; its kernel
    mu is central and the induced map [G,G']/mu -> G' is an
    isomorphism."""
    amb = nu.ambient
    G = nu.group
    n = G.order()
    gp = G.derived_subgroup()
    rho = nu.rho
    checks = []

    ok = bool((rho[nu.tensors] == _group_commutators(G)).all())
    checks.append(Check("rho'([a,b']) = [a,b] for all pairs", ok,
                        {"pairs": n * n}))

    t_idx = np.asarray(nu.tensor.indices(), dtype=np.intp)
    mu_members = np.asarray(nu.mu.indices(), dtype=np.intp)
    in_mu = np.zeros(amb.order(), dtype=bool)
    in_mu[mu_members] = True
    images = rho[t_idx]
    ok = bool(((images == 0) == in_mu[t_idx]).all())
    checks.append(Check("mu = kernel of rho' on the tensor subgroup", ok,
                        {"mu_order": nu.mu.order()}))

    # the mu-cosets of the tensor subgroup, in the ambient's index
    # space: the coset of r is column r read at mu, one column per coset
    labelled = np.zeros(amb.order(), dtype=bool)
    cosets = 0
    for r in t_idx.tolist():
        if not labelled[r]:
            labelled[amb.column(r)[mu_members]] = True
            cosets += 1
    checks.append(Check("|tensor / mu| = |G'|", cosets == gp.order(),
                        {"quotient_order": cosets,
                         "gprime_order": gp.order()}))

    sizes = np.bincount(images, minlength=n)
    checks.append(Check("rho' maps the tensor subgroup onto G'",
                        set(np.flatnonzero(sizes).tolist()) ==
                        set(gp.indices()), {}))

    # each fiber of rho' is one mu-coset: |mu| members t, each t r^-1 in
    # mu for r the first member; these |mu| products are all of mu
    first = np.full(n, t_idx.size)
    closure.least_positions(first, images, np.arange(t_idx.size))
    reps = t_idx[first[images]]
    ok = bool((sizes[sizes > 0] == nu.mu.order()).all()) and \
        bool(in_mu[_products(amb, t_idx, amb.inverse_indices()[reps])].all())
    checks.append(Check("fibers of rho' are mu-cosets", ok,
                        {"fibers": int(np.count_nonzero(sizes))}))

    # s^-1 m s = m for every generator s, with no column cached per m
    central = bool((amb.generator_conjugates(mu_members)
                    == mu_members).all())
    checks.append(Check("mu is central in nu(G)", central, {}))
    return VerificationReport(name="derived-map", checks=checks)
