"""Scalar oracles for the nu(G) verifiers.

``tensq.verify`` evaluates each check over whole arrays of tuples, and
``nu_relations`` the relation families in nu(G) itself.  These are the
loops they replaced: one ``comm_idx`` or ``mul_idx`` per tuple, in
nu(G), stopping at the first failure.  The relation-family loop returns
the whole report; the others return what their check reports.
"""

import itertools

from tensq.report import RELATION_FAMILIES, Check, VerificationReport
from tensq.verify import _family_arity


def scalar_nu_relations(nu, families=RELATION_FAMILIES):
    """``nu_relations``, one tuple at a time, stopping at each family's
    first failure."""
    G = nu.group
    amb = nu.ambient
    n = G.order()
    left, right = nu.left, nu.right
    mul, inv, comm, conj = amb.mul_idx, amb.inv_idx, amb.comm_idx, amb.conj_idx
    tensors = nu.tensors.tolist()

    def t(a, b):
        return tensors[a][b]

    def fam_i(g, h, x, y):
        lhs = conj(t(g, h), t(x, y))
        rhs = conj(t(g, h), comm(int(left[x]), int(left[y])))
        return lhs == rhs

    def fam_ii(g, h, x):
        vals = {
            comm(t(g, h), int(right[x])),
            comm(comm(int(left[g]), int(left[h])), int(right[x])),
            comm(t(g, h), int(left[x])),
            comm(comm(int(right[g]), int(left[h])), int(right[x])),
            comm(comm(int(right[g]), int(right[h])), int(left[x])),
            comm(comm(int(right[g]), int(left[h])), int(left[x])),
        }
        return len(vals) == 1

    def fam_iii(g, h):
        return mul(t(g, h), t(h, g)) == 0

    def fam_iv(g, h, x):
        c = G.comm_idx(h, x)
        return t(g, c) == inv(t(c, g))

    def fam_v(g, h, x, y):
        lhs = comm(t(g, h), t(x, y))
        rhs = t(G.comm_idx(g, h), G.comm_idx(x, y))
        return lhs == rhs

    evaluators = {"i": fam_i, "ii": fam_ii, "iii": fam_iii, "iv": fam_iv,
                  "v": fam_v}
    derived = G.derived_subgroup().indices()
    checks = []
    counterexample = None

    for fam in families:
        fn = evaluators[fam]
        arity = _family_arity(fam)
        if fam == "iii":
            tuples = itertools.chain(
                ((g, h) for g in range(n) for h in derived),
                ((g, h) for g in derived for h in range(n)))
        else:
            tuples = itertools.product(range(n), repeat=arity)
        count = 0
        bad = None
        for tup in tuples:
            count += 1
            if not fn(*tup):
                bad = tup
                break
        passed = bad is None
        checks.append(Check(
            label=f"relation ({fam})", passed=passed,
            details={"checked": count, "mode": "exhaustive"}))
        if bad is not None and counterexample is None:
            counterexample = {
                "family": fam,
                "tuple": [int(v) for v in bad],
                "words": [list(G.word(int(v))) for v in bad],
            }
    return VerificationReport(name="nu-relations", checks=checks,
                              counterexample=counterexample)


def scalar_commutator_closed(nu):
    """The first (a, b, c, d), witness pairs in scan order, with
    [[a,b'],[c,d']] != [[a,b], [c,d]'] or outside X; None if none."""
    amb = nu.ambient
    G = nu.group
    witnesses = nu.all_tensor_indices()
    tensors = nu.tensors.tolist()
    for x1, (a, b) in witnesses.items():
        for x2, (c, d) in witnesses.items():
            got = amb.comm_idx(x1, x2)
            want = tensors[G.comm_idx(a, b)][G.comm_idx(c, d)]
            if got != want or got not in witnesses:
                return (a, b, c, d)
    return None


def scalar_rho_on_pairs(nu):
    """Whether rho'([a,b']) = [a,b] for every pair."""
    G = nu.group
    n = G.order()
    images = nu.rho[nu.tensors].tolist()
    return all(images[a][b] == G.comm_idx(a, b)
               for a in range(n) for b in range(n))


def scalar_fibers(nu):
    """Whether each fiber of rho' on the tensor subgroup is a mu-coset,
    and the number of fibers."""
    amb = nu.ambient
    rho = nu.rho
    mu_set = nu.mu.index_set()
    fibers = {}
    for t in nu.tensor.indices():
        fibers.setdefault(int(rho[t]), []).append(t)
    ok = all(len(members) == nu.mu.order() and
             {amb.mul_idx(t, amb.inv_idx(members[0])) for t in members}
             == mu_set
             for members in fibers.values())
    return ok, len(fibers)


def scalar_set_products(nu):
    """tensor . G' and (tensor . G') . (G')', as index sets."""
    amb = nu.ambient
    gp = nu.group.derived_subgroup()
    tl = {amb.mul_idx(t, int(nu.left[a]))
          for t in nu.tensor.indices() for a in gp.indices()}
    tlr = {amb.mul_idx(u, int(nu.right[b]))
           for u in tl for b in gp.indices()}
    return tl, tlr
