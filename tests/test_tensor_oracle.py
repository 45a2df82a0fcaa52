"""Independent oracle for the tensor square.

The tensor square is generated by symbols g (x) h subject to the two
crossed-pairing relation families

    (g g1) (x) h = (g^g1 (x) h^g1) (g1 (x) h)
    g (x) (h h1) = (g (x) h1) (g^h1 (x) h^h1)

over all elements (``symbol_oracle.symbol_presentation``).  Enumerating
that presentation directly shares nothing with the two Todd-Coxeter routes
to nu(G), "all" and "gens", so agreement with each of them is a genuine
cross-check of the identification g (x) h <-> [g, h'].  The "symbol"
route assembles nu(G) from this very enumeration, so it is never the
other side of these comparisons.
"""

import itertools

from tensq import get_group, get_presentation, tc_enumerate, to_perm_group
from tensq.catalog import catalog

from standalone import standalone_group
from symbol_oracle import symbol_presentation


def _order_census(group):
    out = {}
    for i in range(group.order()):
        o = group.order_of_idx(i)
        out[o] = out.get(o, 0) + 1
    return out


def test_symbol_presentation_matches_nu_realization(nu_of):
    for name, entry in catalog().items():
        if entry.order > 12:
            continue
        group = get_group(name)
        pres = symbol_presentation(group)
        assert len(pres.relators) == 2 * group.order() ** 3
        table = tc_enumerate(pres)
        symbol_group = to_perm_group(table)
        modes = ("all", "gens") if get_presentation(name) else ("all",)
        for mode in modes:
            nu = nu_of(name, mode)
            assert table.coset_count == nu.tensor.order(), (name, mode)
            assert _order_census(symbol_group) == \
                _order_census(standalone_group(nu.tensor)), (name, mode)
        # every relator holds in nu(G) under g (x) h |-> [g, h']
        nu = nu_of(name, "all")
        amb, tensors = nu.ambient, nu.tensors.ravel().tolist()
        for rel in pres.relators:
            acc = 0
            for x in rel:
                t = tensors[x >> 1]
                acc = amb.mul_idx(acc, amb.inv_idx(t) if x & 1 else t)
            assert acc == 0, (name, rel)


def test_tensors_satisfy_the_crossed_pairing_relations(nu_of):
    # the map g (x) h |-> [g, h'] must send both relation families to
    # identities of nu(G); with the order equality above this is the
    # isomorphism, witnessed elementwise
    for name, mode in itertools.product(("S3", "D4", "Q8", "C3xC3"),
                                        ("all", "gens")):
        nu = nu_of(name, mode)
        group, amb = nu.group, nu.ambient
        n = group.order()
        for g, h, k in itertools.product(range(n), repeat=3):
            gk = group.conj_idx(g, k)
            hk = group.conj_idx(h, k)
            lhs = nu.tensor_elem_idx(group.mul_idx(g, k), h)
            rhs = amb.mul_idx(nu.tensor_elem_idx(gk, hk),
                              nu.tensor_elem_idx(k, h))
            assert lhs == rhs, (name, mode, "first slot", g, h, k)
            lhs = nu.tensor_elem_idx(g, group.mul_idx(h, k))
            rhs = amb.mul_idx(nu.tensor_elem_idx(g, k),
                              nu.tensor_elem_idx(gk, hk))
            assert lhs == rhs, (name, mode, "second slot", g, h, k)
