"""Independent oracle for the tensor square.

The tensor square is generated by symbols g (x) h subject to the two
crossed-pairing relation families

    (g g1) (x) h = (g^g1 (x) h^g1) (g1 (x) h)
    g (x) (h h1) = (g (x) h1) (g^h1 (x) h^h1)

over all elements.  Enumerating that presentation directly shares
nothing with the nu-group route, so agreement of the two is a genuine
cross-check of the identification g (x) h <-> [g, h'].
"""

import itertools

from tensq import Word, Presentation, get_group, tc_enumerate, to_perm_group
from tensq.catalog import catalog

from standalone import standalone_group


def brown_loday_presentation(group):
    n = group.order()
    names = tuple(f"t{g}_{h}" for g in range(n) for h in range(n))

    def sym(g, h):
        return g * n + h

    relators = []
    for g in range(n):
        for h in range(n):
            for k in range(n):
                gk = group.conj_idx(g, k)
                hk = group.conj_idx(h, k)
                relators.append(Word([(sym(group.mul_idx(g, k), h), -1),
                                      (sym(gk, hk), 1), (sym(k, h), 1)]))
                relators.append(Word([(sym(g, group.mul_idx(h, k)), -1),
                                      (sym(g, k), 1), (sym(gk, hk), 1)]))
    return Presentation(names, tuple(relators))


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
        table = tc_enumerate(brown_loday_presentation(group), ())
        nu = nu_of(name)
        assert table.coset_count == nu.tensor.order(), name
        symbol_group = to_perm_group(table)
        assert _order_census(symbol_group) == \
            _order_census(standalone_group(nu.tensor)), name


def test_tensors_satisfy_the_crossed_pairing_relations(nu_of):
    # the map g (x) h |-> [g, h'] must send both relation families to
    # identities of nu(G); with the order equality above this is the
    # isomorphism, witnessed elementwise
    for name in ("S3", "D4", "Q8", "C3xC3"):
        nu = nu_of(name)
        group, amb = nu.group, nu.ambient
        n = group.order()
        for g, h, k in itertools.product(range(n), repeat=3):
            gk = group.conj_idx(g, k)
            hk = group.conj_idx(h, k)
            lhs = nu.tensor_elem_idx(group.mul_idx(g, k), h)
            rhs = amb.mul_idx(nu.tensor_elem_idx(gk, hk),
                              nu.tensor_elem_idx(k, h))
            assert lhs == rhs, (name, "first slot", g, h, k)
            lhs = nu.tensor_elem_idx(g, group.mul_idx(h, k))
            rhs = amb.mul_idx(nu.tensor_elem_idx(g, k),
                              nu.tensor_elem_idx(gk, hk))
            assert lhs == rhs, (name, "second slot", g, h, k)
