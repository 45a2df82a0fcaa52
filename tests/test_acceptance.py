"""Acceptance suite.

One test per criterion, each printing a PASS/FAIL line (run with -s to
see them live).  The nu-constructions are shared through the session
factory, so repeated use across criteria pays the enumeration cost
once.
"""

import itertools
import math
import time

from tensq import (EngelScanConfig, dimension_subgroups, engel_power_scan,
                   engel_projection_check, engel_stack_identity,
                   fitting_subgroup, get_group, get_presentation,
                   invariant_factors_from_cyclic, jennings_recursion,
                   left_engel_set, lie_ring, tensor_report, verify_lazard,
                   verify_lie_axioms, verify_decomposition,
                   verify_nu_relations, verify_tensor_set_closed)
from tensq.catalog import catalog, p_group_names
from tensq.liering import ad_nilpotency_index

SUITE_START = time.monotonic()

NU_CAP = 16


def names_up_to(bound):
    return [n for n, e in catalog().items() if e.order <= bound]


def _criterion(num, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {num}: {detail}")
    assert passed, f"criterion {num}: {detail}"


def _primes_dividing(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def test_c01_order_law(nu_of):
    """|nu(G)| = |G (x) G| * |G|^2 for every catalog group of order <= 16,
    within 120 s."""
    start = time.monotonic()
    checked = []
    ok = True
    for name in names_up_to(NU_CAP):
        nu = nu_of(name)
        n = nu.group.order()
        ok = ok and nu.order() == nu.tensor.order() * n * n
        checked.append(name)
    elapsed = time.monotonic() - start
    _criterion(1, ok and elapsed <= 120.0,
               f"order law exact on {len(checked)} groups "
               f"({elapsed:.1f}s <= 120s)")


def test_c02_abelian_oracle(nu_of):
    """Tensor order and invariant factors match the gcd oracle on the
    six required abelian groups."""
    cases = {"C2": [2], "C3": [3], "C4": [4], "C6": [6],
             "C2xC2": [2, 2], "C2xC4": [2, 4]}
    ok = True
    for name, inv in cases.items():
        rep = tensor_report(nu_of(name))
        gcds = [math.gcd(a, b) for a in inv for b in inv]
        ok = ok and rep.tensor_order == math.prod(gcds)
        ok = ok and list(rep.tensor_invariants) == \
            invariant_factors_from_cyclic(gcds)
    _criterion(2, ok, f"gcd oracle and invariant factors on {len(cases)} "
                      "abelian groups")


def test_c03_basic_relations(module_of):
    """Tensor-commutator identities (i)-(v) on every tuple, for every
    catalog group of order <= 16; zero counterexamples.  They are
    evaluated on the crossed module of G (x) G; the ν(G) evaluation is
    the oracle of ``test_kernels``."""
    ok = True
    names = names_up_to(NU_CAP)
    for name in names:
        g = get_group(name)
        n, d = g.order(), g.derived_subgroup().order()
        report = verify_nu_relations(module_of(name))
        ok = ok and report.passed and [c.details for c in report.checks] \
            == [{"checked": k, "mode": "exhaustive"}
                for k in (n ** 4, n ** 3, 2 * n * d, n ** 3, n ** 4)]
    _criterion(3, ok, f"relations (i)-(v): {len(names)} groups, every "
                      "tuple, zero counterexamples")


def test_c04_tensor_set_closed(nu_of):
    """{[a,b']} is a normal commutator-closed subset, exhaustively, for
    all catalog groups of order <= 12."""
    ok = True
    count = 0
    for name in names_up_to(12):
        ok = ok and verify_tensor_set_closed(nu_of(name)).passed
        count += 1
    _criterion(4, ok, f"normal commutator-closed tensor set on {count} "
                      "groups")


def test_c05_decomposition(nu_of):
    """nu(G)' = (tensor . G') . (G')' with exact order multiplicativity,
    for all catalog groups of order <= 12."""
    ok = True
    count = 0
    for name in names_up_to(12):
        nu = nu_of(name)
        report = verify_decomposition(nu)
        gp = nu.group.derived_subgroup()
        nu_prime = nu.ambient.derived_subgroup()
        ok = ok and report.passed
        ok = ok and nu_prime.order() == nu.tensor.order() * gp.order() ** 2
        count += 1
    _criterion(5, ok, f"derived-subgroup decomposition on {count} groups")


def test_c06_derived_map(nu_of):
    """|G (x) G| = |mu| * |G'| and mu central, all catalog groups of
    order <= 16."""
    from tensq.nu import derived_map_check
    ok = True
    count = 0
    for name in names_up_to(NU_CAP):
        nu = nu_of(name)
        gp = nu.group.derived_subgroup()
        ok = ok and derived_map_check(nu).passed
        ok = ok and nu.tensor.order() == nu.mu.order() * gp.order()
        count += 1
    _criterion(6, ok, f"derived map and central mu on {count} groups")


def test_c07_route_independence(nu_of):
    """The all-elements, generator-triples and symbol-assembly
    constructions agree on order, tensor order and tensor structure for
    every compact-presentation entry within the construction cap."""
    ok = True
    count = 0
    for name in names_up_to(NU_CAP):
        if get_presentation(name) is None:
            continue
        reps = [tensor_report(nu_of(name, mode)).to_dict()
                for mode in ("all", "gens", "symbol")]
        for rep in reps:
            del rep["mode"]
        ok = ok and reps[0] == reps[1] == reps[2]
        count += 1
    _criterion(7, ok, f"the three construction routes agree on {count} "
                      "groups")


def test_c08_dimension_series():
    """Product formula equals the recursion termwise; [D_i, D_j] lands
    in D_{i+j} and p-th powers in D_{ip}, exhaustively, for all catalog
    p-groups."""
    ok = True
    count = 0
    for name, p in p_group_names():
        g = get_group(name)
        series = dimension_subgroups(g, p)
        oracle = jennings_recursion(g, p)
        ok = ok and series.termwise_equal(oracle)

        def term(k):
            return series.terms[min(k, len(series.terms)) - 1]

        c = len(series.terms)
        for i in range(1, c + 1):
            d_i = term(i)
            for j in range(1, c + 1):
                d_j = term(j)
                target = term(i + j)
                for a in d_i.indices():
                    for b in d_j.indices():
                        if not target.contains_index(g.comm_idx(a, b)):
                            ok = False
            target = term(i * p)
            for a in d_i.indices():
                if not target.contains_index(g.pow_idx(a, p)):
                    ok = False
        count += 1
    _criterion(8, ok, f"series formula = recursion and compatibility on "
                      f"{count} p-groups")


def test_c09_lie_axioms_and_lazard():
    """Lie axioms on all basis triples; the adjoint-power identity at
    q in {p, p^2}; the ad-nilpotency bound for every basis lift."""
    ok = True
    count = 0
    for name, p in p_group_names():
        g = get_group(name)
        ring = lie_ring(dimension_subgroups(g, p))
        ok = ok and verify_lie_axioms(ring).passed
        ok = ok and verify_lazard(ring, p).passed
        ok = ok and verify_lazard(ring, p * p).passed
        for e in ring.basis():
            q0 = g.order_of_idx(e.lift)       # a p-power here
            idx = ad_nilpotency_index(e, ring)
            ok = ok and idx is not None and idx <= q0
        count += 1
    _criterion(9, ok, f"Lie axioms, Lazard identity and ad bounds on "
                      f"{count} p-groups")


def test_c10_engel_suite(nu_of, module_of):
    """Projection implication with zero counterexamples (<= 12, all
    pairs, q in {1, p, p^2}); Engel set = Fitting subgroup (<= 16);
    power scans on D4 and Q8 record a q for every pair."""
    ok = True
    pairs_checked = 0
    for name in names_up_to(12):
        nu = nu_of(name)
        n = nu.group.order()
        for p in _primes_dividing(n) or [2]:
            for q in (1, p, p * p):
                for depth in (1, 2):
                    for x, y in itertools.product(range(n), repeat=2):
                        rep = engel_projection_check(nu, x, y, q, depth)
                        ok = ok and rep.passed
                        pairs_checked += 1

    fitting_ok = True
    for name in names_up_to(NU_CAP):
        g = get_group(name)
        engel = set(left_engel_set(g, g.order()))
        fitting_ok = fitting_ok and \
            engel == fitting_subgroup(g).index_set()

    scan_ok = True
    for name in ("D4", "Q8"):
        scan = engel_power_scan(module_of(name),
                                EngelScanConfig(p=2, m=3, n=2))
        scan_ok = scan_ok and scan.all_pairs_satisfied
    _criterion(10, ok and fitting_ok and scan_ok,
               f"projection ({pairs_checked} instances), Engel set = "
               "Fitting, scans complete on D4 and Q8")


def test_c11_tensor_p_power_orders(nu_of):
    """Every tensor [x, y'] in nu(G) has p-power order for every catalog
    p-group within the construction cap (exhaustive census)."""
    ok = True
    count = 0
    for name, p in p_group_names(max_order=NU_CAP):
        nu = nu_of(name)
        n = nu.group.order()
        for x in range(n):
            for y in range(n):
                order = nu.ambient.order_of_idx(nu.tensor_elem_idx(x, y))
                while order % p == 0:
                    order //= p
                ok = ok and order == 1
        count += 1
    _criterion(11, ok, f"exhaustive p-power order census on {count} "
                       "p-groups")


def test_c12_stacked_identity():
    """The stacked Engel word vanishes on every class-2 entry at depth 2
    and on every abelian entry over the (n, p, m) grid."""
    ok = True
    class2 = []
    abelian = []
    for name, entry in catalog().items():
        g = get_group(name)
        if g.is_abelian():
            abelian.append(name)
            for n, p, m in itertools.product((1, 2), (2, 3), (1, 2)):
                ok = ok and engel_stack_identity(g, n, p, m)
        elif g.is_nilpotent() and g.nilpotency_class() == 2:
            class2.append(name)
            p = _primes_dividing(g.order())[0]
            ok = ok and engel_stack_identity(g, 2, p, 1)
    _criterion(12, ok, f"stacked identity on class-2 {class2} and "
                       f"{len(abelian)} abelian entries")


def test_c13_performance(nu_of):
    """nu(D4) by the all-elements route within 10 s; the whole suite
    within 10 minutes."""
    nu_of("D4", "all")
    d4_all = nu_of.durations[("D4", "all")]
    elapsed = time.monotonic() - SUITE_START
    _criterion(13, d4_all <= 10.0 and elapsed <= 600.0,
               f"nu(D4) all-elements in {d4_all:.2f}s <= 10s; suite "
               f"{elapsed:.0f}s <= 600s")
