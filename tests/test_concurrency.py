"""Concurrent reads over shared immutable structures.

Caches fill idempotently (compute fully, then assign), so racing
readers must always observe either nothing or a complete value.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

from tensq import (FiniteGroup, build_nu, get_group, get_presentation,
                   lie_ring, dimension_subgroups, tensor_module,
                   verify_lazard, verify_nu_relations,
                   verify_tensor_set_closed)
from tensq.report import RELATION_FAMILIES


def test_concurrent_group_cache_fill():
    g = get_group("Q8")
    fresh = type(g)([*g.generators], name="Q8-clone")
    with ThreadPoolExecutor(max_workers=8) as pool:
        orders = list(pool.map(lambda _: fresh.order(), range(16)))
        tables = list(pool.map(lambda _: fresh.table() is not None,
                               range(16)))
    assert orders == [8] * 16
    assert all(tables)


def test_concurrent_regular_group_cache_fill():
    amb = build_nu(get_group("S3"), get_presentation("S3")).ambient
    n = amb.order()

    def read(group, start):
        # each reader walks the columns from its own offset, so the
        # column and inverse caches are filled in different orders
        cols = [(start + 7 * k) % n for k in range(n // 7)]
        return ([[group.mul_idx(i, j) for i in range(n)] for j in cols],
                [group.element(j).images.tolist() for j in cols],
                [group.inv_idx(j) for j in cols],
                group.table().tolist())

    shared = FiniteGroup(amb.generators, regular=True)
    starts = list(range(16))
    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda s: read(shared, s), starts,
                                    timeout=120))
    finally:
        sys.setswitchinterval(saved)
    for s, got in zip(starts, results):
        alone = FiniteGroup(amb.generators, regular=True)
        assert got == read(alone, s)


def read_index_space(group, start):
    """Fill the lazy caches (breadth-first levels, left multiplication by
    the generators' inverses, the inverse sweep, the column cache, the
    generators' conjugation map, the lower central series) in an order
    set by ``start``, and read them back."""
    n = group.order()
    cols = [(start + 5 * k) % n for k in range(max(1, n // 5))]
    reads = [
        lambda: [[part.tolist() for part in level]
                 for level in group.levels()],
        lambda: group._left_inverses().tolist(),
        lambda: group.inverse_indices().tolist(),
        lambda: [group.column(j).tolist() for j in cols],
        lambda: group.commutator_columns(cols[:8]).tolist(),
        lambda: group.conjugation_map().tolist(),
        lambda: [t.indices() for t in group.lower_central_series().terms],
    ]
    got = {}
    for k in range(len(reads)):
        i = (start + k) % len(reads)
        got[i] = reads[i]()
    return [got[i] for i in range(len(reads))]


def test_concurrent_index_space_cache_fill():
    amb = build_nu(get_group("S3"), get_presentation("S3")).ambient
    s4 = get_group("S4")
    makers = [lambda: FiniteGroup(amb.generators, regular=True),
              lambda: FiniteGroup(s4.generators)]
    starts = list(range(16))
    for make in makers:
        shared = make()
        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(
                    lambda s: read_index_space(shared, s), starts,
                    timeout=120))
        finally:
            sys.setswitchinterval(saved)
        for s, got in zip(starts, results):
            assert got == read_index_space(make(), s)


def test_concurrent_verifications_share_a_nu_group():
    # the relation families read the crossed module the nu(G) build
    # shares its symbol columns with
    module = tensor_module(get_group("S3"))
    nu = build_nu(module.group, get_presentation("S3"), module=module)
    jobs = [lambda: verify_nu_relations(module).passed,
            lambda: verify_tensor_set_closed(nu).passed,
            lambda: verify_nu_relations(
                module, families=RELATION_FAMILIES[::-1]).passed,
            lambda: verify_tensor_set_closed(nu).passed]
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = [f.result() for f in [pool.submit(j) for j in jobs]]
    assert results == [True] * 4


def test_concurrent_lie_verification():
    ring = lie_ring(dimension_subgroups(get_group("Heis3"), 3))
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda q: verify_lazard(ring, q).passed,
                                [3, 9, 3, 9]))
    assert results == [True] * 4
