"""Differential tests of the index-space group kernels.

Every whole-group kernel (subgroup closure, inverses, the commutator
and Engel sweeps, the Fitting and Jennings series, the Lie ring, the
nu(G) build) runs along breadth-first levels over O(N) columns and
never reads a Cayley table.  Each is compared with an independent
version: permutation products, a scalar breadth-first closure, the
brute-force triple loop of the stacked Engel word, values recorded from
the earlier scalar and table implementations, the scalar loops of the
nu(G) verifiers (``scalar_relations``), the relation families evaluated
in nu(G) against the crossed module (``nu_relations``), the Fitting
subgroup from the whole normal-subgroup lattice, and the Cayley table
itself, which ``table()`` builds only as an oracle.  Inside ``no_table``
building any table fails, so a kernel that reached for one would fail
its test.
"""

import contextlib
import dataclasses
import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tensq
from tensq import (FiniteGroup, InvariantError, Permutation, build_nu,
                   commutator, dimension_subgroups, engel_degree,
                   engel_stack_identity, fitting_subgroup, get_group,
                   get_presentation, left_engel_set, lie_ring,
                   tc_enumerate, tensor_module, tensor_report,
                   to_perm_group, verify_nu_relations)
from tensq import closure as closure_module
from tensq import nu as nu_module
from tensq import perm as perm_module
from tensq import nucheck as nucheck_module
from tensq.catalog import catalog
from tensq.engel import EngelScanConfig, engel_power_scan
from tensq.liering import jennings_recursion
from tensq.nu import (derived_map_check, verify_decomposition,
                      verify_tensor_set_closed)
from tensq.report import RELATION_FAMILIES
from tensq.closure import Subgroup, power_subgroup

from engel_oracle import nu_engel_power_scan
from nu_relations import module_relations, nu_relations
from scalar_relations import (scalar_commutator_closed, scalar_fibers,
                              scalar_nu_relations, scalar_rho_on_pairs,
                              scalar_set_products)
from standalone import standalone_group


def product(*groups):
    """Direct product acting on the disjoint union of the points."""
    degree = sum(g.degree for g in groups)
    gens = []
    offset = 0
    for g in groups:
        for p in g.generators:
            images = list(range(degree))
            for i, x in enumerate(p.images):
                images[offset + i] = offset + int(x)
            gens.append(Permutation(images))
        offset += g.degree
    return FiniteGroup(gens, name="x".join(g.name for g in groups))


def fresh(name):
    """A new, unclosed copy of a catalog group (no cached table)."""
    g = get_group(name)
    return FiniteGroup(g.generators, name=name)


def digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


@contextlib.contextmanager
def no_table():
    """Building any Cayley table fails inside this block."""
    def refuse(*args):
        raise AssertionError("a kernel built a Cayley table")

    with mock.patch.object(perm_module, "_sweep_table", refuse):
        yield


def scalar_closure(group, gens):
    """Breadth-first closure by permutation products, one queue."""
    order = [0]
    seen = {0}
    i = 0
    while i < len(order):
        e = group.element(order[i])
        for g in gens:
            f = group.index_of(e * g)
            if f not in seen:
                seen.add(f)
                order.append(f)
        i += 1
    return tuple(order)


def table_closure(t, gens):
    """Breadth-first closure over the Cayley table ``t``, one queue."""
    order = [0]
    seen = {0}
    i = 0
    while i < len(order):
        for g in gens:
            f = int(t[order[i], g])
            if f not in seen:
                seen.add(f)
                order.append(f)
        i += 1
    return tuple(order)


# -- Cayley tables ------------------------------------------------------------

def assert_table_matches_products(group):
    t = group.table()
    els = group.elements()
    n = group.order()
    assert t.shape == (n, n)
    for i, j in itertools.product(range(n), repeat=2):
        assert t[i, j] == group.index_of(els[i] * els[j]), (i, j)


@pytest.mark.parametrize("name", list(catalog()))
def test_generic_table_matches_products(name):
    assert_table_matches_products(fresh(name))


def test_table_of_a_nu_ambient_subgroup(nu_of):
    # a generic group on 2048 points whose elements come from the
    # regular nu(D4)
    nu = nu_of("D4")
    tensor = standalone_group(nu.tensor)
    assert tensor.order() == nu.tensor.order()
    assert_table_matches_products(tensor)


@pytest.mark.parametrize(
    "name", [n for n, e in catalog().items() if e.order <= 16])
def test_tensor_series_matches_standalone_group(nu_of, name):
    # the tensor subgroup's lower central series in the parent's index
    # space against the series of the same group built from scratch
    nu = nu_of(name)
    oracle = standalone_group(nu.tensor)
    got = nu.tensor.lower_central_series()
    want = oracle.lower_central_series()
    assert [t.order() for t in got.terms] == \
        [t.order() for t in want.terms]
    want_class = oracle.nilpotency_class() if oracle.is_nilpotent() \
        else None
    assert tensor_report(nu).tensor_class == want_class


def test_regular_table_matches_products(nu_of):
    assert_table_matches_products(nu_of("S3", "all").ambient)


# -- subgroup closure ---------------------------------------------------------

closure_cases = st.tuples(
    st.sampled_from(["S4", "Heis3", "D4", "A4", "M27"]),
    st.lists(st.integers(0, 10_000), max_size=12),
    st.integers(1, 40))


def scalar_normal_closure(group, seeds):
    """Normal closure by permutation conjugates: close the seeds, add
    every conjugate of a seed by a generator that falls outside the
    closure, and repeat until nothing new appears."""
    seeds = list(dict.fromkeys(seeds))
    while True:
        closed = scalar_closure(group, seeds)
        new = []
        for s in seeds:
            for x in group.generators:
                c = s.conjugate_by(x)
                if group.index_of(c) not in closed and c not in new:
                    new.append(c)
        if not new:
            return closed
        seeds += new


@given(closure_cases)
@example(("S4", [5, 11], 40))     # the normal closure's seed order matters
@example(("Heis3", [1, 2, 3], 4))  # one row a chunk: levels are cut
@settings(max_examples=60, deadline=None)
def test_subgroup_indices_match_scalar_closure(case):
    name, picks, chunk = case
    g = get_group(name)
    n = g.order()                       # g's own closure is not counted
    idx = [k % n for k in picks]
    gens = [g.element(i) for i in idx]

    def closures(sizes):
        """The subgroup and the normal closure, with the size of each
        chunk that a breadth-first level is gathered in."""
        first_new = closure_module._first_new

        def counted(values, marks):
            sizes.append(values.size)
            return first_new(values, marks)

        with mock.patch.object(closure_module, "_first_new", counted):
            return g.subgroup(idx), g.normal_closure(idx)

    # every level gathered, as a small level taken by the scalar queue
    # makes no _first_new call
    with mock.patch.object(closure_module, "QUEUE_ENTRIES", 0):
        whole = []
        closures(whole)                 # one call per level, uncut
        chunks = []
        with mock.patch.object(closure_module, "SWEEP_ENTRIES", chunk):
            sub, normal = closures(chunks)
    assert sub.indices() == scalar_closure(g, gens)
    assert sub.generators == tuple(idx)
    assert normal.indices() == scalar_normal_closure(g, gens)
    # every candidate is gathered once, in chunks of max(1, chunk // k)
    # rows of k, so a level larger than that is cut into more calls
    k = max(len(idx), len(normal.generators), 1)
    assert sum(chunks) == sum(whole)
    assert max(chunks, default=0) <= max(chunk, k)
    if max(whole, default=0) > max(chunk, k):
        assert len(chunks) > len(whole)


def queue_levels(right):
    """Breadth-first levels of a scalar queue over right-multiplication
    columns, as lists of (source, column position, new element)."""
    rows = right.tolist()
    seen = {0}
    levels = []
    frontier = [0]
    while frontier:
        level = []
        for s in frontier:
            for t, row in enumerate(rows):
                if row[s] not in seen:
                    seen.add(row[s])
                    level.append((s, t, row[s]))
        if level:
            levels.append(level)
        frontier = [v for _, _, v in level]
    return levels


def swept_levels(right):
    return [list(zip(*(a.tolist() for a in level)))
            for level in closure_module.bfs_levels(right)]


def _subgroup_columns():
    rng = random.Random(11)
    for name in ["S4", "Heis3", "D4", "A4", "M27", "C27"]:
        g = get_group(name)
        yield g.right_columns(g.generator_indices())
        for size in (1, 2, 3, 5):
            yield g.right_columns(rng.sample(range(g.order()), size))


def _regular_columns():
    """C4096, C2^16 and C3^9 by their right-multiplication columns:
    levels of one element, and levels that grow past QUEUE_ENTRIES and
    shrink below it again."""
    points = np.arange(4096)
    yield ((points + 1) % 4096)[None]
    points = np.arange(1 << 16)
    yield np.stack([points ^ (1 << t) for t in range(16)])
    digits = np.arange(3 ** 9)
    yield np.stack([digits - digits // 3 ** t % 3 * 3 ** t
                    + (digits // 3 ** t + 1) % 3 * 3 ** t
                    for t in range(9)])


@pytest.mark.parametrize("entries", [0, None, 10 ** 9],
                         ids=["gathered", "default", "queue"])
def test_bfs_levels_match_a_scalar_queue(entries):
    # every level gathered, each level on the path of its size, and
    # every level by the scalar queue give the same levels
    patch = contextlib.nullcontext() if entries is None else \
        mock.patch.object(closure_module, "QUEUE_ENTRIES", entries)
    with patch:
        for right in _subgroup_columns():
            assert swept_levels(right) == queue_levels(right)


def test_regular_bfs_levels_cross_the_queue_bound():
    for right in _regular_columns():
        right = right.astype(np.int32)
        k = len(right)
        levels = queue_levels(right)
        sizes = [len(level) * k for level in levels]
        if k > 1:
            assert min(sizes) <= closure_module.QUEUE_ENTRIES < max(sizes)
        assert swept_levels(right) == levels
        assert 1 + sum(map(len, levels)) == right.shape[1]


# -- the stacked Engel word ---------------------------------------------------

def brute_stack_identity(group, n, p, m):
    """[z, n c, n c^p, ..., n c^(p^m)] = 1 for every triple (z, x1, y1),
    c = [x1, y1], by permutation arithmetic."""
    els = group.elements()
    for x1, y1, z in itertools.product(els, repeat=3):
        c = commutator(x1, y1)
        w = z
        for j in range(m + 1):
            cp = c ** (p ** j)
            for _ in range(n):
                w = commutator(w, cp)
        if not w.is_identity():
            return False
    return True


STACK_GRID = [(1, 2, 0), (2, 2, 0), (1, 2, 1), (1, 3, 1), (2, 3, 0),
              (3, 2, 1)]


@pytest.mark.parametrize("name", ["S3", "D4", "Q8", "A4"])
@pytest.mark.parametrize("n,p,m", STACK_GRID)
def test_stack_identity_matches_triple_loop(name, n, p, m):
    g = get_group(name)
    assert engel_stack_identity(g, n, p, m) == \
        brute_stack_identity(g, n, p, m)


def test_stack_identity_s4_matches_triple_loop():
    s4 = get_group("S4")
    for n, p, m in [(1, 2, 0), (2, 3, 1)]:
        assert engel_stack_identity(s4, n, p, m) == \
            brute_stack_identity(s4, n, p, m)


def test_stack_identity_grid_has_both_answers():
    results = {engel_stack_identity(get_group(name), n, p, m)
               for name in ["S3", "D4", "Q8", "A4"]
               for n, p, m in STACK_GRID}
    assert results == {True, False}


# -- Fitting subgroup and Jennings series, recorded from the scalar loops ----

# order, digest of indices(), digest of the generators' images
FITTING_RECORDED = {
    "C1": [1, "91d6039a01f57163", "db407f11d7ede59a"],
    "C2": [2, "a5cabe61309cbdb1", "c1b92cfd1182059c"],
    "C3": [3, "eae0f06c46ca0f14", "1fb472377f9fb6bf"],
    "C4": [4, "c5c25158dde5b90a", "a3359022663e6a89"],
    "C2xC2": [4, "c5c25158dde5b90a", "074eb013df6a860d"],
    "C5": [5, "93f21536d27c36af", "5443b6139c9bab1f"],
    "C6": [6, "3a06086c62e636d4", "5bed5ca8ac424ac8"],
    "S3": [3, "1d81c36ffd2cf367", "69032b2f01ba0a43"],
    "C8": [8, "47812a023d21e7df", "069f5b47cdb804ec"],
    "C2xC4": [8, "71347777824d0062", "a77f44d8b50d8459"],
    "D4": [8, "c177f284290a0191", "6c4d35a558caafba"],
    "Q8": [8, "d2cbb675bd3e73b4", "60d8d52e61c8e4d0"],
    "C9": [9, "d1cd164c79aaaaf3", "0f16c5076f6034fc"],
    "C3xC3": [9, "2c029166b421accd", "c80e237a7354fdb1"],
    "D5": [5, "fcfb4d1753fdac51", "5443b6139c9bab1f"],
    "A4": [4, "e0f19b94c1b5e186", "171d610e473d7ebe"],
    "S4": [4, "1dbc9bd594dd351c", "665acea3d19a0e24"],
    "Heis3": [27, "c41997a238d162f5", "ff36e222c88fc994"],
    "M27": [27, "419a711a07554945", "ad454bf428db32f5"],
    "C27": [27, "aae8abadecd64265", "7c0c0d9dcdeb67b1"],
    "S3xS3": [9, "3ab5c8285d6af063", "5ed2efee199c9b6b"],
    "A4xC2": [8, "b721cec2d7644b2d", "65112d08148fb4c5"],
    "D4xC2": [16, "3e082b3b8640dd7c", "bbfe4be0424ba960"],
    "S3xC3": [9, "879e02fa8cb7c6ff", "cb598c1b2b79cf04"],
    "S4xC2": [8, "fc6e9df89f29de20", "0db012d77c0cbddc"],
    "D4xD4": [64, "185423220f0addb5", "15805dd68c7d02f6"],
}

# term orders, digest of every term's indices()
JENNINGS_RECORDED = {
    ("C2", 2): [[2, 1], "3ac6e77761462525"],
    ("C4", 2): [[4, 2, 1], "b3dc1725c1799921"],
    ("C2xC2", 2): [[4, 1], "e0f8a32a562912b9"],
    ("C8", 2): [[8, 4, 2, 2, 1], "dfed5be1f63a8f24"],
    ("C2xC4", 2): [[8, 2, 1], "6ecf07800207c3d7"],
    ("D4", 2): [[8, 2, 1], "c7dfc196e6d866b3"],
    ("Q8", 2): [[8, 2, 1], "c7dfc196e6d866b3"],
    ("C9", 3): [[9, 3, 3, 1], "2279f269d57b6951"],
    ("C3xC3", 3): [[9, 1], "fce75cca002eefe4"],
    ("Heis3", 3): [[27, 3, 1], "7538015e5d12e4d3"],
    ("M27", 3): [[27, 3, 3, 1], "d104517ff3562e1d"],
    ("C27", 3): [[27, 9, 9, 3, 3, 3, 3, 3, 3, 1], "cb620d36ad87cecf"],
    ("D4xC2", 2): [[16, 2, 1], "e8677b249e3986b0"],
    ("Q8xC4", 2): [[32, 4, 1], "93809627eb4308c1"],
    ("Heis3xC3", 3): [[81, 3, 1], "cd6efe31cb792c5c"],
}


PRODUCTS = {"S3xS3": ("S3", "S3"), "A4xC2": ("A4", "C2"),
            "D4xC2": ("D4", "C2"), "S3xC3": ("S3", "C3"),
            "S4xC2": ("S4", "C2"), "D4xD4": ("D4", "D4"),
            "Q8xC4": ("Q8", "C4"), "Heis3xC3": ("Heis3", "C3"),
            "S3xC2xC2": ("S3", "C2", "C2"), "S3xQ8": ("S3", "Q8")}


def build_product(name):
    if name in PRODUCTS:
        return product(*(fresh(part) for part in PRODUCTS[name]))
    return fresh(name)


def fitting_record(group):
    fit = fitting_subgroup(group)
    return [fit.order(), digest(fit.indices()),
            digest([group.element(g).images.tolist()
                    for g in fit.generators])]


def jennings_record(group, p):
    series = jennings_recursion(group, p)
    return [[t.order() for t in series.terms],
            digest([t.indices() for t in series.terms])]


@pytest.mark.parametrize("name", list(FITTING_RECORDED))
def test_fitting_matches_recorded(name):
    group = build_product(name)
    with no_table():
        assert fitting_record(group) == FITTING_RECORDED[name]


@pytest.mark.parametrize("name,p", list(JENNINGS_RECORDED))
def test_jennings_matches_recorded(name, p):
    group = build_product(name)
    with no_table():
        assert jennings_record(group, p) == JENNINGS_RECORDED[(name, p)]


# -- kernels against the table oracle -----------------------------------------

@pytest.mark.parametrize("name", ["S4", "Heis3", "D4xC2"])
def test_tableless_closure_and_fitting_agree(name):
    with_table = build_product(name)
    picks = [1, 5, 7]
    expected = table_closure(with_table.table(), picks)
    bare = build_product(name)
    with no_table():
        assert bare.subgroup([bare.element(i) for i in picks]).indices() \
            == expected
        assert fitting_record(bare) == FITTING_RECORDED[name]
    assert bare._table is None


# -- Fitting subgroup against the whole lattice -------------------------------

def brute_force_fitting(group):
    """The Fitting subgroup with no work skipped: every element's normal
    closure, every join of two members, every member tested for
    nilpotency as a standalone permutation group (``standalone_group``),
    and that same test on the result.  Joins are taken in the production
    order, so the generators agree too.  Returns the subgroup and every
    member."""
    normals = {}
    for i in range(group.order()):
        nc = group.normal_closure([group.element(i)])
        normals.setdefault(nc.index_set(), nc)
    work = list(normals.values())
    while work:
        a = work.pop()
        for b in list(normals.values()):
            joined = group.subgroup(
                list(dict.fromkeys(a.generators + b.generators)))
            if joined.index_set() not in normals:
                normals[joined.index_set()] = joined
                work.append(joined)
    gens = []
    for s in normals.values():
        if standalone_group(s).is_nilpotent():
            gens.extend(s.generators)
    fit = group.subgroup(list(dict.fromkeys(gens)))
    assert standalone_group(fit).is_nilpotent()
    return fit, list(normals.values())


@contextlib.contextmanager
def fitting_work():
    """Count the normal closures and the lower central series (one per
    nilpotency test) computed inside."""
    with (mock.patch.object(FiniteGroup, "normal_closure", autospec=True,
                            side_effect=FiniteGroup.normal_closure) as nc,
          mock.patch.object(Subgroup, "lower_central_series", autospec=True,
                            side_effect=Subgroup.lower_central_series)
          as nil):
        yield nc, nil


@pytest.mark.parametrize("name", ["S3", "A4", "S4", "D5", "S3xS3",
                                  "A4xC2", "S4xC2"])
def test_fitting_matches_brute_force_lattice(name):
    expected, members = brute_force_fitting(build_product(name))
    group = build_product(name)
    with fitting_work() as (_, tests):
        fit = fitting_subgroup(group)
    assert fit.order() < group.order()
    assert fit.indices() == expected.indices()
    assert fit.generators == expected.generators
    # every member but those strictly inside the Fitting subgroup is
    # tested, and then the Fitting subgroup once more
    inside = [s for s in members if s.index_set() < fit.index_set()]
    assert inside
    assert tests.call_count == len(members) - len(inside) + 1


@pytest.mark.parametrize("name", ["S3xC2xC2", "S3xQ8"])
def test_fitting_of_several_closures_matches_brute_force_lattice(name):
    expected, members = brute_force_fitting(build_product(name))
    group = build_product(name)
    with fitting_work() as (_, tests):
        fit = fitting_subgroup(group)
    assert fit.indices() == expected.indices()
    assert fit.generators == expected.generators
    # Fit(G) is no single element's normal closure, so its generators
    # come from several nilpotent closures
    assert fit.index_set() not in {group.normal_closure([i]).index_set()
                                   for i in range(group.order())}
    # no more nilpotency tests than the lattice walk's: every member not
    # strictly inside the Fitting subgroup, then the Fitting subgroup
    inside = [s for s in members if s.index_set() < fit.index_set()]
    assert tests.call_count <= len(members) - len(inside) + 1


def rational_class_count(group):
    """Classes of elements under conjugation and coprime powers, from
    permutation products."""
    els = group.elements()
    classes = set()
    for g in els:
        o = g.order()
        gens = [g ** k for k in range(1, o + 1) if math.gcd(k, o) == 1]
        classes.add(frozenset(h.conjugate_by(x).key
                              for h in gens for x in els))
    return len(classes)


def test_fitting_of_d4xd4_takes_one_closure_per_rational_class():
    group = build_product("D4xD4")
    with fitting_work() as (closures, tests):
        record = fitting_record(group)
    assert record == FITTING_RECORDED["D4xD4"]
    # the whole group, then the final check on the Fitting subgroup
    assert tests.call_count == 2
    # one closure per rational class for the lattice, then two per
    # nilpotency test: gamma_2 and gamma_3 = 1 of the class-2 group
    assert rational_class_count(group) == 25
    assert closures.call_count == 25 + 2 * 2


def table_inverses(t):
    """inv[i] is the row holding the identity in column i."""
    return [int(r) for r in t.argmin(axis=0)]


def table_jennings(t, p):
    """D_1 = G, D_i = <[D_{i-1}, G], D_ceil(i/p)^p>, as index sets, by
    products read from the Cayley table ``t``."""
    n = len(t)
    inv = table_inverses(t)
    terms = [frozenset(range(n))]
    while len(terms[-1]) > 1:
        i = len(terms) + 1
        gens = {int(t[t[t[inv[r], inv[g]], r], g])
                for r in terms[-1] for g in range(n)}
        for d in terms[math.ceil(i / p) - 1]:
            power = 0
            for _ in range(p):
                power = int(t[power, d])
            gens.add(power)
        terms.append(frozenset(table_closure(t, sorted(gens))))
    return terms


@pytest.mark.parametrize("name,p", [("D4", 2), ("Heis3", 3),
                                    ("D4xC2", 2), ("C27", 3)])
def test_tableless_jennings_agrees(name, p):
    expected = table_jennings(build_product(name).table(), p)
    bare = build_product(name)
    with no_table():
        terms = jennings_recursion(bare, p).terms
    assert [t.index_set() for t in terms] == expected


@pytest.mark.parametrize("name", ["S3", "D4", "A4"])
def test_tableless_stack_identity_agrees(name):
    expected = [brute_stack_identity(fresh(name), n, p, m)
                for n, p, m in STACK_GRID]
    bare = fresh(name)
    with no_table():
        assert [engel_stack_identity(bare, n, p, m)
                for n, p, m in STACK_GRID] == expected


def scalar_engel_degree(group, y, bound):
    """The least n with [x, n y] = 1 for every x, by iterating each x
    alone until it reaches 1 or repeats."""
    worst = 0
    for x in range(group.order()):
        c, k, seen = group.comm_idx(x, y), 1, {x}
        while c != 0:
            if c in seen:
                return False, None
            seen.add(c)
            c, k = group.comm_idx(c, y), k + 1
        worst = max(worst, k)
    return True, (worst if worst <= bound else None)


@pytest.mark.parametrize("name", ["S3", "D4", "A4", "S4", "Heis3",
                                  "C27", "D4xC2", "Q8xC4"])
def test_engel_degree_matches_scalar_iteration(name):
    group = build_product(name)
    expected = [scalar_engel_degree(group, y, 3)
                for y in range(group.order())]
    with no_table():
        assert [engel_degree(y, group, 3)
                for y in range(group.order())] == expected


# -- the rho certificate of build_nu ------------------------------------------

def test_rho_certificate_catches_a_wrong_product(monkeypatch):
    g = fresh("S3")
    a = g.index_of(g.generators[0])
    right = nu_module.group_arrays

    def wrong(group):
        # a * a reported as a instead of the identity
        mul, inv, conj = right(group)
        mul = mul.copy()
        mul[a, a] = a
        return mul, inv, conj

    monkeypatch.setattr(nu_module, "group_arrays", wrong)
    with pytest.raises(InvariantError, match="rho is not a homomorphism"):
        build_nu(g, get_presentation("S3"), "gens")


# -- regular groups without a Cayley table ------------------------------------

def regular_copy(group):
    """A new, unclosed regular group on the generators of ``group``."""
    return FiniteGroup(group.generators, regular=True)


@pytest.mark.parametrize("mode", ["all", "gens", "symbol"])
@pytest.mark.parametrize("name", ["S3", "D4", "Q8"])
def test_tableless_regular_group_agrees_with_its_table(nu_of, name, mode):
    nu = nu_of(name, mode)
    forced = regular_copy(nu.ambient)
    t = forced.table()
    inv = forced.inverse_indices()
    n = forced.order()
    rng = random.Random(n)
    # a fresh copy per block of columns, so that none caches every
    # element; every product where n is small, sampled rows otherwise
    block = 512
    for lo in range(0, n, block):
        bare = regular_copy(nu.ambient)
        cols = range(lo, min(n, lo + block))
        assert np.array_equal(bare.right_columns(cols), t.T[lo:lo + block])
        for j in cols:
            rows = range(n) if n <= 256 else rng.sample(range(n), 8)
            assert [bare.mul_idx(i, j) for i in rows] == \
                [int(t[i, j]) for i in rows]
            assert bare.inv_idx(j) == inv[j]
            assert bare.index_of(bare.element(j)) == j
        assert bare._table is None and bare._elements is None

    bare = regular_copy(nu.ambient)
    gens = nu.tensor.generators
    expected = table_closure(t, gens)
    assert bare.subgroup(gens).indices() == expected == nu.tensor.indices()

    # rho is the homomorphism that extends its generator images, on
    # every edge of the table's Cayley graph
    G = nu.group
    gen_idx = [forced.index_of(g) for g in forced.generators]
    rho = {0: 0}
    queue = [0]
    for e in queue:
        for g in gen_idx:
            f = int(t[e, g])
            want = G.mul_idx(rho[e], int(nu.rho[g]))
            if f not in rho:
                rho[f] = want
                queue.append(f)
            assert rho[f] == want
    assert [rho[i] for i in range(n)] == nu.rho.tolist()


def _build_and_report_without_table(nu_of, mode):
    expected = tensor_report(nu_of("D4", mode)).to_dict()
    group = fresh("D4")
    group.table()
    with no_table():
        nu = build_nu(group, get_presentation("D4"), mode)
        assert tensor_report(nu).to_dict() == expected
    assert nu.ambient._table is None


def test_nu_build_and_report_build_no_regular_table(nu_of):
    _build_and_report_without_table(nu_of, "gens")


def test_symbol_nu_build_and_report_build_no_regular_table(nu_of):
    _build_and_report_without_table(nu_of, "symbol")


def test_regular_group_above_the_table_cap(monkeypatch):
    cosets = tc_enumerate(get_presentation("A4").letters())
    t = to_perm_group(cosets).table()
    monkeypatch.setattr(perm_module, "TABLE_CAP", 10)
    g = to_perm_group(cosets)
    n = g.order()
    assert n == 12
    assert [[g.mul_idx(i, j) for j in range(n)] for i in range(n)] == \
        t.tolist()
    els = [g.element(i) for i in range(n)]
    assert [[g.index_of(a * b) for b in els] for a in els] == t.tolist()
    assert list(g.inverse_indices()) == table_inverses(t)
    assert g._elements is None
    assert g.table() is None


def test_column_cache_stops_at_its_cap(monkeypatch):
    t = fresh("S4").table()
    monkeypatch.setattr(perm_module, "COLUMN_CACHE_ENTRIES", 3 * 24)
    g = fresh("S4")
    n = g.order()
    with no_table():
        assert [[g.mul_idx(i, j) for j in range(n)] for i in range(n)] == \
            t.tolist()
        assert left_engel_set(g, 3) == table_left_engel_set(t, 3)
    assert len(g._columns) == 3


@pytest.mark.parametrize("cap", [None, 3 * 24])
def test_array_products_match_scalar_products(monkeypatch, cap):
    # with the cap at three columns, the 24 distinct values of b are
    # read in eight blocks
    if cap:
        monkeypatch.setattr(perm_module, "COLUMN_CACHE_ENTRIES", cap)
    g = fresh("S4")
    a, b = np.random.default_rng(1).integers(0, 24, size=(2, 6, 50))
    got = nucheck_module._products(g, a, b)
    assert got.shape == a.shape
    assert got.tolist() == [[g.mul_idx(int(x), int(y)) for x, y in zip(*r)]
                            for r in zip(a, b)]


# -- no kernel builds a Cayley table ------------------------------------------

NU_D4_REPORT = {"group_order": 8, "nu_order": 2048, "tensor_order": 32,
                "mu_order": 16, "tensor_abelian": True,
                "tensor_invariants": [2, 2, 2, 4], "tensor_class": 1}

# (p, m, n) -> digest of the scan's to_dict(), recorded from the table
# kernel; every route gives the same pairs
ENGEL_SCAN_RECORDED = {(3, 1, 1): "3f18372043c3db37",
                       (2, 1, 1): "9d18dd311bc04e06"}


@pytest.mark.parametrize("mode", ["all", "gens", "symbol"])
def test_nu_kernels_build_no_table(mode):
    group = fresh("D4")
    pres = get_presentation("D4") if mode == "gens" else None
    with no_table():
        nu = build_nu(group, pres, mode)
        report = tensor_report(nu).to_dict()
        relations = nu_relations(nu)
        scans = {cfg: digest(nu_engel_power_scan(
            nu, EngelScanConfig(*cfg)).to_dict())
            for cfg in ENGEL_SCAN_RECORDED}
        stack = [engel_stack_identity(group, n, p, m)
                 for n, p, m in STACK_GRID]
    assert report == dict(NU_D4_REPORT, mode=mode)
    assert relations.passed
    assert scans == ENGEL_SCAN_RECORDED
    assert stack == [brute_stack_identity(group, n, p, m)
                     for n, p, m in STACK_GRID]
    assert nu.ambient._table is None and group._table is None


def test_crossed_module_kernels_build_no_table():
    with no_table():
        module = tensor_module(fresh("D4"))
        report = tensor_report(module).to_dict()
        relations = verify_nu_relations(module)
        scans = {cfg: digest(engel_power_scan(
            module, EngelScanConfig(*cfg)).to_dict())
            for cfg in ENGEL_SCAN_RECORDED}
    assert report == dict(NU_D4_REPORT, mode="symbol")
    assert relations.passed
    assert scans == ENGEL_SCAN_RECORDED
    assert module.tgroup._table is None


@contextlib.contextmanager
def no_permutation():
    """Making a group element or a subgroup's members as permutations
    fails inside this block."""
    def refuse(*args):
        raise AssertionError("a kernel made a permutation")

    with mock.patch.object(FiniteGroup, "element", refuse), \
            mock.patch.object(perm_module.Subgroup, "elements", refuse):
        yield


def test_subgroup_kernels_make_no_permutation():
    s4, heis3, d4, s3 = (fresh(name) for name in ("S4", "Heis3", "D4", "S3"))
    with no_permutation():
        fit = fitting_subgroup(s4)
        jennings = jennings_recursion(heis3, 3)
        dims = dimension_subgroups(d4, 2)
        squares = power_subgroup(d4.full_subgroup(), 2)
        derived = s4.derived_series()
        nu = build_nu(s3, get_presentation("S3"), "gens")
    assert fit.order() == 4
    assert [t.order() for t in jennings.terms] == [27, 3, 1]
    assert [t.order() for t in dims.terms] == [8, 2, 1]
    assert squares == d4.center()
    assert [t.order() for t in derived.terms] == [24, 12, 4, 1]
    assert (nu.order(), nu.tensor.order()) == (216, 6)


def table_left_engel_set(t, bound):
    """Indices y with [x, bound y] = 1 for every x, over the table."""
    inv = np.array(table_inverses(t))
    out = []
    for y in range(len(t)):
        v = np.arange(len(t))
        for _ in range(bound):
            v = t[t[inv[v], inv[y]], t[v, y]]
        if not v.any():
            out.append(y)
    return out


# degrees, digest of (basis lifts, coset coordinates, structure
# constants), recorded from the scalar loops
LIE_RECORDED = {("D4", 2): [[2, 1], "0c0387ef307f8b12"],
                ("Q8", 2): [[2, 1], "0c0387ef307f8b12"],
                ("Heis3", 3): [[2, 1], "3b27c9fabc39ee9f"]}


def lie_record(group, p):
    ring = lie_ring(dimension_subgroups(group, p))
    coords = [sorted((i, tuple(ring.class_coords(d, i).tolist()))
                     for i in term.indices())
              for d, term in enumerate(ring.series.terms[:-1], start=1)]
    return [ring.dims, digest((
        ring.basis_lifts, coords,
        sorted((k, v.tolist()) for k, v in ring.constants.items())))]


@pytest.mark.parametrize("name", ["S3", "D4", "Q8", "A4"])
def test_group_kernels_build_no_table(name):
    t = fresh(name).table()
    expected = [table_left_engel_set(t, bound) for bound in (1, 2, 3)]
    group = fresh(name)
    with no_table():
        engel_sets = [left_engel_set(group, b) for b in (1, 2, 3)]
        fitting = fitting_record(group)
        p = {"D4": 2, "Q8": 2}.get(name)
        if p is not None:
            jennings = jennings_record(group, p)
            lie = lie_record(group, p)
    assert engel_sets == expected
    assert fitting == FITTING_RECORDED[name]
    if p is not None:       # S3 and A4 are not p-groups
        assert jennings == JENNINGS_RECORDED[(name, p)]
        assert lie == LIE_RECORDED[(name, p)]
    assert group._table is None


def test_lie_ring_of_heis3_matches_recorded():
    group = fresh("Heis3")
    with no_table():
        assert lie_record(group, 3) == LIE_RECORDED[("Heis3", 3)]


def test_dihedral_24000_engel_answers_in_small_memory(tmp_path):
    # D_{2*12000} has 24,000 elements, above TABLE_CAP; a cached column
    # per element would be 96 KB each, 2.3 GB in all.  The peak is read
    # from VmHWM: a child's ru_maxrss starts from the peak of the
    # process that forked it.
    pres = tmp_path / "D24000.pres"
    pres.write_text("gens: a b\nrels: a^12000, b^2, (a b)^2\n")
    code = ("import sys\n"
            "from tensq.catalog import resolve_group\n"
            "from tensq.engel import is_left_n_engel\n"
            "g = resolve_group('@' + sys.argv[1])[0]\n"
            "a, b = g.generators\n"
            "print(g.order(), is_left_n_engel(a, g, 2),"
            " is_left_n_engel(b, g, 10))\n"
            "with open('/proc/self/status') as fh:\n"
            "    print([l for l in fh if l.startswith('VmHWM')][0])\n")
    path = [os.path.dirname(os.path.dirname(tensq.__file__)),
            os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    done = subprocess.run([sys.executable, "-c", code, str(pres)], env=env,
                          check=True, capture_output=True, text=True,
                          timeout=300)
    answers, peak = done.stdout.strip().splitlines()
    assert answers.split() == ["24000", "True", "False"]
    label, kib, unit = peak.split()
    assert (label, unit) == ("VmHWM:", "kB")
    assert int(kib) < 150 * 1024


# -- invariants and storage ---------------------------------------------------

def test_mu_centrality_check_fires_on_a_non_central_set(monkeypatch):
    # every element of nu(S3) in place of mu: the group is not abelian,
    # so the set is not central
    wrap = perm_module.Subgroup._from_indices.__func__

    def everything(cls, parent, indices):
        return wrap(cls, parent, range(parent.order()))

    monkeypatch.setattr(perm_module.Subgroup, "_from_indices",
                        classmethod(everything))
    with pytest.raises(InvariantError, match="mu is not central"):
        build_nu(fresh("S3"), get_presentation("S3"), "gens")


def test_derived_map_check_builds_no_column_per_mu_member():
    nu = build_nu(fresh("C3xC3"), get_presentation("C3xC3"))
    tensor_report(nu)
    built = len(nu.ambient._columns)
    report = derived_map_check(nu)
    assert report.passed
    assert len(nu.ambient._columns) <= built


def test_decomposition_check_reads_one_column_per_generator():
    # tensor . G' of nu(C3xC3) has 81 members; its subgroup and normality
    # checks read the columns of the generators, not of the members
    nu = build_nu(fresh("C3xC3"), get_presentation("C3xC3"))
    amb = nu.ambient
    built = len(amb._columns)
    assert verify_decomposition(nu).passed
    grown = len(amb._columns) - built
    gens = (len(nu.tensor.generators)
            + len(amb.derived_subgroup().generators)
            + len(nu.group.derived_subgroup().generators))
    assert grown <= gens < nu.tensor.order()


def test_decomposition_subgroup_check_fails_on_a_non_subgroup():
    # the tensor subgroup of nu(S3) less one member: tensor . G' is then
    # no subgroup
    nu = build_nu(fresh("S3"), get_presentation("S3"))
    cut = perm_module.Subgroup._from_indices(nu.ambient,
                                             nu.tensor.indices()[:-1])
    report = verify_decomposition(dataclasses.replace(nu, tensor=cut))
    closed = [c for c in report.checks
              if c.label == "tensor . G' is a subgroup"]
    assert [c.passed for c in closed] == [False]


def test_derived_map_centrality_check_fails_on_a_non_central_set():
    # the tensor subgroup of nu(S3) in place of mu: it is not central
    nu = build_nu(fresh("S3"), get_presentation("S3"))
    report = derived_map_check(dataclasses.replace(nu, mu=nu.tensor))
    central = [c for c in report.checks
               if c.label == "mu is central in nu(G)"]
    assert [c.passed for c in central] == [False]


def test_tensor_set_normality_check_fails_on_a_non_normal_set(monkeypatch):
    # the first nine tensors of nu(Q8) in place of X: conjugates of two
    # of them by different generators leave the set, so the order of the
    # scan decides which one is reported
    nu = build_nu(fresh("Q8"), get_presentation("Q8"))
    amb = nu.ambient
    part = dict(list(nu.all_tensor_indices().items())[:9])
    monkeypatch.setattr(nu, "all_tensor_indices", lambda: part)
    report = verify_tensor_set_closed(nu)
    normal = [c for c in report.checks if c.label == "X is a normal subset"]
    assert [c.passed for c in normal] == [False]
    # the first miss of a loop over witnesses, then generators
    tensor, conjugator = next(
        (x, s) for x in part for s in amb.generator_indices()
        if amb.conj_idx(x, s) not in part)
    assert report.counterexample == {"kind": "normality", "tensor": tensor,
                                     "conjugator": conjugator}


def test_tensor_generation_check_matches_the_closure_of_every_witness(
        nu_of, monkeypatch):
    # the check closes the witnesses that lie outside the closure of
    # those before them; the closure of every witness at once, as the
    # check read before, gives the same verdict and tensor_order on every
    # catalog group within the cap, for all of X and for its first half
    verdicts = []
    for name, entry in catalog().items():
        if entry.order > nu_module.DEFAULT_GROUP_CAP:
            continue
        nu = nu_of(name)
        witnesses = nu.all_tensor_indices()
        half = list(witnesses.items())[:(len(witnesses) + 1) // 2]
        for part in (witnesses, dict(half)):
            monkeypatch.setattr(nu, "all_tensor_indices", lambda: part)
            check = next(c for c in verify_tensor_set_closed(nu).checks
                         if c.label == "X generates the tensor subgroup")
            span = nu.ambient.subgroup(part)
            assert (check.passed, check.details) == (
                span.index_set() == nu.tensor.index_set(),
                {"tensor_order": nu.tensor.order()}), name
            verdicts.append(check.passed)
    assert True in verdicts and False in verdicts


# -- the array verifiers against their scalar loops ---------------------------

# family orders tried on each corrupted nu(G): the counterexample is the
# first failing tuple of the first family, in the order requested
FAMILY_ORDERS = [RELATION_FAMILIES, RELATION_FAMILIES[::-1],
                 ("iii", "i", "v", "ii", "iv"), ("iv", "ii", "v", "iii", "i")]


def corrupted(nu, field, seed):
    """nu with n of its tensors replaced by other members of X, or one
    entry y of the right copy of G replaced by an element outside that
    copy and outside y Z(nu(G)), whose commutators are y's."""
    rng = random.Random(seed)
    n = nu.group.order()
    arr = getattr(nu, field).copy()
    if field == "tensors":
        members = sorted(set(arr.ravel().tolist()))
        for _ in range(n):
            a, b = rng.randrange(n), rng.randrange(n)
            arr[a, b] = rng.choice([x for x in members if x != arr[a, b]])
    else:
        amb = nu.ambient
        i = rng.randrange(1, n)
        same = {amb.mul_idx(int(arr[i]), z) for z in amb.center().indices()}
        outside = set(range(nu.order())) - set(arr.tolist()) - same
        arr[i] = rng.choice(sorted(outside))
    return dataclasses.replace(nu, **{field: arr})


# C3xC3 is abelian, so nu(G)' is central and family (ii), the only one
# to read the right copy, reads it inside commutators of commutators: no
# corruption of that copy can show there.  Under each of these seeds
# every case breaks some family (D4's right copy does not with seed 2).
@pytest.mark.parametrize("seed", [1, 3, 4])
@pytest.mark.parametrize("name,field", [
    ("S3", "tensors"), ("S3", "right"), ("D4", "tensors"), ("D4", "right"),
    ("A4", "tensors"), ("A4", "right"), ("C3xC3", "tensors")])
def test_relations_match_the_scalar_loop(nu_of, name, field, seed):
    nu = corrupted(nu_of(name), field, seed)
    for families in FAMILY_ORDERS:
        want = scalar_nu_relations(nu, families=families)
        got = nu_relations(nu, families=families)
        assert got.to_dict() == want.to_dict()
    assert not want.passed


@pytest.mark.parametrize(
    "name", [n for n, e in catalog().items() if e.order <= 16])
def test_relations_match_the_scalar_loop_when_they_hold(nu_of, name):
    nu = nu_of(name)
    want = scalar_nu_relations(nu)
    assert nu_relations(nu).to_dict() == want.to_dict()
    assert want.passed


# -- the relation families on the crossed module against nu(G) ---------------


@pytest.mark.parametrize("families", [
    RELATION_FAMILIES, RELATION_FAMILIES[::-1]], ids=["exhaustive",
                                                      "reversed"])
@pytest.mark.parametrize(
    "name", [n for n, e in catalog().items() if e.order <= 16])
def test_relations_on_the_module_match_nu_g(nu_of, module_of, name,
                                            families):
    # every value rewritten into T = G (x) G, against the same values
    # computed in nu(G); on C2-C5 nu(G) is the gens route's, so the two
    # share no enumeration
    want = nu_relations(nu_of(name), families=families).to_dict()
    got = verify_nu_relations(module_of(name), families=families)
    assert got.to_dict() == want
    assert want["passed"]


def test_relations_on_the_module_match_nu_g_past_the_cap():
    # S4 (x) S4 is not abelian and S4' = A4 has elements of order 3, so
    # here, unlike on the groups of order <= 16, family (i) tells
    # phi_[x,y] from phi_[y,x]
    group = fresh("S4")
    nu = build_nu(group, max_group_order=24)
    want = nu_relations(nu).to_dict()
    assert verify_nu_relations(tensor_module(group)).to_dict() == want
    assert want["passed"]


# one tensor of T replaced by another element of T: the families must
# report a counterexample (on an abelian G they read no tensor but the
# trivial ones, since G' = 1)
CORRUPTED_ENTRIES = {"S3": (1, 2), "D4": (3, 5), "Q8": (2, 2)}


def raised(module, entry):
    tensors = module.tensors.copy()
    tensors[entry] = (tensors[entry] + 1) % module.tgroup.order()
    return dataclasses.replace(module, tensors=tensors)


@pytest.mark.parametrize("name,entry", CORRUPTED_ENTRIES.items())
def test_relations_fail_on_a_corrupted_module(module_of, name, entry):
    report = verify_nu_relations(raised(module_of(name), entry))
    assert not report.passed
    example = report.counterexample
    assert example["family"] in RELATION_FAMILIES
    assert example["words"] == [list(module_of(name).group.word(v))
                                for v in example["tuple"]]


# S4 with T[23, 22] raised: T takes the raised value at an earlier
# position, with another [g, h], so keyed on T[g, h] alone (23, 22) is
# never evaluated and family (i) passes; every tuple fails it at 15,551
@pytest.mark.parametrize("name,entry", [*CORRUPTED_ENTRIES.items(),
                                        ("S4", (23, 22))])
def test_key_pairs_report_what_every_tuple_reports(module_of, name, entry):
    # families (i) and (v) run over pairs of keys (T[g, h], [g, h]);
    # on a corrupted module the keys of equal tensors differ in [g, h]
    bad = raised(module_of(name), entry)
    for families in FAMILY_ORDERS:
        want = module_relations(bad, families=families).to_dict()
        assert verify_nu_relations(bad, families=families).to_dict() == \
            want
    assert not want["passed"]


# two tensors of nu(G) swapped: X is unchanged as a set, so it stays
# normal and generates the tensor subgroup, but two witnesses name the
# wrong pairs
SWAPPED_TENSORS = {"Q8": ((3, 3), (2, 3)), "S3": ((1, 2), (3, 4))}


def swapped(nu):
    p, q = SWAPPED_TENSORS[nu.group.name]
    tensors = nu.tensors.copy()
    tensors[p], tensors[q] = tensors[q], tensors[p]
    return dataclasses.replace(nu, tensors=tensors)


@pytest.mark.parametrize("name", ["Q8", "S3"])
def test_commutator_closure_failure_matches_the_scalar_loop(nu_of, name):
    nu = swapped(nu_of(name))
    report = verify_tensor_set_closed(nu)
    bad = scalar_commutator_closed(nu)
    assert bad is not None
    assert [c.passed for c in report.checks] == [True, False, True]
    assert report.counterexample == {"kind": "commutator",
                                     "tuple": list(bad)}


@pytest.mark.parametrize("name", ["Q8", "S3"])
def test_rho_pair_failure_matches_the_scalar_loop(nu_of, name):
    # T[a, b] read as T[a + 1, b]
    nu = nu_of(name)
    nu = dataclasses.replace(nu, tensors=np.roll(nu.tensors, -1, axis=0))
    check = derived_map_check(nu).checks[0]
    assert check.label.startswith("rho'([a,b'])")
    assert not scalar_rho_on_pairs(nu)
    assert (check.passed, check.details) == \
        (False, {"pairs": nu.group.order() ** 2})


@pytest.mark.parametrize("name", ["Q8", "S3"])
@pytest.mark.parametrize("image", ["other", "outside"])
def test_fiber_failure_matches_the_scalar_loop(nu_of, name, image):
    # one non-identity tensor sent to another member of G', or to an
    # element outside G'
    nu = nu_of(name)
    gp = nu.group.derived_subgroup().indices()
    rho = nu.rho.copy()
    t = next(t for t in nu.tensor.indices() if t)
    rho[t] = next(g for g in range(nu.group.order())
                  if g != rho[t] and (g in gp) == (image == "other"))
    nu = dataclasses.replace(nu, rho=rho)
    check = next(c for c in derived_map_check(nu).checks
                 if c.label.startswith("fibers"))
    ok, fibers = scalar_fibers(nu)
    assert not ok
    assert (check.passed, check.details) == (False, {"fibers": fibers})


@pytest.mark.parametrize("name", ["Q8", "S3"])
@pytest.mark.parametrize("field", ["left", "right"])
def test_set_product_failure_matches_the_scalar_loop(nu_of, name, field):
    # the right copy of G read as the left one, so (tensor . G') . G''
    # adds nothing; or a member of the left copy of G' read as a
    # tensor, so tensor . G' is too small
    nu = nu_of(name)
    if field == "right":
        nu = dataclasses.replace(nu, right=nu.left)
    else:
        left = nu.left.copy()
        left[nu.group.derived_subgroup().indices()[1]] = \
            next(t for t in nu.tensor.indices() if t)
        nu = dataclasses.replace(nu, left=left)
    checks = verify_decomposition(nu).checks
    tl, tlr = scalar_set_products(nu)
    assert [c.details for c in checks[:2]] == [{"product_size": len(tl)},
                                               {"product_size": len(tlr)}]
    assert [c.passed for c in checks[:3]] == [
        len(tl) == nu.tensor.order() * len(nu.group.derived_subgroup()
                                           .indices()),
        len(tlr) == len(tl) * len(nu.group.derived_subgroup().indices()),
        tlr == nu.ambient.derived_subgroup().index_set()]
    assert not all(c.passed for c in checks[:3])


def test_array_verifiers_cache_no_more_columns(monkeypatch):
    # the scalar loops left 49 cached columns on nu(C3xC3), one per
    # right factor they read; with the cache capped at three columns the
    # products read their columns in blocks of three, and the reports
    # are the same
    def reports():
        nu = build_nu(fresh("C3xC3"), get_presentation("C3xC3"))
        out = [nu_relations(nu).to_dict(),
               verify_tensor_set_closed(nu).to_dict()]
        return out, len(nu.ambient._columns)

    want, cached = reports()
    assert cached <= 49
    monkeypatch.setattr(perm_module, "COLUMN_CACHE_ENTRIES", 3 * 6561)
    assert reports()[0] == want


def test_generic_closure_stores_each_element_once():
    # C2^6 acting on 4096 points: generator t flips bits 2t and 2t + 1
    points = np.arange(4096, dtype=np.int32)
    gens = [Permutation(points ^ (3 << (2 * t))) for t in range(6)]
    group = FiniteGroup(gens)
    tracemalloc.start()
    try:
        assert group.order() == 64
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 64 * 4096 * 4
    e = group.element(5)
    assert not e.images.flags.writeable
    assert group.index_of(e) == 5
