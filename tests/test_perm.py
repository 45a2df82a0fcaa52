import hashlib
import importlib.util
import itertools
import math
import pathlib
import random
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensq import (AmbientMismatchError, CapacityError, FiniteGroup,
                   Permutation, abelian_invariants, build_nu, commutator,
                   format_perm_group, get_group, get_presentation,
                   iterated_commutator, parse_cycles, parse_perm_group,
                   power_subgroup, resolve_group, tc_enumerate,
                   to_perm_group)
from tensq.catalog import catalog
from tensq import closure as closure_module
from tensq.closure import bfs_levels, least_positions


def perm(text, degree):
    return parse_cycles(text, degree)


def perms_of(degree):
    return st.permutations(list(range(degree))).map(Permutation)


same_degree_triples = st.integers(2, 6).flatmap(
    lambda n: st.tuples(perms_of(n), perms_of(n), perms_of(n)))


# -- independent S3 oracle: compose raw tuples by function application ----

def _compose_tuples(p, q):
    # apply p first, then q
    return tuple(q[p[i]] for i in range(len(p)))


def _tuple_order(p):
    n = len(p)
    e = tuple(range(n))
    k = 1
    cur = p
    while cur != e:
        cur = _compose_tuples(cur, p)
        k += 1
    return k


class TestPermutation:
    def test_composition_is_left_to_right(self):
        f = perm("(0 1)", 3)
        g = perm("(1 2)", 3)
        fg = f * g
        for x in range(3):
            assert fg(x) == g(f(x))

    def test_inverse(self):
        p = perm("(0 1 2 3)", 4)
        assert (p * p.inverse()).is_identity()
        assert (p.inverse() * p).is_identity()

    def test_powers(self):
        p = perm("(0 1 2)", 3)
        assert p ** 3 == Permutation.identity(3)
        assert p ** -1 == p.inverse()
        assert p ** 0 == Permutation.identity(3)

    def test_order(self):
        assert perm("(0 1)(2 3 4)", 5).order() == 6
        assert Permutation.identity(4).order() == 1

    def test_not_a_bijection_rejected(self):
        with pytest.raises(ValueError):
            Permutation([0, 0, 1])

    # cast to int32 before they were checked, these came out [0, 1] or
    # [1, 0], and a list holding 2**32 + 1 raised OverflowError
    @pytest.mark.parametrize("images, message", [
        ([0.5, 1.7], "integers"),
        ([True, False], "integers"),
        (["1", "0"], "integers"),
        (np.array([0, 2**32 + 1]), "out of range"),
        ([0, 2**32 + 1], "out of range"),
    ])
    def test_images_checked_before_the_cast(self, images, message):
        with pytest.raises(ValueError, match=message):
            Permutation(images)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int64])
    def test_integer_images_of_any_width(self, dtype):
        images = np.array([2, 0, 1], dtype=dtype)
        p = Permutation(images)
        images[0] = 0
        assert p.images.dtype == np.int32
        assert p.images.tolist() == [2, 0, 1]

    def test_cycle_roundtrip(self):
        for text in ["()", "(0 1)", "(0 1)(2 3)", "(0 2 4)(1 3)"]:
            p = perm(text, 5)
            assert perm(p.cycle_string(), 5) == p

    def test_overlapping_cycles_compose_left_to_right(self):
        p = perm("(0 1)(1 2)", 3)
        assert p(0) == 2 and p(1) == 0 and p(2) == 1

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_cycles("(0 9)", 3)
        with pytest.raises(ValueError):
            parse_cycles("(0 0)", 3)
        with pytest.raises(ValueError):
            parse_cycles("0 1", 3)

    @given(same_degree_triples)
    @settings(max_examples=80)
    def test_associativity(self, triple):
        a, b, c = triple
        assert (a * b) * c == a * (b * c)

    @given(same_degree_triples)
    @settings(max_examples=80)
    def test_commutator_expansion(self, triple):
        # [a, bc] = [a, c] * ([a, b] conjugated by c)
        a, b, c = triple
        lhs = commutator(a, b * c)
        rhs = commutator(a, c) * commutator(a, b).conjugate_by(c)
        assert lhs == rhs


class TestCommutator:
    def test_self_commutator_trivial(self):
        p = perm("(0 1 2)", 3)
        assert commutator(p, p).is_identity()

    def test_commuting_pair_trivial(self):
        a = perm("(0 1)", 4)
        b = perm("(2 3)", 4)
        assert commutator(a, b).is_identity()

    def test_s3_commutator_order_three(self):
        # independent oracle: brute-force composition of raw tuples
        a = (1, 0, 2)          # (0 1)
        b = (1, 2, 0)          # (0 1 2)
        ainv = tuple(a.index(i) for i in range(3))
        binv = tuple(b.index(i) for i in range(3))
        comm_t = _compose_tuples(_compose_tuples(ainv, binv),
                                 _compose_tuples(a, b))
        assert _tuple_order(comm_t) == 3
        got = commutator(Permutation(a), Permutation(b))
        assert got.order() == 3
        assert tuple(int(x) for x in got.images) == comm_t

    def test_degree_mismatch(self):
        with pytest.raises(AmbientMismatchError):
            commutator(perm("(0 1)", 2), perm("(0 1)", 3))

    def test_iterated_base_case(self):
        x = perm("(0 1 2)", 4)
        y = perm("(0 1)", 4)
        assert iterated_commutator(x, y, 1) == commutator(x, y)

    def test_iterated_rejects_zero(self):
        x = perm("(0 1)", 2)
        with pytest.raises(ValueError):
            iterated_commutator(x, x, 0)

    def test_class_two_group_depth_two_trivial(self):
        d4 = get_group("D4")
        for x in d4.elements():
            for y in d4.elements():
                assert iterated_commutator(x, y, 2).is_identity()

    def test_s3_iteration_never_dies(self):
        x = perm("(0 1 2)", 3)
        y = perm("(0 1)", 3)
        for n in range(1, 21):
            assert not iterated_commutator(x, y, n).is_identity()

    def test_expansion_exhaustive_small_catalog(self):
        for name, entry in catalog().items():
            if entry.order > 12:
                continue
            g = get_group(name)
            els = g.elements()
            for a, b, c in itertools.product(els, repeat=3):
                assert commutator(a, b * c) == \
                    commutator(a, c) * commutator(a, b).conjugate_by(c)


class TestClosure:
    def test_empty_generators_is_trivial(self):
        s3 = get_group("S3")
        assert s3.trivial_subgroup().order() == 1

    def test_cyclic_closure(self):
        s3 = get_group("S3")
        sub = s3.subgroup([perm("(0 1 2)", 3)])
        assert sub.order() == 3

    def test_full_closure(self):
        s3 = get_group("S3")
        sub = s3.subgroup([perm("(0 1)", 3), perm("(0 1 2)", 3)])
        assert sub.order() == 6

    def test_deterministic_element_order(self):
        g1 = FiniteGroup([perm("(0 1)", 3), perm("(1 2)", 3)])
        g2 = FiniteGroup([perm("(0 1)", 3), perm("(1 2)", 3)])
        assert [e.key for e in g1.elements()] == \
            [e.key for e in g2.elements()]
        assert g1.element(0).is_identity()

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            FiniteGroup([perm("(0 1 2 3 4 5)", 6)], max_order=3).elements()

    def test_identity_always_member(self):
        c1 = get_group("C1")
        assert c1.order() == 1
        assert c1.element(0).is_identity()


class TestNormalClosure:
    def test_identity_seed(self):
        s3 = get_group("S3")
        assert s3.normal_closure([s3.identity]).order() == 1

    def test_three_cycle_generates_a3(self):
        s3 = get_group("S3")
        nc = s3.normal_closure([perm("(0 1 2)", 3)])
        assert nc.order() == 3
        # exhaustive: conjugation-stable
        for i in nc.indices():
            for g in range(s3.order()):
                assert nc.contains_index(s3.conj_idx(i, g))

    def test_transposition_generates_all(self):
        s3 = get_group("S3")
        assert s3.normal_closure([perm("(0 1)", 3)]).order() == 6


class TestSeriesAndFriends:
    def test_abelian_group(self):
        c6 = get_group("C6")
        assert c6.derived_subgroup().order() == 1
        series = c6.lower_central_series()
        assert len(series.terms) == 2
        assert series.terms[-1].order() == 1
        assert c6.center().order() == 6

    def test_d4(self):
        d4 = get_group("D4")
        derived = d4.derived_subgroup()
        cent = d4.center()
        assert derived.order() == 2
        assert derived == cent
        assert d4.nilpotency_class() == 2

    def test_s3(self):
        s3 = get_group("S3")
        derived = s3.derived_subgroup()
        assert derived.order() == 3
        series = s3.lower_central_series()
        assert series.terms[-1].order() == 3
        assert not s3.is_nilpotent()

    def test_series_of_a_non_normal_subgroup_is_rejected(self):
        s3 = get_group("S3")
        h = s3.subgroup([perm("(0 1)", 3)])
        assert not h.is_normal()
        with pytest.raises(ValueError, match="not normal"):
            h.lower_central_series()
        with pytest.raises(ValueError, match="not normal"):
            h.is_nilpotent()

    def test_is_normal_conjugates_the_generators_alone(self, monkeypatch):
        # A3 in S3 is generated by (0 1 2), which (0 1) conjugates to
        # (0 2 1): a member that is not a generator
        s3 = get_group("S3")
        conjugates = FiniteGroup.generator_conjugates
        asked = []

        def recording(group, idx):
            asked.append(len(idx))
            return conjugates(group, idx)

        monkeypatch.setattr(FiniteGroup, "generator_conjugates", recording)
        assert s3.subgroup([perm("(0 1 2)", 3)]).is_normal()
        assert not s3.subgroup([perm("(0 1)", 3)]).is_normal()
        # one column per generator, not one per member (3 and 2)
        assert asked == [1, 1]

    def test_derived_series(self):
        s3 = get_group("S3")
        series = s3.derived_series()
        assert series.kind == "derived"
        assert [t.order() for t in series.terms] == [6, 3, 1]
        a4 = get_group("A4")
        assert [t.order() for t in a4.derived_series().terms] == [12, 4, 1]

    def test_is_p_group(self):
        d4 = get_group("D4")
        assert d4.is_p_group(2) and not d4.is_p_group(3)
        # p = 1 would divide the order by 1 forever, p = 0 by zero
        for p in (0, 1):
            with pytest.raises(ValueError):
                d4.is_p_group(p)
        # |C4| and |C2xC2| are powers of 4, but 4 is no prime
        for name in ("C4", "C2xC2"):
            with pytest.raises(ValueError, match="p must be prime"):
                get_group(name).is_p_group(4)

    def test_series_kinds(self):
        g = get_group("D4")
        assert g.lower_central_series().kind == "lower-central"
        assert g.derived_series().kind == "derived"

    def test_lcs_terms_recomputed_from_element_pairs(self):
        for name in ("S3", "D4", "A4", "Q8"):
            g = get_group(name)
            series = g.lower_central_series()
            for prev, nxt in zip(series.terms, series.terms[1:]):
                seeds = {g.comm_idx(h, x)
                         for h in prev.indices() for x in range(g.order())}
                recomputed = g.subgroup([g.element(i) for i in sorted(seeds)])
                assert recomputed.index_set() == nxt.index_set()

    def test_lagrange_everywhere(self):
        for name, entry in catalog().items():
            if entry.order > 16:
                continue
            g = get_group(name)
            subs = [g.derived_subgroup(), g.center(),
                    *g.lower_central_series().terms]
            for s in subs:
                assert g.order() % s.order() == 0


class TestPowerSubgroup:
    def test_identity_power(self):
        d4 = get_group("D4")
        h = d4.full_subgroup()
        assert power_subgroup(h, 1) == h

    def test_c4_squares(self):
        c4 = get_group("C4")
        sq = power_subgroup(c4.full_subgroup(), 2)
        assert sq.order() == 2

    def test_d4_squares_is_center(self):
        d4 = get_group("D4")
        sq = power_subgroup(d4.full_subgroup(), 2)
        assert sq == d4.center()
        # oracle: squares of all eight elements, then closure
        squares = {d4.pow_idx(i, 2) for i in range(8)}
        oracle = d4.subgroup([d4.element(i) for i in sorted(squares)])
        assert sq == oracle

    def test_rejects_zero(self):
        c4 = get_group("C4")
        with pytest.raises(ValueError):
            power_subgroup(c4.full_subgroup(), 0)


def _census(values):
    out = {}
    for v in values:
        out[v] = out.get(v, 0) + 1
    return out


def _cyclic_sum_census(factors):
    if not factors:
        return {1: 1}
    out = {}
    for tup in itertools.product(*(range(d) for d in factors)):
        o = 1
        for d, a in zip(factors, tup):
            o = math.lcm(o, d // math.gcd(d, a))
        out[o] = out.get(o, 0) + 1
    return out


class TestAbelianInvariants:
    def test_trivial(self):
        c1 = get_group("C1")
        assert abelian_invariants(c1.full_subgroup()) == []

    def test_cyclic(self):
        c6 = get_group("C6")
        assert abelian_invariants(c6.full_subgroup()) == [6]

    def test_c2xc4(self):
        g = get_group("C2xC4")
        assert abelian_invariants(g.full_subgroup()) == [2, 4]

    def test_census_oracle(self):
        # the element-order census separates finite abelian groups
        subs = [get_group(name).full_subgroup()
                for name in ("C2", "C4", "C2xC2", "C6", "C8", "C2xC4",
                             "C9", "C3xC3", "C27")]
        c2xc4xc9 = FiniteGroup([perm("(0 1)", 15), perm("(2 3 4 5)", 15),
                                perm("(6 7 8 9 10 11 12 13 14)", 15)])
        subs.append(c2xc4xc9.full_subgroup())
        # the abelian tensor squares: proper subgroups of nu(G), six of
        # them with four generators; fresh builds, so that no census
        # has cached a column yet
        tensors = [build_nu(get_group(name)).tensor
                   for name, entry in catalog().items() if entry.order <= 16]
        subs += [t for t in tensors if t.is_abelian()]
        assert len(subs) == 10 + 15
        for sub in subs:
            # the invariants read only the columns the closure cached
            cached = len(sub.parent._columns)
            inv = abelian_invariants(sub)
            assert len(sub.parent._columns) == cached
            assert math.prod(inv) == sub.order()
            for a, b in zip(inv, inv[1:]):
                assert b % a == 0
            got = _census([sub.parent.order_of_idx(i)
                           for i in sub.indices()])
            assert got == _cyclic_sum_census(inv)
        assert abelian_invariants(c2xc4xc9.full_subgroup()) == [2, 36]

    def test_rejects_non_abelian(self):
        s3 = get_group("S3")
        with pytest.raises(ValueError):
            abelian_invariants(s3.full_subgroup())


class TestGroupFileFormat:
    TEXT = """# sample group file
degree 4
(0 1 2 3)   # rotation
(1 3)
"""

    def test_parse(self):
        g = parse_perm_group(self.TEXT)
        assert g.degree == 4
        assert g.order() == 8

    def test_roundtrip(self):
        g = parse_perm_group(self.TEXT)
        again = parse_perm_group(format_perm_group(g))
        assert [p.key for p in again.generators] == \
            [p.key for p in g.generators]

    def test_identity_line(self):
        g = parse_perm_group("degree 2\n()\n")
        assert g.order() == 1

    def test_no_generator_line(self):
        # only "degree N" presents the trivial group, as a () line does
        g = parse_perm_group("# trivial\ndegree 3\n\n")
        assert (g.order(), g.degree) == (1, 3)
        assert [p.key for p in g.generators] == \
            [p.key for p in parse_perm_group("degree 3\n()\n").generators]

    def test_errors(self):
        for text in ("(0 1)\n", "", "degree 0\n", "degree 2\n(0 2)\n"):
            with pytest.raises(ValueError):
                parse_perm_group(text)


class TestIndexOps:
    def test_index_ops_match_permutation_ops(self):
        g = get_group("D4")
        for i in range(8):
            for j in range(8):
                assert g.element(g.mul_idx(i, j)) == \
                    g.element(i) * g.element(j)
                assert g.element(g.comm_idx(i, j)) == \
                    commutator(g.element(i), g.element(j))
            assert g.element(g.inv_idx(i)) == g.element(i).inverse()
            assert g.order_of_idx(i) == g.element(i).order()

    def test_exponent(self):
        assert get_group("D4").exponent() == 4
        assert get_group("C27").exponent() == 27

    def test_regular_group_index_is_point_image(self):
        from tensq import parse_presentation
        pres = parse_presentation("gens: a b\nrels: a^2, b^2, (a b)^3\n")
        g = to_perm_group(tc_enumerate(pres.letters()))
        assert g.order() == 6
        for i in range(6):
            assert g.index_of(g.element(i)) == i
            assert int(g.element(i).images[0]) == i


def _check_least_positions(marks, values, positions):
    """``least_positions`` against a scalar loop."""
    want = marks.tolist()
    for v, p in zip(values.tolist(), positions.tolist()):
        want[v] = min(want[v], p)
    least_positions(marks, values, positions)
    assert marks.tolist() == want


def _positions_case(name):
    rng = np.random.default_rng(7)
    if name == "empty":
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    if name == "all equal":
        return np.full(50, 3), np.arange(50)
    values = rng.integers(0, 5, size=400)         # heavy repeats
    positions = np.arange(400)
    if name == "descending":
        positions = positions[::-1].copy()
    elif name == "shuffled":
        positions = rng.permutation(positions)
    return values, positions


# descending and shuffled positions defeat the reversed scatter, so
# only the correction loop makes them exact
@pytest.mark.parametrize("name", ["empty", "all equal", "heavy repeats",
                                  "descending", "shuffled"])
def test_least_positions_matches_scalar_oracle(name):
    values, positions = _positions_case(name)
    marks = np.full(8, 1000, dtype=np.intp)
    marks[7] = -1                                 # a value not given
    _check_least_positions(marks, values, positions)


@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 99)),
                max_size=60))
@settings(max_examples=100)
def test_least_positions_matches_scalar_oracle_on_random_input(pairs):
    values = np.array([v for v, _ in pairs], dtype=np.intp)
    positions = np.array([p for _, p in pairs], dtype=np.intp)
    _check_least_positions(np.full(10, 100, dtype=np.intp), values,
                           positions)


# -- the closure, pinned ------------------------------------------------------

def _seeded_perm_text(name, seed):
    """The catalog group ``name`` as a .perm file: seeded random elements,
    drawn until they generate it (repeats and the identity included),
    on points relabelled by a seeded shuffle."""
    rng = random.Random(seed)
    group = get_group(name)
    gens = [group.element(rng.randrange(group.order()))]
    while FiniteGroup(gens).order() < group.order():
        gens.append(group.element(rng.randrange(group.order())))
    sigma = list(range(group.degree))
    rng.shuffle(sigma)
    lines = [f"degree {group.degree}"]
    for g in gens:
        images = [0] * group.degree
        for x, y in enumerate(g.images.tolist()):
            images[sigma[x]] = sigma[y]
        lines.append(Permutation(images).cycle_string())
    return "\n".join(lines) + "\n"


def _pinned_group(label, directory):
    """``name`` is the catalog group, ``name/regular`` the closed coset
    table of its presentation, and ``name/seed-k`` a seeded .perm file
    of it."""
    name, _, kind = label.partition("/")
    if kind == "regular":
        return to_perm_group(tc_enumerate(get_presentation(name).letters()))
    if kind.startswith("seed-"):
        path = directory / f"{name}.perm"
        path.write_text(_seeded_perm_text(name, int(kind[5:])))
        return resolve_group(f"@{path}")[0]
    return get_group(name)


def _closure_digest(group):
    """sha256 of the generators' right-multiplication columns, the
    breadth-first parents and levels, the inverses and every element's
    word."""
    digest = hashlib.sha256()
    inv = group.inverse_indices()
    arrays = [group._right, group._parents,
              *(a for level in group.levels() for a in level), inv]
    for a in arrays:
        digest.update(repr(a.shape).encode())
        digest.update(np.ascontiguousarray(a, dtype="<i8").tobytes())
    digest.update(repr([group.word(i)
                        for i in range(group.order())]).encode())
    return digest.hexdigest()


_PINNED_GROUPS = [*catalog(), *(f"{n}/regular" for n in catalog()),
                  "D4/seed-2", "Q8/seed-2", "C2xC4/seed-2", "C9/seed-3",
                  "C3xC3/seed-2", "Heis3/seed-4", "M27/seed-1"]

# recorded while generic and regular groups still closed by two separate
# routines, a scalar queue and a breadth-first sweep; one closure must
# keep every array and word
CLOSURE_DIGESTS = {
    "C1":
        "aafb0c4861696dc9115723a20dc3d501bff748fa16f76c384fea4fe97dfd9f47",
    "C2":
        "c2cf498c04504ed43b79e27c770e333910958b8ccd862fb654eb1896e018bba2",
    "C3":
        "641fc8a1dab3b56a17ca390699ae5348ddd79c83443e2aa8ad78bba30daf60ac",
    "C4":
        "a2b86e44f30f414f0b6735b9eac7151e6f6127504cea497eff8d5295f2486275",
    "C2xC2":
        "9c1f8ee691c2dad5225d768e2736a47c0d92ece7501262e9b9537f088b834750",
    "C5":
        "6942749f40c3f018af9b9d87585d005a805efcc3cbb57cc6f8f6b8cabea27341",
    "C6":
        "855eb1170dce3f624a6523b8150174a2ac2c12430ebb2087f96ed2e95ba0c699",
    "S3":
        "1956a24eca23ecb06601796e8a0a703ede369dc75e9a6a006be505924f6f64da",
    "C8":
        "23fb28fc076125c11afa9325226b741787f5b13cd003be61f880c06a93d75651",
    "C2xC4":
        "b18fc58ac87b2d4102553d208170e2fc3e3392434af1bbf9e59bbb1416c30f3d",
    "D4":
        "1a2fc343ba150f3c3f684cd8b56275fb887446ec7289b5ce01c919c01a333a24",
    "Q8":
        "3bdb65bea7c6f46199f33279c101dbcb36fef1f649a9546d1723ca205c856ad0",
    "C9":
        "7e8f3c6ab684b6763e66e7805028dbcd4254446250367bff72ca91106893a700",
    "C3xC3":
        "a6138441beea2c5d5d9f1289b58ff0edfdd2ae7ab8f51c68967f4649e6a3cff7",
    "D5":
        "f01d53dfd6b89ddaa90bab21e1997c384830d46236062e4a7cb684aa1179b943",
    "A4":
        "3cf45b8c0398955fdf723e4e719ed5fdac91912fb5da9e7d8d41e4ef62d4d256",
    "S4":
        "8c6483adeeea455a1461dce8776c0002e0ce4a7f9d6f932b54b079e8ba5eef2a",
    "Heis3":
        "2c2e305b683c09e5442d33c3ba1bc2fbc96e9786ef6b55e11d02040b8e215461",
    "M27":
        "8400706192f2169d57fc18bdcdadc87897eadd7ee56f192be3c0443fe809babd",
    "C27":
        "a17aa777fe08a8929e62fc53803bd69c28eef8429ebd131e796d9712800a5e7d",
    "C1/regular":
        "aafb0c4861696dc9115723a20dc3d501bff748fa16f76c384fea4fe97dfd9f47",
    "C2/regular":
        "c2cf498c04504ed43b79e27c770e333910958b8ccd862fb654eb1896e018bba2",
    "C3/regular":
        "641fc8a1dab3b56a17ca390699ae5348ddd79c83443e2aa8ad78bba30daf60ac",
    "C4/regular":
        "a2b86e44f30f414f0b6735b9eac7151e6f6127504cea497eff8d5295f2486275",
    "C2xC2/regular":
        "9c1f8ee691c2dad5225d768e2736a47c0d92ece7501262e9b9537f088b834750",
    "C5/regular":
        "6942749f40c3f018af9b9d87585d005a805efcc3cbb57cc6f8f6b8cabea27341",
    "C6/regular":
        "855eb1170dce3f624a6523b8150174a2ac2c12430ebb2087f96ed2e95ba0c699",
    "S3/regular":
        "39d24aa885a37fec016419ad0c7a3c907e381c074164e1ce4751f0ddd31a0f83",
    "C8/regular":
        "23fb28fc076125c11afa9325226b741787f5b13cd003be61f880c06a93d75651",
    "C2xC4/regular":
        "bd696b961c10b74047bc3b561954f4b6857045fddf3423c05c6c0b25f94fbf3f",
    "D4/regular":
        "58a7d4685de58fd9c4462e597dc8e4ef51481d11a1174ed0dd273a590b80d08f",
    "Q8/regular":
        "f7eb297951a2eb80a1e94f702138c450dd5a50171b46027193d90809bd032ba6",
    "C9/regular":
        "7e8f3c6ab684b6763e66e7805028dbcd4254446250367bff72ca91106893a700",
    "C3xC3/regular":
        "64041dafbf9ea331764c419fedaa31f8118f2d424eebc5f9abd27c3e48f94bfd",
    "D5/regular":
        "5dddab67993c4eb107f258b90f75401a392a61a16a4382fa75e28ca5d4a3d92b",
    "A4/regular":
        "134b6f1edbc8b2b6a7c6f392c1b029b64e60bb011d8ede2bfc5ca62ddbaf41c7",
    "S4/regular":
        "5f12f1d7498d0395e29f7af87e31f9abd7abee2e8f08ab86be6ef8d3f9eb0273",
    "Heis3/regular":
        "146985049804b02019a1a281601c701d7b526011769530ada9d4e956529fbc74",
    "M27/regular":
        "64472a67457646f1a9ecbf9486b4be59d5f598989bd2e4db6b7f635e1132f8d8",
    "C27/regular":
        "a17aa777fe08a8929e62fc53803bd69c28eef8429ebd131e796d9712800a5e7d",
    "D4/seed-2":
        "5e00d0f8068f30b3956214a55462882bcafed582bb79b138a36a44d0088dac8d",
    "Q8/seed-2":
        "335bd64ef112d1d5dbb28ebf594ccaf761b40b2574436c3d5f5366d0b10d8296",
    "C2xC4/seed-2":
        "c4197c3ace41f78ffda94b9b60916d697205693ab7489ecb04d84a2f74df5db1",
    "C9/seed-3":
        "1551df5317581ea8cf38d213a4e3a9ad702002846afa5ac9bc17cc2d3d90e43a",
    "C3xC3/seed-2":
        "1c0924a8c10cd46998261aa18902ca49135021c3e2ba9a1f39b6aaa743d613a9",
    "Heis3/seed-4":
        "a97c554ca5f5d31d0c06f7166d46fbaeaf425efd2c5d78b759ef4efec5e429d3",
    "M27/seed-1":
        "d13228b939668fd09dfd5f9017500467b1e30e50509d5c80f498edca86cb8335",
}


@pytest.mark.parametrize("label", _PINNED_GROUPS)
def test_closure_is_pinned(tmp_path, label):
    group = _pinned_group(label, tmp_path)
    assert _closure_digest(group) == CLOSURE_DIGESTS[label]


def _two_pass_closure(group):
    """The generators' columns, levels, parents and index as two passes
    gave them: a scalar queue over permutation products (a regular
    group's columns are its generators' images), then ``bfs_levels``
    over those columns with every level gathered."""
    gens = group.generators
    index = None
    if group._regular:
        right = np.stack([g.images for g in gens])
    else:
        els = [group.identity]
        index = {els[0].key: 0}
        right = [[] for _ in gens]
        for e in els:
            for t, g in enumerate(gens):
                key = (e * g).key
                if key not in index:
                    index[key] = len(els)
                    els.append(e * g)
                right[t].append(index[key])
        right = np.array(right, dtype=np.int32)
    with mock.patch.object(closure_module, "QUEUE_ENTRIES", 0):
        levels = list(bfs_levels(right))
    parents = np.full((right.shape[1], 2), -1, dtype=np.int32)
    for src, gen, new in levels:
        parents[new] = np.stack([src, gen], axis=1)
    return right, levels, parents, index


def _workload_p_groups():
    """The eight order-32..256 p-groups of the pgroup benchmark, on the
    generators the benchmark builds them with."""
    path = pathlib.Path(__file__).parent.parent / "perfbench" / \
        "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  path)
    workloads = importlib.util.module_from_spec(spec)
    # registered first: its dataclasses look their module up by name
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    entries = catalog()
    d4, heis3 = (workloads.catalog_group(entries[n]) for n in ("D4", "Heis3"))
    return {g.name: FiniteGroup([Permutation(list(x)) for x in g.gens])
            for g in workloads.generated_p_groups(d4, heis3)}


_WORKLOAD_P_GROUPS = _workload_p_groups()


@pytest.mark.parametrize("label", [*_PINNED_GROUPS, *_WORKLOAD_P_GROUPS])
def test_one_pass_closure_matches_two_passes(tmp_path, label):
    group = _WORKLOAD_P_GROUPS.get(label) or _pinned_group(label, tmp_path)
    right, levels, parents, index = _two_pass_closure(group)
    assert len(group.levels()) == len(levels)
    assert np.array_equal(group._right, right)
    for got, want in zip(group.levels(), levels):
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert np.array_equal(group._parents, parents)
    if index is None:
        assert group._index is None
    else:
        assert list(group._index.items()) == list(index.items())
        assert [e.key for e in group.elements()] == list(index)


def test_generic_closure_stops_at_max_order():
    for name in ("S4", "Heis3", "C27"):
        gens = get_group(name).generators
        n = get_group(name).order()
        assert FiniteGroup(gens, max_order=n).order() == n
        with pytest.raises(CapacityError):
            FiniteGroup(gens, max_order=n - 1).order()
    # one source a chunk, so that a level is gathered in several
    gens = _WORKLOAD_P_GROUPS["C3wrC3"].generators
    with mock.patch.object(closure_module, "CLOSE_ENTRIES", 1):
        group = FiniteGroup(gens, max_order=81)
        assert group.order() == 81
        with pytest.raises(CapacityError):
            FiniteGroup(gens, max_order=80).order()
    right, levels, parents, index = _two_pass_closure(group)
    assert np.array_equal(group._right, right)
    assert np.array_equal(group._parents, parents)
    assert list(group._index.items()) == list(index.items())


# -- one sweep along the levels -----------------------------------------------

@pytest.mark.parametrize("label", [*catalog(), "Heis3/seed-4", "M27/seed-1"])
def test_sweep_of_a_homomorphism_is_the_product_along_each_word(tmp_path,
                                                                label):
    group = _pinned_group(label, tmp_path)
    d = group.degree
    # H = G x C2 on d + 2 points, G's points shuffled and its generators
    # listed in reverse after the C2's, so H numbers its elements its own
    # way; embed(g) is g's image in H
    sigma = list(range(d))
    random.Random(7).shuffle(sigma)

    def embed(g):
        images = list(range(d + 2))
        for x, y in enumerate(g.images.tolist()):
            images[sigma[x]] = sigma[y]
        return Permutation(images)

    swap = Permutation([*range(d), d + 1, d])
    H = FiniteGroup([swap, *(embed(g) for g in reversed(group.generators))])
    images = [H.index_of(embed(g)) for g in group.generators]
    by_gen = H.right_columns(images)
    row = np.array([0, H.index_of(swap), H.order() - 1])
    for first in (0, row):
        # f(p * g) = f(p) * embed(g), for a value or a row of values
        f = group.sweep(first, lambda v, g: by_gen[g, v.T].T)
        assert f.shape == (group.order(), *np.shape(first))
        for i in range(group.order()):
            want = np.atleast_1d(first).tolist()
            for j in group.word(i):
                want = [H.mul_idx(h, images[j]) for h in want]
            assert np.atleast_1d(f[i]).tolist() == want
    # and the 0-d sweep is the embedding itself
    f = group.sweep(0, lambda v, g: by_gen[g, v]).tolist()
    assert [H.element(h) for h in f] == [embed(g) for g in group.elements()]
