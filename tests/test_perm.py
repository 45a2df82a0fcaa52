import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensq import (AmbientMismatchError, CapacityError, FiniteGroup,
                   Permutation, abelian_invariants, build_nu, commutator,
                   format_perm_group, get_group, iterated_commutator,
                   parse_cycles, parse_perm_group, power_subgroup)
from tensq.catalog import catalog
from tensq.perm import least_positions


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

    def test_errors(self):
        with pytest.raises(ValueError):
            parse_perm_group("(0 1)\n")
        with pytest.raises(ValueError):
            parse_perm_group("degree 3\n")


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
        from tensq import tc_enumerate, to_perm_group, parse_presentation
        pres = parse_presentation("gens: a b\nrels: a^2, b^2, (a b)^3\n")
        g = to_perm_group(tc_enumerate(pres.letters(), ()))
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
