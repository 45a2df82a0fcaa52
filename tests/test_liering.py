import numpy as np
import pytest

from tensq import (FiniteGroup, ad_nilpotency_index, dimension_subgroups,
                   get_group, jennings_recursion, lie_nilpotency_class,
                   lie_ring, parse_cycles, subalgebra_Lp, verify_lazard,
                   verify_lie_axioms)
from tensq.catalog import p_group_names


def _c2_x_d4():
    gens = [parse_cycles("(0 1)", 6), parse_cycles("(2 3 4 5)", 6),
            parse_cycles("(3 5)", 6)]
    return FiniteGroup(gens, name="C2xD4")


def _dihedral_32():
    rotation = parse_cycles("(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15)", 16)
    reflection = parse_cycles("(1 15)(2 14)(3 13)(4 12)(5 11)(6 10)(7 9)",
                              16)
    return FiniteGroup([rotation, reflection], name="D16")


def _c4_x_c4():
    return FiniteGroup([parse_cycles("(0 1 2 3)", 8),
                        parse_cycles("(4 5 6 7)", 8)], name="C4xC4")


def _wreath_128():
    # C2 wr C2 wr C2 from a generating set whose basis lifts include an
    # x with x^2 deeper than degree 2i
    return FiniteGroup([parse_cycles(c, 8) for c in (
        "(0 2)(5 6)", "(0 7 2 4 5 1 6 3)", "(0 6)(1 4 7 3)(2 5)")],
        name="C2wrC2wrC2")


def _c4_wr_c2():
    return FiniteGroup([parse_cycles("(0 1 2 3)", 8),
                        parse_cycles("(0 4)(1 5)(2 6)(3 7)", 8)],
                       name="C4wrC2")


class TestDimensionSubgroups:
    def test_elementary_abelian(self):
        s = dimension_subgroups(get_group("C2xC2"), 2)
        assert [t.order() for t in s.terms] == [4, 1]

    def test_c4(self):
        s = dimension_subgroups(get_group("C4"), 2)
        assert [t.order() for t in s.terms] == [4, 2, 1]

    def test_d4(self):
        g = get_group("D4")
        s = dimension_subgroups(g, 2)
        assert [t.order() for t in s.terms] == [8, 2, 1]
        assert s.terms[1] == g.center()

    def test_rejects_non_p_group(self):
        with pytest.raises(ValueError):
            dimension_subgroups(get_group("S3"), 2)

    def test_rejects_non_prime(self):
        with pytest.raises(ValueError):
            dimension_subgroups(get_group("C4"), 4)

    def test_quotients_elementary_abelian(self):
        for name, p in p_group_names():
            g = get_group(name)
            s = dimension_subgroups(g, p)
            for d_i, d_next in zip(s.terms, s.terms[1:]):
                assert d_next.index_set() <= d_i.index_set()
                # x^p falls into the next term for every x in D_i
                for i in d_i.indices():
                    assert d_next.contains_index(g.pow_idx(i, p))

    def test_depth_of(self):
        g = get_group("C4")
        s = dimension_subgroups(g, 2)
        x = g.index_of(g.generators[0])
        assert s.depth_of(x) == 1
        assert s.depth_of(g.pow_idx(x, 2)) == 2
        assert s.depth_of(0) is None


class TestJenningsRecursion:
    def test_matches_formula_on_catalog(self):
        for name, p in p_group_names():
            g = get_group(name)
            assert dimension_subgroups(g, p).termwise_equal(
                jennings_recursion(g, p)), name

    def test_heisenberg(self):
        s = jennings_recursion(get_group("Heis3"), 3)
        assert [t.order() for t in s.terms] == [27, 3, 1]


class TestGradedRing:
    def test_d4_dimensions_and_bracket(self):
        g = get_group("D4")
        ring = lie_ring(dimension_subgroups(g, 2))
        assert ring.dims == [2, 1]
        x = ring.basis_element(1, 0)
        y = ring.basis_element(1, 1)
        bracket = ring.bracket(x, y)
        assert bracket.degree == 2 and not bracket.is_zero()
        # the central commutator is the degree-2 generator
        z = g.comm_idx(x.lift, y.lift)
        assert tuple(int(v) for v in ring.class_coords(2, z)) == \
            bracket.coords

    def test_c4_all_brackets_zero(self):
        ring = lie_ring(dimension_subgroups(get_group("C4"), 2))
        assert ring.dims == [1, 1]
        x = ring.basis_element(1, 0)
        assert ring.bracket(x, x).is_zero()

    def test_elementary_abelian_is_abelian_ring(self):
        ring = lie_ring(dimension_subgroups(get_group("C3xC3"), 3))
        assert ring.dims == [2]
        for u in ring.basis():
            for v in ring.basis():
                assert ring.bracket(u, v).is_zero()

    def test_axioms_on_catalog(self):
        for name, p in p_group_names():
            ring = lie_ring(dimension_subgroups(get_group(name), p))
            assert verify_lie_axioms(ring).passed, name

    def test_commutator_columns_swept_once_per_degree(self, monkeypatch):
        # verify_lie_axioms reads the sweeps the ring made, read-only
        calls = []
        sweep = FiniteGroup.commutator_columns

        def counting(self, idx):
            calls.append(tuple(idx))
            return sweep(self, idx)

        monkeypatch.setattr(FiniteGroup, "commutator_columns", counting)
        for make, p in [(lambda: get_group("Heis3"), 3), (_wreath_128, 2)]:
            series = dimension_subgroups(make(), p)
            calls.clear()
            ring = lie_ring(series)
            assert verify_lie_axioms(ring).passed
            assert calls == [tuple(lifts) for lifts in ring.basis_lifts]
            assert not any(a.flags.writeable for a in ring.commutators)

    def test_transversal_choice_is_immaterial(self):
        for name, p in [("D4", 2), ("Q8", 2), ("Heis3", 3), ("M27", 3)]:
            s = dimension_subgroups(get_group(name), p)
            r1 = lie_ring(s)
            r2 = lie_ring(s, shift_transversal=True)
            assert set(r1.constants) == set(r2.constants)
            for key in r1.constants:
                assert np.array_equal(r1.constants[key] % p,
                                      r2.constants[key] % p), (name, key)


class TestSubalgebra:
    def test_abelian_keeps_degree_one_only(self):
        ring = lie_ring(dimension_subgroups(get_group("C4"), 2))
        sub = subalgebra_Lp(ring)
        assert sub.dimension(1) == 1
        assert sub.dimension(2) == 0

    def test_d4_generates_everything(self):
        ring = lie_ring(dimension_subgroups(get_group("D4"), 2))
        assert subalgebra_Lp(ring).is_all_of(ring)

    def test_heisenberg_generates_everything(self):
        ring = lie_ring(dimension_subgroups(get_group("Heis3"), 3))
        assert subalgebra_Lp(ring).is_all_of(ring)


class TestAdNilpotency:
    def test_zero_element(self):
        ring = lie_ring(dimension_subgroups(get_group("C4"), 2))
        assert ad_nilpotency_index(ring.zero(1), ring) == 1

    def test_abelian_ring_index_one(self):
        ring = lie_ring(dimension_subgroups(get_group("C2xC4"), 2))
        for e in ring.basis():
            assert ad_nilpotency_index(e, ring) == 1

    def test_d4_degree_one_index_two(self):
        ring = lie_ring(dimension_subgroups(get_group("D4"), 2))
        x = ring.basis_element(1, 0)
        assert ad_nilpotency_index(x, ring) == 2

    def test_sum_of_homogeneous_parts(self):
        ring = lie_ring(dimension_subgroups(get_group("D4"), 2))
        parts = [ring.basis_element(1, 0), ring.basis_element(2, 0)]
        assert ad_nilpotency_index(parts, ring) in (1, 2)


class TestLazard:
    def test_d4_q2(self):
        ring = lie_ring(dimension_subgroups(get_group("D4"), 2))
        assert verify_lazard(ring, 2).passed

    def test_heisenberg_q3(self):
        ring = lie_ring(dimension_subgroups(get_group("Heis3"), 3))
        assert verify_lazard(ring, 3).passed

    def test_abelian_any_q(self):
        ring = lie_ring(dimension_subgroups(get_group("C8"), 2))
        for q in (1, 2, 4, 8, 16):
            assert verify_lazard(ring, q).passed

    def test_q_at_and_beyond_exponent(self):
        for name, p in [("D4", 2), ("M27", 3)]:
            g = get_group(name)
            ring = lie_ring(dimension_subgroups(g, p))
            q = p
            while q < g.exponent():
                q *= p
            assert verify_lazard(ring, q).passed          # q = exponent
            assert verify_lazard(ring, q * p).passed      # strictly beyond

    def test_q_not_a_p_power(self):
        # the identity is claimed only for powers of p
        ring = lie_ring(dimension_subgroups(get_group("D4"), 2))
        for q in (3, 6):
            with pytest.raises(ValueError, match="not a power of p"):
                verify_lazard(ring, q)

    def test_wreath_product_generating_set(self):
        # the class of x^2 at degree 2i is zero, as is (ad x~)^2
        g = _wreath_128()
        assert g.order() == 128
        ring = lie_ring(dimension_subgroups(g, 2))
        for q in (2, 4):
            assert verify_lazard(ring, q).passed

    def test_rejects_bad_q(self):
        ring = lie_ring(dimension_subgroups(get_group("C4"), 2))
        with pytest.raises(ValueError):
            verify_lazard(ring, 0)


class TestDeeper2Groups:
    """Order-16 and order-32 2-groups exercise longer series than the
    nu-capable catalog carries."""

    def test_direct_product_with_d4(self):
        g = _c2_x_d4()
        assert g.order() == 16
        series = dimension_subgroups(g, 2)
        assert series.termwise_equal(jennings_recursion(g, 2))
        ring = lie_ring(series)
        assert ring.dims == [3, 1]
        assert verify_lie_axioms(ring).passed
        assert verify_lazard(ring, 2).passed
        # the degree-1 bracket from the dihedral factor generates degree 2
        assert subalgebra_Lp(ring).is_all_of(ring)

    def test_c4_x_c4(self):
        g = _c4_x_c4()
        series = dimension_subgroups(g, 2)
        assert [t.order() for t in series.terms] == [16, 4, 1]
        assert series.termwise_equal(jennings_recursion(g, 2))
        ring = lie_ring(series)
        assert ring.dims == [2, 2]
        assert lie_nilpotency_class(ring) == 1

    def test_dihedral_of_order_32(self):
        g = _dihedral_32()
        assert g.order() == 32 and g.nilpotency_class() == 4
        series = dimension_subgroups(g, 2)
        oracle = jennings_recursion(g, 2)
        assert series.termwise_equal(oracle)
        # exhaustive series compatibility, the long way
        c = len(series.terms)

        def term(k):
            return series.terms[min(k, c) - 1]

        for i in range(1, c + 1):
            d_i = term(i)
            for j in range(1, c + 1):
                d_j = term(j)
                tgt = term(i + j)
                for a in d_i.indices():
                    for b in d_j.indices():
                        assert tgt.contains_index(g.comm_idx(a, b))
            tgt = term(2 * i)
            for a in d_i.indices():
                assert tgt.contains_index(g.pow_idx(a, 2))
        ring = lie_ring(series)
        assert verify_lie_axioms(ring).passed
        for q in (2, 4, 8):
            assert verify_lazard(ring, q).passed
        assert lie_nilpotency_class(ring) >= 2


class TestNilpotencyClass:
    def test_trivial_ring(self):
        ring = lie_ring(dimension_subgroups(get_group("C1"), 2))
        assert lie_nilpotency_class(ring) == 0

    def test_abelian_ring(self):
        ring = lie_ring(dimension_subgroups(get_group("C4"), 2))
        assert lie_nilpotency_class(ring) == 1

    def test_d4_class_two(self):
        ring = lie_ring(dimension_subgroups(get_group("D4"), 2))
        assert lie_nilpotency_class(ring) == 2

    def test_class_bounded_by_top_degree(self):
        for name, p in p_group_names():
            ring = lie_ring(dimension_subgroups(get_group(name), p))
            assert lie_nilpotency_class(ring) <= max(ring.degrees, 1)


# graded dimensions, nilpotency class and L_p(G) dimensions per degree,
# recorded from the scalar loops that labelled cosets one element at a
# time and grew each bracket span one vector at a time
LIE_INVARIANTS = {
    "C2": ([1], 1, {1: 1}),
    "C3": ([1], 1, {1: 1}),
    "C4": ([1, 1], 1, {1: 1, 2: 0}),
    "C2xC2": ([2], 1, {1: 2}),
    "C5": ([1], 1, {1: 1}),
    "C8": ([1, 1, 0, 1], 1, {1: 1, 2: 0, 3: 0, 4: 0}),
    "C2xC4": ([2, 1], 1, {1: 2, 2: 0}),
    "D4": ([2, 1], 2, {1: 2, 2: 1}),
    "Q8": ([2, 1], 2, {1: 2, 2: 1}),
    "C9": ([1, 0, 1], 1, {1: 1, 2: 0, 3: 0}),
    "C3xC3": ([2], 1, {1: 2}),
    "Heis3": ([2, 1], 2, {1: 2, 2: 1}),
    "M27": ([2, 0, 1], 1, {1: 2, 2: 0, 3: 0}),
    "C27": ([1, 0, 1, 0, 0, 0, 0, 0, 1], 1,
            {1: 1, 2: 0, 3: 0, 4: 0, 5: 0, 6: 0, 7: 0, 8: 0, 9: 0}),
    "C2xD4": ([3, 1], 2, {1: 3, 2: 1}),
    "C4xC4": ([2, 2], 1, {1: 2, 2: 0}),
    "D16": ([2, 1, 0, 1, 0, 0, 0, 1], 2,
            {1: 2, 2: 1, 3: 0, 4: 0, 5: 0, 6: 0, 7: 0, 8: 0}),
    "C2wrC2wrC2": ([3, 2, 1, 1], 4, {1: 3, 2: 2, 3: 1, 4: 1}),
    "C4wrC2": ([2, 2, 0, 1], 2, {1: 2, 2: 1, 3: 0, 4: 0}),
}

LOCAL_2_GROUPS = {"C2xD4": _c2_x_d4, "C4xC4": _c4_x_c4, "D16": _dihedral_32,
                  "C2wrC2wrC2": _wreath_128, "C4wrC2": _c4_wr_c2}


def test_recorded_lie_invariants_cover_every_catalog_p_group():
    assert {name for name, _ in p_group_names()} == \
        set(LIE_INVARIANTS) - set(LOCAL_2_GROUPS)


@pytest.mark.parametrize("name", list(LIE_INVARIANTS))
def test_lie_invariants_match_recorded(name):
    if name in LOCAL_2_GROUPS:
        g, p = LOCAL_2_GROUPS[name](), 2
    else:
        g, p = get_group(name), dict(p_group_names())[name]
    ring = lie_ring(dimension_subgroups(g, p))
    sub = subalgebra_Lp(ring)
    assert (ring.dims, lie_nilpotency_class(ring),
            {d: sub.dimension(d) for d in range(1, ring.degrees + 1)}) == \
        LIE_INVARIANTS[name]


class TestAxiomChecksCanFail:
    """Each check of ``verify_lie_axioms`` fails on a ring corrupted to
    break it."""

    @staticmethod
    def failing(ring):
        return [c.label for c in verify_lie_axioms(ring).checks
                if not c.passed]

    @staticmethod
    def ring(make):
        ring = lie_ring(dimension_subgroups(make(), 2))
        assert verify_lie_axioms(ring).passed
        return ring

    def test_jacobi(self):
        # [e_0, e_1] = -[e_1, e_0] for the degree-2 basis e gains 1 in
        # degree 4: still antisymmetric and alternating, but degree 3 is
        # zero, so [[u, v], w] over degrees (1, 1, 2) is the whole Jacobi
        # sum there, and it no longer vanishes
        ring = self.ring(_c4_wr_c2)
        arr = ring.constants[(2, 2)]
        arr[0, 1, 0] = (arr[0, 1, 0] + 1) % 2
        arr[1, 0, 0] = -arr[0, 1, 0] % 2
        assert self.failing(ring) == ["Jacobi identity on basis triples"]

    def test_antisymmetry(self):
        # [e_0, f_0] changes in degree 4 but [f_0, e_0] does not
        ring = self.ring(_wreath_128)
        arr = ring.constants[(1, 3)]
        arr[0, 0, 0] = (arr[0, 0, 0] + 1) % 2
        assert self.failing(ring) == ["antisymmetry [u,v] = -[v,u]"]

    def test_alternation(self):
        # over F_2, [u, u] = 1 is still antisymmetric; C2 x D4 has two
        # degrees, so no basis triple reaches a Jacobi sum
        ring = self.ring(_c2_x_d4)
        ring.constants[(1, 1)][0, 0, 0] = 1
        assert self.failing(ring) == ["alternation [u,u] = 0"]

    def test_additivity(self):
        # degree-1 elements as the degree-2 lifts: their commutators with
        # degree-1 lifts leave D_3
        ring = self.ring(_wreath_128)
        ring.basis_lifts[1] = ring.basis_lifts[0][:2]
        assert self.failing(ring) == \
            ["bracket is additive over lift products"]
