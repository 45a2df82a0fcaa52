import pytest

import itertools

from tensq import (EngelScanConfig, engel_degree, engel_power_scan,
                   engel_projection_check, engel_stack_identity,
                   fitting_subgroup, get_group, is_left_n_engel,
                   left_engel_set)
from tensq.catalog import catalog


@pytest.mark.parametrize("index", [-1, 6, 100])
def test_index_outside_the_group_raises(index):
    # a negative index must not wrap around to the last elements
    s3 = get_group("S3")
    calls = [lambda: is_left_n_engel(index, s3, 5),
             lambda: engel_degree(index, s3),
             lambda: s3.subgroup([index]),
             lambda: s3.normal_closure([index]),
             lambda: s3.mul_idx(index, 1), lambda: s3.mul_idx(1, index),
             lambda: s3.inv_idx(index),
             lambda: s3.conj_idx(index, 1), lambda: s3.conj_idx(1, index),
             lambda: s3.comm_idx(index, 1), lambda: s3.comm_idx(1, index),
             lambda: s3.pow_idx(index, 2), lambda: s3.pow_idx(index, -1),
             lambda: s3.pow_idx(index, 0),
             lambda: s3.order_of_idx(index), lambda: s3.column(index),
             lambda: s3.element(index), lambda: s3.word(index)]
    for call in calls:
        with pytest.raises(IndexError):
            call()
    assert index not in s3._words


class TestIsLeftNEngel:
    def test_identity_is_1_engel(self):
        g = get_group("S3")
        assert is_left_n_engel(g.identity, g, 1)

    def test_class_two_group_all_2_engel(self):
        d4 = get_group("D4")
        for y in range(8):
            assert is_left_n_engel(y, d4, 2)

    def test_transposition_never_engel(self):
        s3 = get_group("S3")
        y = s3.index_of(get_group("S3").generators[0])
        for n in range(1, 21):
            assert not is_left_n_engel(y, s3, n)

    def test_rejects_zero_depth(self):
        g = get_group("C2")
        with pytest.raises(ValueError):
            is_left_n_engel(0, g, 0)

    def test_monotone_in_depth(self):
        for name, entry in catalog().items():
            if entry.order > 16:
                continue
            g = get_group(name)
            for y in range(g.order()):
                flags = [is_left_n_engel(y, g, n) for n in range(1, 7)]
                assert flags == sorted(flags)     # False... then True...


class TestEngelDegree:
    def test_exact_cycle_detection(self):
        s3 = get_group("S3")
        y = s3.index_of(s3.generators[0])
        assert engel_degree(y, s3) == (False, None)

    def test_degree_over_bound_is_undetermined_not_false(self):
        d4 = get_group("D4")
        for y in range(8):
            is_engel, degree = engel_degree(y, d4, bound=1)
            assert is_engel
            if degree is not None:
                assert degree == 1


class TestLeftEngelSet:
    def test_nilpotent_group_is_all(self):
        d4 = get_group("D4")
        assert len(left_engel_set(d4, 8)) == 8

    def test_s3_is_a3(self):
        s3 = get_group("S3")
        got = set(left_engel_set(s3, 6))
        a3 = s3.derived_subgroup()
        assert got == a3.index_set()

    def test_trivial_group(self):
        c1 = get_group("C1")
        assert len(left_engel_set(c1, 1)) == 1


class TestFitting:
    def test_s3(self):
        s3 = get_group("S3")
        assert fitting_subgroup(s3) == s3.derived_subgroup()

    def test_a4_is_klein_four(self):
        a4 = get_group("A4")
        fit = fitting_subgroup(a4)
        assert fit.order() == 4
        assert fit.is_normal()

    def test_nilpotent_group_is_itself(self):
        q8 = get_group("Q8")
        assert fitting_subgroup(q8).order() == 8

    def test_d5(self):
        d5 = get_group("D5")
        assert fitting_subgroup(d5).order() == 5

    def test_s4_beyond_criterion_scope(self):
        s4 = get_group("S4")
        fit = fitting_subgroup(s4)
        assert fit.order() == 4
        engel = set(left_engel_set(s4, s4.order()))
        assert engel == fit.index_set()


class TestProjection:
    def test_killing_power_makes_hypothesis_trivial(self, nu_of):
        nu = nu_of("S3")
        t_order = nu.ambient.order_of_idx(nu.tensor_elem_idx(1, 2))
        rep = engel_projection_check(nu, 1, 2, t_order, 1)
        assert rep.passed

    def test_d4_q2_n2(self, nu_of):
        nu = nu_of("D4")
        for x in range(8):
            for y in range(8):
                rep = engel_projection_check(nu, x, y, 2, 2)
                assert rep.passed

    def test_s3_transposition_with_killing_power(self, nu_of):
        nu = nu_of("S3")
        s3 = nu.group
        x = s3.index_of(s3.generators[0])       # a transposition
        y = s3.index_of(s3.generators[0] * s3.generators[1])  # a 3-cycle
        rep = engel_projection_check(nu, x, y, 6, 1)
        labels = {c.label: c.passed for c in rep.checks}
        assert labels["implication holds"]
        assert rep.passed

    def test_rejects_zero_depth(self, nu_of):
        with pytest.raises(ValueError):
            engel_projection_check(nu_of("C2"), 1, 1, 1, 0)


class TestPowerScan:
    def test_c2_records_one(self, module_of):
        scan = engel_power_scan(module_of("C2"),
                                EngelScanConfig(p=2, m=1, n=1))
        assert scan.all_pairs_satisfied
        assert all(q == 1 for q in scan.table.values())

    def test_class_two_2_group_all_one(self, module_of):
        scan = engel_power_scan(module_of("D4"),
                                EngelScanConfig(p=2, m=1, n=2))
        assert all(q == 1 for q in scan.table.values())

    def test_s3_with_2_powers_at_depth_one(self, module_of):
        # depth 1 means centrality: 2-power powers of a tensor with
        # order divisible by 3 can never become central
        module = module_of("S3")
        scan = engel_power_scan(module, EngelScanConfig(p=2, m=1, n=1))
        unsat = {pair for pair, q in scan.table.items() if q is None}
        assert len(unsat) == 18
        for x, y in itertools.product(range(6), repeat=2):
            t = int(module.tensors[x, y])
            divisible = module.tgroup.order_of_idx(t) % 3 == 0
            assert ((x, y) in unsat) == divisible

    def test_s3_tensors_already_engel_at_depth_two(self, module_of):
        # the tensor subgroup of nu(S3) is abelian and normal, so every
        # tensor is left 2-Engel with q = 1; the scan reports no
        # failures at depth >= 2
        for n in (2, 3):
            scan = engel_power_scan(module_of("S3"),
                                    EngelScanConfig(p=2, m=1, n=n))
            assert scan.all_pairs_satisfied
            assert all(q == 1 for q in scan.table.values())

    def test_minimality_of_recorded_powers(self, module_of, nu_of):
        # the next smaller power, decided over all of nu(G)
        from tensq.engel import _is_left_n_engel_idx
        for name, cfg in [("Q8", EngelScanConfig(p=2, m=3, n=1)),
                          ("D4", EngelScanConfig(p=2, m=3, n=1))]:
            nu = nu_of(name)
            scan = engel_power_scan(module_of(name), cfg)
            for (x, y), q in scan.table.items():
                if q is not None and q > 1:
                    t = nu.tensor_elem_idx(x, y)
                    weaker = nu.ambient.pow_idx(t, q // cfg.p)
                    assert not _is_left_n_engel_idx(weaker, nu.ambient,
                                                    cfg.n)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EngelScanConfig(p=4, m=1, n=1)
        with pytest.raises(ValueError):
            EngelScanConfig(p=2, m=0, n=1)


class TestStackIdentity:
    def test_class_two_groups_at_depth_two(self):
        for name in ("D4", "Q8", "Heis3", "M27"):
            g = get_group(name)
            assert g.nilpotency_class() == 2
            p = 2 if g.order() % 2 == 0 else 3
            assert engel_stack_identity(g, 2, p, 1), name

    def test_abelian_groups_any_parameters(self):
        g = get_group("C6")
        for n in (1, 2):
            for p in (2, 3):
                for m in (1, 2):
                    assert engel_stack_identity(g, n, p, m)

    def test_s3_golden(self):
        # computed value: every commutator c in S3 lies in A3, so either
        # c = 1 or z in A3 gives [z, c] = 1, or z is a transposition and
        # [z, c] = c^2 with [[z, c], c] = [c^2, c] = 1; the word dies in
        # the first block either way
        assert engel_stack_identity(get_group("S3"), 2, 2, 1) is True

    def test_non_nilpotent_failures(self):
        # computed negatives: a single block [z, n c] is the plain Engel
        # condition, which non-nilpotent groups break; S4 still fails
        # with the second block appended
        assert engel_stack_identity(get_group("S3"), 1, 2, 0) is False
        assert engel_stack_identity(get_group("S4"), 1, 2, 1) is False
        assert engel_stack_identity(get_group("S4"), 2, 2, 1) is False

    def test_rejects_bad_parameters(self):
        g = get_group("C2")
        with pytest.raises(ValueError):
            engel_stack_identity(g, 0, 2, 1)
        # p = 0 would make the top power c^(p^m) = 1 and the word trivial
        for p in (0, 1, 4):
            with pytest.raises(ValueError, match="p must be prime"):
                engel_stack_identity(g, 1, p, 1)
