import pytest

from tensq import (EnumerationLimitError, EnumerationLimits, StateError,
                   get_group, multiplication_table_presentation,
                   parse_presentation, parse_word, tc_enumerate,
                   to_perm_group)
from tensq.catalog import catalog
from tensq.coset import CosetTable


def pres(text):
    return parse_presentation(text)


C2 = "gens: a\nrels: a^2\n"
S3 = "gens: a b\nrels: a^2, b^2, (a b)^3\n"


class TestEnumeration:
    def test_order_two(self):
        table = tc_enumerate(pres(C2), ())
        assert table.coset_count == 2

    def test_s3(self):
        table = tc_enumerate(pres(S3), ())
        assert table.coset_count == 6
        # cross-check against the permutation realization
        assert get_group("S3").order() == 6

    def test_full_subgroup_single_coset(self):
        p = pres(C2)
        word = parse_word("a", p.generator_names)
        table = tc_enumerate(p, (word,))
        assert table.coset_count == 1

    def test_proper_subgroup_index(self):
        p = pres(S3)
        word = parse_word("a", p.generator_names)
        table = tc_enumerate(p, (word,))
        assert table.coset_count == 3

    def test_determinism(self):
        t1 = tc_enumerate(pres(S3), ())
        t2 = tc_enumerate(pres(S3), ())
        assert t1.table == t2.table

    def test_coset_limit_preserves_table(self):
        with pytest.raises(EnumerationLimitError) as info:
            tc_enumerate(pres(S3), (), EnumerationLimits(max_cosets=3))
        assert info.value.table is not None
        assert info.value.table.status == "in-progress"

    def test_lookahead_path(self):
        table = tc_enumerate(pres(S3), (),
                             EnumerationLimits(lookahead_threshold=4))
        assert table.coset_count == 6

    def test_verification_runs_after_close(self):
        table = tc_enumerate(pres(S3), ())
        assert table.verify()


class TestToPermGroup:
    def test_single_coset_trivial_group(self):
        p = pres(C2)
        word = parse_word("a", p.generator_names)
        g = to_perm_group(tc_enumerate(p, (word,)))
        assert g.order() == 1

    def test_cyclic_four(self):
        g = to_perm_group(tc_enumerate(pres("gens: a\nrels: a^4\n"), ()))
        assert g.order() == 4
        assert g.generators[0].order() == 4

    def test_s3_order_census(self):
        g = to_perm_group(tc_enumerate(pres(S3), ()))
        census = {}
        for i in range(g.order()):
            o = g.order_of_idx(i)
            census[o] = census.get(o, 0) + 1
        assert census == {1: 1, 2: 3, 3: 2}

    def test_rejects_open_table(self):
        table = CosetTable(pres(S3), ())
        with pytest.raises(StateError):
            to_perm_group(table)


class TestMultiplicationTablePresentation:
    def test_trivial_group(self):
        tp = multiplication_table_presentation(get_group("C1"))
        assert tp.presentation.ngens == 1
        assert tc_enumerate(tp.presentation, ()).coset_count == 1

    def test_c2(self):
        tp = multiplication_table_presentation(get_group("C2"))
        assert tp.presentation.ngens == 2
        assert tc_enumerate(tp.presentation, ()).coset_count == 2

    def test_s3(self):
        tp = multiplication_table_presentation(get_group("S3"))
        assert tp.presentation.ngens == 6
        assert tc_enumerate(tp.presentation, ()).coset_count == 6

    def test_every_small_catalog_group_roundtrips(self):
        for name, entry in catalog().items():
            if entry.order > 16:
                continue
            group = get_group(name)
            tp = multiplication_table_presentation(group)
            g2 = to_perm_group(tc_enumerate(tp.presentation, ()))
            assert g2.order() == group.order(), name
