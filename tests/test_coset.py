import cProfile
import hashlib
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensq import (EnumerationLimitError, EnumerationLimits,
                   LetterPresentation, StateError, get_group,
                   get_presentation, multiplication_table_presentation,
                   nu_presentation, parse_presentation, parse_word,
                   tc_enumerate, to_perm_group)
from tensq.catalog import catalog
from tensq import coset
import tensq.nu as nu_module
import tensq.symbol as symbol
import tensq.tietze as tietze
from tensq.coset import CosetTable
from tensq.nu import build_nu

from full_triple import full_triple_nu_presentation


def pres(text):
    return parse_presentation(text).letters()


def subgroup(text, word):
    """The presentation ``text`` and the subgroup generated by ``word``,
    both as letter rows."""
    p = parse_presentation(text)
    return p.letters(), (parse_word(word, p.generator_names),)


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
        table = tc_enumerate(*subgroup(C2, "a"))
        assert table.coset_count == 1

    def test_proper_subgroup_index(self):
        table = tc_enumerate(*subgroup(S3, "a"))
        assert table.coset_count == 3

    def test_determinism(self):
        t1 = tc_enumerate(pres(S3), ())
        t2 = tc_enumerate(pres(S3), ())
        assert np.array_equal(t1.table, t2.table)

    def _progress(self, info, prefix):
        """Live and defined coset counts from a limit error's message,
        checked against the partial table it carries."""
        table = info.value.table
        m = re.fullmatch(re.escape(prefix) + r" \((\d+) live cosets, "
                         r"(\d+) cosets defined, \d+\.\d\ds elapsed\)",
                         str(info.value))
        assert m is not None, str(info.value)
        assert int(m.group(1)) == table.alive
        assert int(m.group(2)) == table.defined >= table.alive

    def test_coset_limit_preserves_table(self):
        with pytest.raises(EnumerationLimitError) as info:
            tc_enumerate(pres(S3), (), EnumerationLimits(max_cosets=3))
        assert info.value.table is not None
        assert info.value.table.status == "in-progress"
        self._progress(info, "coset limit 3 exceeded")
        assert info.value.table.alive == 3

    def test_time_limit_reports_progress(self):
        with pytest.raises(EnumerationLimitError) as info:
            tc_enumerate(pres(S3), (), EnumerationLimits(time_limit=0.0))
        assert info.value.table.status == "in-progress"
        self._progress(info, "time limit 0.0s exceeded")

    def test_table_memory_limit_reports_progress(self, monkeypatch):
        # a^5000 outgrows the first 1024 rows of 2 columns (8 KiB); the
        # doubled table would take 16 KiB
        monkeypatch.setattr(coset, "_MAX_TABLE_BYTES", 10_000)
        with pytest.raises(EnumerationLimitError) as info:
            tc_enumerate(pres("gens: a\nrels: a^5000\n"), ())
        assert info.value.table.status == "in-progress"
        assert len(info.value.table._rows) == coset._INITIAL_ROWS
        self._progress(info, "table memory limit 10000 bytes exceeded")

    def test_precheck_stops_when_every_path_is_undefined(self):
        # from a lone coset, a^40000 is undefined after one letter; the
        # pre-check stops at its next test instead of walking all
        # 40,000 letters
        table = CosetTable(pres("gens: a\nrels: a^40000, a^2\n"))
        walked = []

        class Counting(list):
            def __iter__(self):
                for letters in super().__iter__():
                    walked.append(letters)
                    yield letters

        table._letters = Counting(table._letters)
        assert table._open_relators([0]).tolist() == [[True, True]]
        assert len(walked) == coset._WALK_CHECK_LETTERS

    def test_precheck_checks_the_time_limit(self):
        table = CosetTable(pres("gens: a\nrels: a^40000\n"))
        table._start = time.monotonic()
        table._deadline = table._start - 1.0
        for c in range(coset._WALK_CHECK_LETTERS):
            table._define(c, 0)  # defined steps past the first test
        with pytest.raises(EnumerationLimitError, match="time limit"):
            table._open_relators([0])

    def test_lookahead_path(self, monkeypatch):
        monkeypatch.setattr(coset, "_LOOKAHEAD_THRESHOLD", 4)
        table = tc_enumerate(pres(S3), ())
        assert table.coset_count == 6

    def test_verification_runs_after_close(self):
        table = tc_enumerate(pres(S3), ())
        assert table.verify()


class TestLetterRows:
    @pytest.mark.parametrize("row", [(0, 4), (7, 6), (-2,)])
    def test_letter_outside_the_generators_is_rejected(self, row):
        # two generators have the letters 0 to 3; 4 would read the next
        # coset's row of the table, even where it cancels
        with pytest.raises(ValueError, match=r"outside \[0, 4\)"):
            CosetTable(LetterPresentation(2, ((0, 0), row)))
        with pytest.raises(ValueError, match=r"outside \[0, 4\)"):
            tc_enumerate(pres(S3), (row,))

    def test_padding_is_skipped(self):
        padded = LetterPresentation(2, ((0, 0, -1, -1), (2, -1, 2),
                                        (-1, 0, 2, 0, 2, -1)))
        assert CosetTable(padded).relators == ((0, 0), (2, 2), (0, 2, 0, 2))
        assert tc_enumerate(padded).coset_count == 4

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 5), max_size=8), max_size=4))
    def test_rows_reduce_as_words_do(self, rows):
        # relators freely and cyclically, subgroup words freely, as a
        # rewriting of (generator, +-1) words reduces them
        words = [[(x >> 1, 1 - 2 * (x & 1)) for x in r] for r in rows]
        table = CosetTable(LetterPresentation(3, rows), rows)
        assert table.relators == tuple(_rewritten(w, True) for w in words)
        assert table.subgroup_words == tuple(_rewritten(w, False)
                                             for w in words)


def _rewritten(word, cyclic):
    """``word``, a list of (generator, +-1) letters, less the first
    adjacent inverse pair (or, if ``cyclic``, an inverse first and last
    letter) until none is left, as a row of letters."""
    def inverse(x, y):
        return x[0] == y[0] and x[1] == -y[1]
    word = list(word)
    while True:
        pairs = [i for i in range(len(word) - 1)
                 if inverse(word[i], word[i + 1])]
        if pairs:
            del word[pairs[0]:pairs[0] + 2]
        elif cyclic and len(word) > 1 and inverse(word[0], word[-1]):
            del word[-1], word[0]
        else:
            return tuple(2 * g + (e < 0) for g, e in word)


def _first_generator(name):
    return get_presentation(name).letters(), ((0,),)


def _nu(monkeypatch, name, mode, lookahead):
    monkeypatch.setattr(coset, "_LOOKAHEAD_THRESHOLD", lookahead)
    if mode == "all-spanning":
        # spanning: G's generating set S in the table presentation, and
        # its primed copy S', as the all route passes them
        group = get_group(name)
        gens = group.generator_indices()
        return (nu_presentation(group, "all"), (), None,
                [*gens, *(s + group.order() for s in gens)])
    if mode == "gens":
        pres = nu_presentation(get_presentation(name), mode)
    elif mode == "full":
        pres = full_triple_nu_presentation(get_group(name))
    else:
        pres = nu_presentation(get_group(name), mode)
    return pres, ()


def _symbol(name):
    """The reduced symbol presentation of G (x) G that
    ``tensq.symbol.tensor_symbols`` enumerates."""
    group = get_group(name)
    rows = symbol.symbol_relators(symbol.group_arrays(group))
    return tietze.reduce_symbols(rows, group.order() ** 2).presentation(), ()


# sha256 of closed tables (rows of little-endian int32), recorded from
# the list-of-lists enumerator that scanned every relator from every
# coset; the closed-relator pre-check must not change a single entry.
# "nu(S3)-all" enumerates the full-triple presentation, with the all
# route's relators over every element triple.  "nu(S3)-all-reduced"
# enumerates the all route's own presentation, over non-identity pairs
# and a generating set of conjugators; it was recorded from the
# enumerator with the pre-check.  "nu(S3)-all-spanning" enumerates the
# same presentation as the all route does, with a first pass that
# defines cosets only along S and S'; it was recorded from the
# two-pass enumerator.  The nine before it pin ``spanning=None``.
# "T(G)-symbol" enumerates the Tietze-reduced symbol presentation of
# G (x) G, as the symbol route does; recorded when that presentation
# still went through ``tensq.words``.  Each factory takes pytest's
# monkeypatch; the nu(G) ones lower the lookahead threshold with it.
GOLDEN_TABLES = [
    ("S3/<a>", lambda mp: subgroup(S3, "a"),
     "9b12c535734673b807e60a9ec402d22a415b8ee70289c6247843927715b73839"),
    ("D4/<a>", lambda mp: _first_generator("D4"),
     "02b8275e427a62aa956cb1cc5bfb538126533528a34b9e6581abf7e3db2705e1"),
    ("A4/<a>", lambda mp: _first_generator("A4"),
     "134d2bd89be057f27f9df10b8978090dd54f07e991374bd7e43c974d03335602"),
    ("Q8/<a>", lambda mp: _first_generator("Q8"),
     "02b8275e427a62aa956cb1cc5bfb538126533528a34b9e6581abf7e3db2705e1"),
    ("nu(D4)-gens", lambda mp: _nu(mp, "D4", "gens", 500),
     "5466b85be74b2aa87cd2f3befafb17a2cdb868b9a2c1b99eb08cfd4fc0955dc8"),
    ("nu(A4)-gens", lambda mp: _nu(mp, "A4", "gens", 500),
     "f5d74147f9e9cd306ac66d0874f639d22d48a723377027a88556f2b660348050"),
    ("nu(Q8)-gens", lambda mp: _nu(mp, "Q8", "gens", 500),
     "e14f9fe0be08f8ba21664ca1691f6f48c9ad61fffe3c2b84334cdfe7cf724791"),
    ("nu(S3)-all", lambda mp: _nu(mp, "S3", "full", 300),
     "9922078034a0122e19018ee5a9225aee47bdca5d44451fd55afff62345159511"),
    ("nu(S3)-all-reduced", lambda mp: _nu(mp, "S3", "all", 300),
     "461dc6a7235c3e800e2733ecd0179e3fec20c84037c1b7dcc3150e0951e38af1"),
    ("nu(S3)-all-spanning", lambda mp: _nu(mp, "S3", "all-spanning", 300),
     "736d118d41dc127dcb6235d4e54d60395762b6684427b5974dd732e192aa63bc"),
    ("T(D4)-symbol", lambda mp: _symbol("D4"),
     "57b0a147f87c645a7f1b3a542f84f3f4f76f9791df36be1eb34bc3600b697f2d"),
    ("T(A4)-symbol", lambda mp: _symbol("A4"),
     "46b55cbdb2113dffdd43e485f46d13615540edcc61345f671676cda8a8784d65"),
    ("T(Heis3)-symbol", lambda mp: _symbol("Heis3"),
     "f3aeaeaff723fa2b57528fd816c54892879d46c75204ebd828ffad4ec7182ba5"),
]


def _digest(table):
    data = np.ascontiguousarray(table.table, dtype="<i4").tobytes()
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("make, digest", [g[1:] for g in GOLDEN_TABLES],
                         ids=[g[0] for g in GOLDEN_TABLES])
def test_closed_table_matches_recorded_digest(monkeypatch, make, digest):
    assert _digest(tc_enumerate(*make(monkeypatch))) == digest


def test_table_grown_under_a_profiler(monkeypatch):
    # a profiler holds a reference to the array while it grows, so it
    # grows by a copy instead of in place; the table is the same
    _, make, digest = GOLDEN_TABLES[4]
    args = make(monkeypatch)
    assert _digest(cProfile.Profile().runcall(tc_enumerate, *args)) \
        == digest


class TestSpanningPass:
    # cosets the all route defines for nu(G), catalog numbering; with one
    # HLT pass over every column it defined 6,832, 10,232 and 43,984
    @pytest.mark.parametrize("name, defined, final", [
        ("C8", 1124, 512), ("C9", 1776, 729), ("Q8", 19427, 4096)])
    def test_all_route_cosets_defined(self, monkeypatch, name, defined,
                                      final):
        tables = []

        def recording(*args, **kwargs):
            tables.append(tc_enumerate(*args, **kwargs))
            return tables[-1]

        monkeypatch.setattr(nu_module, "tc_enumerate", recording)
        assert build_nu(get_group(name), mode="all").order() == final
        [table] = tables
        assert (table.defined, table.coset_count) == (defined, final)

    def test_complete_first_pass_closes_the_table(self, monkeypatch):
        # the first pass along S and S' leaves no entry of nu(C9)'s table
        # undefined, and the closing verify accepts it: no second pass
        tables = []

        def recording(*args, **kwargs):
            tables.append(tc_enumerate(*args, **kwargs))
            return tables[-1]

        monkeypatch.setattr(nu_module, "tc_enumerate", recording)
        assert build_nu(get_group("C9"), mode="all").order() == 729
        [table] = tables
        assert table.passes == 1 and table.is_closed()

    @pytest.mark.parametrize("part", ["S", "none"])
    def test_spanning_that_does_not_generate(self, part):
        # the completing pass over every column still closes the table
        group = get_group("S3")
        spanning = list(group.generator_indices()) if part == "S" else []
        table = tc_enumerate(nu_presentation(group, "all"), (), None,
                             spanning)
        assert table.is_closed() and table.verify()
        assert (table.passes, table.coset_count) == (2, 216)

    def test_complete_first_pass_that_verify_rejects(self, monkeypatch):
        # along a alone the first pass leaves no entry undefined, yet its
        # four cosets are one: verify rejects the table, the second pass
        # finds the coincidences and the second verify accepts
        outcomes = []
        verify = CosetTable.verify

        def recording(table):
            try:
                outcomes.append(verify(table))
            except StateError:
                outcomes.append("rejected")
                raise
            return True

        monkeypatch.setattr(CosetTable, "verify", recording)
        trivial = pres("gens: a b\nrels: b^-1 a b a, a^-1 b^2, b\n")
        table = tc_enumerate(trivial, (), None, [0])
        assert outcomes == ["rejected", True]
        assert (table.passes, table.defined, table.coset_count) == (2, 4, 1)

    def test_presentation_without_generators(self):
        # a table with no columns is complete after the first pass
        table = tc_enumerate(LetterPresentation(0, ()), (), None, [])
        assert (table.passes, table.coset_count) == (1, 1)

    @pytest.mark.parametrize("gen", [-1, 2])
    def test_spanning_generator_out_of_range(self, gen):
        with pytest.raises(ValueError, match="spanning generators"):
            tc_enumerate(pres(S3), (), None, [0, gen])


class TestVerifyRejects:
    def test_inconsistent_columns(self):
        table = tc_enumerate(pres(S3), ())
        t = table.table
        t[[0, 1], 0] = t[[1, 0], 0]
        with pytest.raises(StateError, match="inconsistent columns"):
            table.verify()

    def test_relator_not_closing(self):
        table = tc_enumerate(pres(S3), ())
        table.relators += ((0, 2),)           # a b has order 3, not 1
        with pytest.raises(StateError, match="does not scan to closure"):
            table.verify()

    def test_subgroup_word_leaving_coset_0(self):
        table = tc_enumerate(pres(S3), ())    # regular: a moves coset 0
        table.subgroup_words = ((0,),)
        with pytest.raises(StateError, match="leaves the subgroup coset"):
            table.verify()


class TestToPermGroup:
    def test_single_coset_trivial_group(self):
        g = to_perm_group(tc_enumerate(*subgroup(C2, "a")))
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
        assert tp.ngens == 1
        assert tc_enumerate(tp, ()).coset_count == 1

    def test_c2(self):
        tp = multiplication_table_presentation(get_group("C2"))
        assert tp.ngens == 2
        # x0 = 1, then x_i x_j x_ij^-1 for (i, j) in row-major order
        assert tp.relators == ((0,), (0, 0, 1), (0, 2, 3), (2, 0, 3),
                               (2, 2, 1))
        assert tc_enumerate(tp, ()).coset_count == 2

    def test_s3(self):
        tp = multiplication_table_presentation(get_group("S3"))
        assert tp.ngens == 6
        assert tc_enumerate(tp, ()).coset_count == 6

    def test_every_small_catalog_group_roundtrips(self):
        for name, entry in catalog().items():
            if entry.order > 16:
                continue
            group = get_group(name)
            tp = multiplication_table_presentation(group)
            g2 = to_perm_group(tc_enumerate(tp, ()))
            assert g2.order() == group.order(), name
