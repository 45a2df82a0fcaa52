import hashlib
from collections import Counter
import os
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensq import (EnumerationLimitError, EnumerationLimits,
                   LetterPresentation, StateError, get_group,
                   get_presentation, multiplication_table_presentation,
                   nu_presentation, parse_presentation, tc_enumerate,
                   to_perm_group)
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


C2 = "gens: a\nrels: a^2\n"
S3 = "gens: a b\nrels: a^2, b^2, (a b)^3\n"


class TestEnumeration:
    def test_order_two(self):
        table = tc_enumerate(pres(C2))
        assert table.coset_count == 2

    def test_s3(self):
        table = tc_enumerate(pres(S3))
        assert table.coset_count == 6
        # cross-check against the permutation realization
        assert get_group("S3").order() == 6

    def test_determinism(self):
        t1 = tc_enumerate(pres(S3))
        t2 = tc_enumerate(pres(S3))
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
            tc_enumerate(pres(S3), EnumerationLimits(max_cosets=3))
        assert info.value.table is not None
        assert info.value.table.status == "in-progress"
        self._progress(info, "coset limit 3 exceeded")
        assert info.value.table.alive == 3

    def test_time_limit_reports_progress(self):
        with pytest.raises(EnumerationLimitError) as info:
            tc_enumerate(pres(S3), EnumerationLimits(time_limit=0.0))
        assert info.value.table.status == "in-progress"
        self._progress(info, "time limit 0.0s exceeded")

    def test_table_memory_limit_reports_progress(self, monkeypatch):
        # a^5000 needs 5,000 cosets; 10,000 bytes reserve 1,250 rows of 2
        # columns, row 0 and cosets 1 to 1,249, and the limit is hit at
        # the next
        monkeypatch.setattr(coset, "_MAX_TABLE_BYTES", 10_000)
        with pytest.raises(EnumerationLimitError) as info:
            tc_enumerate(pres("gens: a\nrels: a^5000\n"))
        table = info.value.table
        assert table.status == "in-progress"
        assert table._rows.shape == (1250, 2)
        assert table.defined == table._n == 1249
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
        assert table._open_relators([1]).tolist() == [[True, True]]
        assert len(walked) == coset._WALK_CHECK_LETTERS

    def test_precheck_checks_the_time_limit(self):
        table = CosetTable(pres("gens: a\nrels: a^40000\n"))
        table._start = time.monotonic()
        table._deadline = table._start - 1.0
        for c in range(1, coset._WALK_CHECK_LETTERS + 1):
            table._define(c, 0)  # defined steps past the first test
        with pytest.raises(EnumerationLimitError, match="time limit"):
            table._open_relators([1])

    def test_lookahead_path(self, monkeypatch):
        monkeypatch.setattr(coset, "_LOOKAHEAD_THRESHOLD", 4)
        table = tc_enumerate(pres(S3))
        assert table.coset_count == 6

    def test_verification_runs_after_close(self):
        table = tc_enumerate(pres(S3))
        assert table.verify()


class TestLetterRows:
    @pytest.mark.parametrize("row", [(0, 4), (7, 6), (-2,)])
    def test_letter_outside_the_generators_is_rejected(self, row):
        # two generators have the letters 0 to 3; 4 would read the next
        # coset's row of the table, even where it cancels
        with pytest.raises(ValueError, match=r"outside \[0, 4\)"):
            CosetTable(LetterPresentation(2, ((0, 0), row)))

    def test_padding_is_skipped(self):
        padded = LetterPresentation(2, ((0, 0, -1, -1), (2, -1, 2),
                                        (-1, 0, 2, 0, 2, -1)))
        assert CosetTable(padded).relators == ((0, 0), (2, 2), (0, 2, 0, 2))
        assert tc_enumerate(padded).coset_count == 4

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 5), max_size=8), max_size=4))
    def test_rows_reduce_as_words_do(self, rows):
        # freely and cyclically, as a rewriting of (generator, +-1)
        # words reduces them
        words = [[(x >> 1, 1 - 2 * (x & 1)) for x in r] for r in rows]
        table = CosetTable(LetterPresentation(3, rows))
        assert table.relators == tuple(_rewritten(w) for w in words)


def _rewritten(word):
    """``word``, a list of (generator, +-1) letters, less the first
    adjacent inverse pair, or else an inverse first and last letter,
    until none is left, as a row of letters."""
    def inverse(x, y):
        return x[0] == y[0] and x[1] == -y[1]
    word = list(word)
    while True:
        pairs = [i for i in range(len(word) - 1)
                 if inverse(word[i], word[i + 1])]
        if pairs:
            del word[pairs[0]:pairs[0] + 2]
        elif len(word) > 1 and inverse(word[0], word[-1]):
            del word[-1], word[0]
        else:
            return tuple(2 * g + (e < 0) for g, e in word)


def _nu(monkeypatch, name, mode, lookahead):
    monkeypatch.setattr(coset, "_LOOKAHEAD_THRESHOLD", lookahead)
    if mode == "all-spanning":
        # spanning: G's generating set S in the table presentation, and
        # its primed copy S', as the all route passes them
        group = get_group(name)
        gens = group.generator_indices()
        return (nu_presentation(group, "all"), None,
                [*gens, *(s + group.order() for s in gens)])
    if mode == "gens":
        pres = nu_presentation(get_presentation(name), mode)
    elif mode == "full":
        pres = full_triple_nu_presentation(get_group(name))
    else:
        pres = nu_presentation(get_group(name), mode)
    return (pres,)


def _symbol(name):
    """The reduced symbol presentation of G (x) G that
    ``tensq.symbol.tensor_symbols`` enumerates."""
    group = get_group(name)
    rows = symbol.symbol_relators(symbol.group_arrays(group))
    return (tietze.reduce_symbols(rows, group.order() ** 2).presentation(),)


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
# two-pass enumerator.  The five before it pin ``spanning=None``.
# "nu(C8)-all-spanning" and "nu(C9)-all-spanning" enumerate the all
# route's presentation as the all route does, in catalog numbering at
# the default lookahead threshold; they were recorded from the
# enumerator that scanned every copy of a repeated relator.
# "T(G)-symbol" enumerates the Tietze-reduced symbol presentation of
# G (x) G, as the symbol route does; recorded when that presentation
# still went through ``tensq.words``.  Each factory takes pytest's
# monkeypatch; the nu(G) ones lower the lookahead threshold with it.
GOLDEN_TABLES = [
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
    ("nu(C8)-all-spanning",
     lambda mp: _nu(mp, "C8", "all-spanning", coset._LOOKAHEAD_THRESHOLD),
     "7695de290ef3e93887fad075f3329fb8b879bc531619511f350696ed48daf3e7"),
    ("nu(C9)-all-spanning",
     lambda mp: _nu(mp, "C9", "all-spanning", coset._LOOKAHEAD_THRESHOLD),
     "d50361d83030ed790cef537e764841175dc880f33e69ccb464db9cb6712e2bbb"),
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
        table = tc_enumerate(nu_presentation(group, "all"), None,
                             spanning)
        assert table.is_closed() and table.verify()
        assert (table.passes, table.coset_count) == (2, 216)

    @pytest.mark.parametrize("part", ["S", "none"])
    def test_group_on_a_spanning_that_does_not_generate_raises(self, part):
        # the table is nu(S3)'s, but S alone generates only the left copy
        # of S3 in it, and no generator the trivial group: neither acts
        # transitively on the 216 cosets, and no group of order 216 may
        # come of them
        group = get_group("S3")
        spanning = list(group.generator_indices()) if part == "S" else []
        table = tc_enumerate(nu_presentation(group, "all"), None,
                             spanning)
        assert table.spanning == tuple(spanning)
        with pytest.raises(ValueError, match="not transitive"):
            to_perm_group(table)

    def test_complete_first_pass_that_verify_rejects(self, monkeypatch):
        # along a alone the first pass leaves no entry undefined, yet its
        # four cosets are one: verify rejects the table, the second pass
        # finds the coincidences in the same reservation and the second
        # verify accepts, which releases it
        outcomes = []
        reservations = []
        verify = CosetTable.verify

        def recording(table):
            reservations.append(table._rows)
            try:
                outcomes.append(verify(table))
            except StateError:
                outcomes.append("rejected")
                raise
            return True

        monkeypatch.setattr(CosetTable, "verify", recording)
        trivial = pres("gens: a b\nrels: b^-1 a b a, a^-1 b^2, b\n")
        table = tc_enumerate(trivial, None, [0])
        assert outcomes == ["rejected", True]
        assert reservations[0] is reservations[1]
        assert not hasattr(table, "_rows")
        assert (table.passes, table.defined, table.coset_count) == (2, 4, 1)

    def test_presentation_without_generators(self):
        # a table with no columns is complete after the first pass
        table = tc_enumerate(LetterPresentation(0, ()), None, [])
        assert (table.passes, table.coset_count) == (1, 1)

    @pytest.mark.parametrize("gen", [-1, 2])
    def test_spanning_generator_out_of_range(self, gen):
        with pytest.raises(ValueError, match="spanning generators"):
            tc_enumerate(pres(S3), None, [0, gen])


def _scan_one(table, a, word, fill):
    """One HLT scan of ``word`` from live coset ``a``, a call of its own."""
    cols = table._cols
    i, j = 0, len(word) - 1
    f = b = a
    while True:
        while i <= j and cols[word[i]][f]:
            f = cols[word[i]][f]
            i += 1
        if i > j:
            if f != b:
                table._coincidence(f, b)
            return
        while j >= i and cols[word[j] ^ 1][b]:
            b = cols[word[j] ^ 1][b]
            j -= 1
        if j < i:
            table._coincidence(f, b)
            return
        if j == i:
            cols[word[i]][f] = b
            cols[word[i] ^ 1][b] = f
            return
        if not fill[word[i]]:
            return
        table._define(f, word[i])


class EveryCopy(CosetTable):
    """The enumerator that scans every copy of a repeated relator: from
    each live coset, every row whose relator the pre-check left open, in
    declaration order, one ``_scan_one`` each."""

    def __init__(self, *args):
        super().__init__(*args)
        self._index = {w: k for k, w in enumerate(self._distinct)}

    def _scan_rows(self, c, open_relators, fill):
        open_relators = set(open_relators)
        for word in self.relators:
            if self._index[word] in open_relators:
                _scan_one(self, c, word, fill)
                if self.p[c] != c:
                    return


def _outcome(cls, presentation, limits, spanning):
    """What ``cls`` leaves of an enumeration: status, cosets defined,
    passes and the table, closed or as a limit left it."""
    table = cls(presentation, limits, spanning)
    try:
        table.run()
    except EnumerationLimitError as err:
        assert err.table is table
    return table.status, table.defined, table.passes, table.table.tolist()


def _nu_spanning_all(name):
    group = get_group(name)
    gens = group.generator_indices()
    return (nu_presentation(group, "all"),
            [*gens, *(s + group.order() for s in gens)])


NU_CAPABLE = [name for name, entry in catalog().items()
              if entry.order <= nu_module.DEFAULT_GROUP_CAP]


class TestRepeatedRelators:
    # the enumerator scans each distinct reduced row once; skipping the
    # repeats must not change a single entry, count or pass

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_skipping_repeats_is_exact(self, data):
        ngens = data.draw(st.integers(1, 3))
        row = st.lists(st.integers(0, 2 * ngens - 1), min_size=1,
                       max_size=6)
        rows = data.draw(st.lists(row, min_size=1, max_size=4))
        copies = data.draw(st.lists(st.sampled_from(rows), min_size=1,
                                    max_size=4))
        relators = data.draw(st.permutations(rows + copies))
        presentation = LetterPresentation(ngens, relators)
        limits = EnumerationLimits(max_cosets=300)
        assert len(set(CosetTable(presentation).relators)) < len(relators)
        assert _outcome(CosetTable, presentation, limits, None) == \
            _outcome(EveryCopy, presentation, limits, None)

    @pytest.mark.parametrize(
        "name", [n for n in NU_CAPABLE if catalog()[n].order <= 9])
    def test_all_route_enumeration_is_exact(self, name):
        presentation, spanning = _nu_spanning_all(name)
        limits = EnumerationLimits()
        assert _outcome(CosetTable, presentation, limits, spanning) == \
            _outcome(EveryCopy, presentation, limits, spanning)

    @pytest.mark.parametrize("name", NU_CAPABLE)
    def test_only_the_all_route_repeats_and_only_one_letter(self, name):
        # x_e = 1, x_e' = 1 and the 2n - 1 table relators x_i x_j x_ij^-1
        # with i = e or j = e, which reduce to them: 4n - 2 repeats
        group = get_group(name)
        n = group.order()
        rows = CosetTable(nu_presentation(group, "all")).relators
        repeats = Counter(rows)
        assert len(rows) - len(repeats) == 4 * n - 2
        assert {w for w, k in repeats.items() if k > 1} == {(0,), (2 * n,)}
        for pres_ in (nu_presentation(get_presentation(name), "gens"),
                      *_symbol(name)):
            rows = CosetTable(pres_).relators
            assert len(set(rows)) == len(rows)


def _compacted_out_of_place(table):
    """The rows the compaction writes, built in a new array: row 0, all
    0, then the live cosets' rows, in order, relabelled 1 to k through
    the union-find."""
    n = table._n
    p = np.array(table.p, dtype=np.intp)
    rep = p
    while True:
        nxt = rep[rep]
        if np.array_equal(nxt, rep):
            break
        rep = nxt
    live = np.flatnonzero(p[1:] == np.arange(1, n + 1)) + 1
    old_to_new = np.zeros(n + 1, dtype=np.int32)
    old_to_new[live] = np.arange(1, len(live) + 1, dtype=np.int32)
    rows = np.zeros((len(live) + 1, table.ncols), dtype=np.int32)
    kept = table._rows[live]
    defined = kept != 0
    kept[defined] = old_to_new[rep[kept[defined]]]
    rows[1:] = kept
    return rows


class TestCompaction:
    # nu(S3)'s all-route presentation enumerated in a single pass: at a
    # lookahead threshold of 300 the pass compacts 336 rows to 142 live
    # cosets, with undefined entries left in them, before it closes
    def _enumerate(self, monkeypatch):
        monkeypatch.setattr(coset, "_LOOKAHEAD_THRESHOLD", 300)
        return tc_enumerate(nu_presentation(get_group("S3"), "all"))

    def test_in_place_compaction_matches_the_out_of_place_one(
            self, monkeypatch):
        seen = []
        compact = CosetTable._compact

        def checked(table):
            want = _compacted_out_of_place(table)
            rows, n_before = table._rows, table._n
            compact(table)
            k = table._n
            assert table._rows is rows
            assert np.array_equal(rows[:k + 1], want)
            assert not rows[k + 1:n_before + 1].any()
            seen.append((n_before, k, int((want[1:] == 0).sum())))

        monkeypatch.setattr(CosetTable, "_compact", checked)
        table = self._enumerate(monkeypatch)
        assert table.coset_count == 216 and table.is_closed()
        # a mid-pass compaction with dead cosets and undefined entries,
        # then the closing one
        mid, last = seen
        assert mid[1] < mid[0] and mid[2] > 0
        assert last[1] == 216 and last[2] == 0

    def test_closed_table_matches_the_out_of_place_compaction(
            self, monkeypatch):
        in_place = self._enumerate(monkeypatch).table.copy()

        def out_of_place(table):
            rows = _compacted_out_of_place(table)
            table._rows[:len(rows)] = rows
            table._rows[len(rows):table._n + 1] = 0
            table._n = len(rows) - 1
            table.p = list(range(len(rows)))

        monkeypatch.setattr(CosetTable, "_compact", out_of_place)
        assert np.array_equal(self._enumerate(monkeypatch).table, in_place)


def test_closing_holds_one_table(monkeypatch):
    # nu(C9)'s all route (729 cosets of 36 columns, 105 kB, from 1,776
    # defined): compaction and verify allocate O(rows), not a copy of
    # the table, and the closed table is an array of its own, of exactly
    # the cosets, with no reference left to the reservation
    peaks = {}

    def traced(name):
        method = getattr(CosetTable, name)

        def run(table):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            try:
                return method(table)
            finally:
                peaks[name] = tracemalloc.get_traced_memory()[1] - start
        return run

    for name in ("_compact", "verify"):
        monkeypatch.setattr(CosetTable, name, traced(name))
    group = get_group("C9")
    gens = group.generator_indices()
    tracemalloc.start()
    try:
        table = tc_enumerate(nu_presentation(group, "all"), None,
                             [*gens, *(s + 9 for s in gens)])
    finally:
        tracemalloc.stop()
    assert table.coset_count == 729
    assert table.table.shape == (729, 36) and table.table.base is None
    assert not any(hasattr(table, a) for a in ("_rows", "_cols", "_pairs"))
    assert set(peaks) == {"_compact", "verify"}
    for name, peak in peaks.items():
        assert peak < table.table.nbytes / 2, (name, peak)


def _resident_bytes():
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                    reason="no /proc/self/statm")
def test_reservation_stays_virtual_until_written():
    # T(Heis3)'s symbol presentation has 338 columns, so the 1 GiB holds
    # 794,187 rows; 1,000 cosets write about 1,000 rows (1.35 MB), and
    # only the pages they write become resident: at most two 2 MiB pages
    # where the kernel backs every anonymous mapping with huge pages,
    # against the whole 1 GiB for a reservation filled when made
    presentation = _symbol("Heis3")
    before = _resident_bytes()
    table = CosetTable(*presentation)
    assert table._rows.nbytes > (1 << 30) - 338 * 4
    built = _resident_bytes()
    for c in range(1, 1001):
        table._define(c, 0)
    written = _resident_bytes()
    assert table._n == 1001
    assert written - before < 5 << 20, written - before
    # merged into coset 1, the other 1,000 leave no page resident
    table.p = [0] + [1] * 1001
    table._compact()
    assert table._n == 1 and not table._rows[2:1002].any()
    assert _resident_bytes() - built < (written - built) / 4


class TestVerifyRejects:
    def test_inconsistent_columns(self):
        table = tc_enumerate(pres(S3))
        t = table.table
        t[[0, 1], 0] = t[[1, 0], 0]
        with pytest.raises(StateError, match="inconsistent columns"):
            table.verify()

    def test_relator_not_closing(self):
        table = tc_enumerate(pres(S3))
        table.relators += ((0, 2),)           # a b has order 3, not 1
        with pytest.raises(StateError, match="does not scan to closure"):
            table.verify()


class TestToPermGroup:
    def test_single_coset_trivial_group(self):
        g = to_perm_group(tc_enumerate(get_presentation("C1").letters()))
        assert g.order() == 1

    def test_cyclic_four(self):
        g = to_perm_group(tc_enumerate(pres("gens: a\nrels: a^4\n")))
        assert g.order() == 4
        assert g.generators[0].order() == 4

    def test_s3_order_census(self):
        g = to_perm_group(tc_enumerate(pres(S3)))
        census = {}
        for i in range(g.order()):
            o = g.order_of_idx(i)
            census[o] = census.get(o, 0) + 1
        assert census == {1: 1, 2: 3, 3: 2}

    @pytest.mark.parametrize("text, order", [
        ("gens: a b\nrels: b, a^2\n", 2),         # b is trivial in G
        ("gens: a b\nrels: a^3, b a^-1\n", 3),     # b repeats a
        ("gens: a\nrels: a\n", 1),                 # C1
    ])
    def test_degenerate_generators_give_a_regular_group(self, text, order):
        g = to_perm_group(tc_enumerate(pres(text)))
        assert g.is_regular()
        assert g.order() == order
        assert [g.index_of(g.element(i)) for i in range(order)] == \
            list(range(order))

    def test_rejects_open_table(self):
        table = CosetTable(pres(S3))
        with pytest.raises(StateError):
            to_perm_group(table)


class TestMultiplicationTablePresentation:
    def test_trivial_group(self):
        tp = multiplication_table_presentation(get_group("C1"))
        assert tp.ngens == 1
        assert tc_enumerate(tp).coset_count == 1

    def test_c2(self):
        tp = multiplication_table_presentation(get_group("C2"))
        assert tp.ngens == 2
        # x0 = 1, then x_i x_j x_ij^-1 for (i, j) in row-major order
        assert tp.relators == ((0,), (0, 0, 1), (0, 2, 3), (2, 0, 3),
                               (2, 2, 1))
        assert tc_enumerate(tp).coset_count == 2

    def test_s3(self):
        tp = multiplication_table_presentation(get_group("S3"))
        assert tp.ngens == 6
        assert tc_enumerate(tp).coset_count == 6

    def test_every_small_catalog_group_roundtrips(self):
        for name, entry in catalog().items():
            if entry.order > 16:
                continue
            group = get_group(name)
            tp = multiplication_table_presentation(group)
            g2 = to_perm_group(tc_enumerate(tp))
            assert g2.order() == group.order(), name
