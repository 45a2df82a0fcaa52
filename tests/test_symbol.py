"""The reduced symbol route against the full symbol presentation.

``tensq.symbol`` enumerates G (x) G over the symbols that the Tietze
pass of ``tensq.tietze`` keeps, certified by a replay of the
eliminations and by a check of all 2n^3 relators.  These tests compare
it with enumerating the whole presentation, and break each piece of the
reduction in turn.
"""

import hashlib
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import tensq.closure as closure
import tensq.symbol as symbol
import tensq.tietze as tietze
import tensq.tietzecert as tietzecert
from tensq import (InvariantError, build_nu, get_group, tc_enumerate,
                   tensor_report, to_perm_group)
from tensq.catalog import catalog

from standalone import standalone_group
from symbol_oracle import symbol_presentation

GROUPS = [name for name, entry in catalog().items()
          if entry.order <= 12] + ["S4"]


def _census(group):
    out = {}
    for i in range(group.order()):
        o = group.order_of_idx(i)
        out[o] = out.get(o, 0) + 1
    return out


def _table_census(presentation):
    """Element-order census of the regular group of the presentation's
    enumeration."""
    return _census(to_perm_group(tc_enumerate(presentation)))


def _reduction(name):
    group = get_group(name)
    rows = symbol.symbol_relators(symbol.group_arrays(group))
    return group, rows, tietze.reduce_symbols(rows, group.order() ** 2)


def _unreduced(rows, nsym):
    """Every symbol kept and every relator as it is: the full symbol
    presentation, in its own order."""
    return tietze.SymbolReduction(image=2 * np.arange(nsym), log=(),
                                  relators=tietze._letters(rows),
                                  sources=np.arange(len(rows)))


@pytest.mark.parametrize("name", GROUPS)
def test_reduced_route_matches_the_full_presentation(name, monkeypatch):
    group, rows, reduction = _reduction(name)
    reduced = _table_census(reduction.presentation())
    full = _table_census(symbol_presentation(group))
    assert reduced == full

    nu = build_nu(group, mode="symbol", max_group_order=24)
    monkeypatch.setattr(tietze, "reduce_symbols", _unreduced)
    # the unreduced relators are not cyclically reduced, so the replay
    # would reject them; the relator check still runs
    monkeypatch.setattr(tietzecert, "replay_reduction", lambda *args: None)
    nu_full = build_nu(group, mode="symbol", max_group_order=24)
    assert nu.tensor.order() == nu_full.tensor.order() == \
        sum(full.values())
    assert _census(standalone_group(nu.tensor)) == \
        _census(standalone_group(nu_full.tensor))
    assert tensor_report(nu) == tensor_report(nu_full)


def test_trivial_group_keeps_no_symbol_and_has_order_one():
    group, rows, reduction = _reduction("C1")
    assert len(reduction.kept()) == 0
    table = to_perm_group(tc_enumerate(reduction.presentation()))
    assert table.order() == 1
    assert table.generator_indices() == (0,)


@pytest.mark.parametrize("name,kept", [("D4", 17), ("A4", 17),
                                       ("C3xC3", 16), ("Heis3", 169)])
def test_reduction_keeps_few_symbols(name, kept):
    group, rows, reduction = _reduction(name)
    assert len(reduction.kept()) == kept
    assert len(reduction.log) == group.order() ** 2 - kept
    words = reduction.relators
    assert ((words >= 0).sum(axis=1) >= 2).all()
    tietzecert.replay_reduction(rows, reduction)


# the first 16 hex digits of the sha256 of each reduction's image, log,
# relators and sources (little-endian int64, in that order), recorded
# from the pass that ordered its eliminations and relators by
# np.lexsort; any other sort must give the same order
REDUCTION_DIGESTS = {
    "C1": "5197c3ddd1d284fc",
    "C2": "77b8b65eeeee1039",
    "C3": "b3f3ca13bd7ba6e5",
    "C4": "73293b4f4ac1732c",
    "C2xC2": "03262fe21640b268",
    "C5": "e36c5fbe4ec4889d",
    "C6": "a020be4060de4f28",
    "S3": "cf0afb90aa5417cb",
    "C8": "12f47193a1600a69",
    "C2xC4": "b50b90512ea776f0",
    "D4": "04bf55e81464d57d",
    "Q8": "5962a2c5639200c0",
    "C9": "74045d575625044e",
    "C3xC3": "c104ea523e783938",
    "D5": "3d8043cfac5ea2e4",
    "A4": "6d7ba690aa837c25",
    "S4": "0c3bc1a944731609",
    "Heis3": "dbd87d73b413334c",
    "M27": "2bab4b44bbbdf89f",
    "C27": "72bc83e85e78e435",
}


@pytest.mark.parametrize("name", [name for name, entry in catalog().items()
                                  if entry.order <= 27])
def test_reduction_matches_recorded_digest(name):
    _, _, reduction = _reduction(name)
    log = np.array(reduction.log, dtype=np.int64).reshape(-1, 2)
    digest = hashlib.sha256()
    for part in (reduction.image, log, reduction.relators,
                 reduction.sources):
        digest.update(np.ascontiguousarray(part, dtype="<i8").tobytes())
    assert digest.hexdigest()[:16] == REDUCTION_DIGESTS[name]


def _merged(reduction):
    """``reduction`` with its last kept symbol t wrongly set equal to its
    second, u, and logged against a relator that holds t."""
    kept = reduction.kept()
    u, t = kept[1], kept[-1]
    step = np.arange(2 * len(reduction.image))
    step[2 * t], step[2 * t + 1] = 2 * u, 2 * u + 1
    image = np.where(reduction.image >= 0, step[reduction.image], -1)
    words = reduction.relators
    holds_t = ((words >> 1) == t).any(axis=1)
    row = int(reduction.sources[np.flatnonzero(holds_t)[0]])
    return tietze.SymbolReduction(
        image=image, log=reduction.log + ((int(t), row),),
        relators=np.where(words >= 0, step[words], -1),
        sources=reduction.sources)


def _corrupting(monkeypatch, corrupt):
    reduce_symbols = tietze.reduce_symbols
    monkeypatch.setattr(tietze, "reduce_symbols",
                        lambda rows, nsym: corrupt(reduce_symbols(rows, nsym)))


def test_wrong_merge_passes_the_relator_check_but_not_the_replay(
        monkeypatch):
    group, rows, reduction = _reduction("D4")
    merged = _merged(reduction)
    table = tc_enumerate(merged.presentation()).table
    # the merged table is a proper quotient of D4 (x) D4, so every
    # relator holds on it: only the replay sees the merge
    assert len(table) < 32
    assert tietzecert.check_relators(
        rows, tietzecert.symbol_columns(table, merged), math.inf)
    with pytest.raises(InvariantError, match="symbol replay"):
        tietzecert.replay_reduction(rows, merged)
    _corrupting(monkeypatch, _merged)
    with pytest.raises(InvariantError, match="symbol replay"):
        build_nu(group, mode="symbol")


def test_flipped_sign_in_the_image_raises(monkeypatch):
    def flipped(reduction):
        image = reduction.image.copy()
        t = int(np.flatnonzero((image >= 0) & (image >> 1 !=
                                               np.arange(len(image))))[0])
        image[t] ^= 1
        return tietze.SymbolReduction(image=image, log=reduction.log,
                                      relators=reduction.relators,
                                      sources=reduction.sources)

    _corrupting(monkeypatch, flipped)
    with pytest.raises(InvariantError, match="other images"):
        build_nu(get_group("D4"), mode="symbol")


def test_corrupted_log_entry_raises(monkeypatch):
    def corrupted(reduction):
        # the first elimination, justified by the last one's relator
        log = list(reduction.log)
        log[0] = (log[0][0], log[-1][1])
        return tietze.SymbolReduction(image=reduction.image, log=tuple(log),
                                      relators=reduction.relators,
                                      sources=reduction.sources)

    _corrupting(monkeypatch, corrupted)
    with pytest.raises(InvariantError, match="does not eliminate"):
        build_nu(get_group("D4"), mode="symbol")


def test_relator_check_catches_a_wrong_column(monkeypatch):
    def swapped(table, reduction):
        columns = symbol_columns(table, reduction).copy()
        kept = reduction.kept()
        columns[:, [kept[1], kept[2]]] = columns[:, [kept[2], kept[1]]]
        return columns

    symbol_columns = tietzecert.symbol_columns
    monkeypatch.setattr(tietzecert, "symbol_columns", swapped)
    with pytest.raises(InvariantError, match="fails a relator"):
        build_nu(get_group("D4"), mode="symbol")


def _columns(name):
    group, rows, reduction = _reduction(name)
    table = tc_enumerate(reduction.presentation()).table
    return rows, reduction, tietzecert.symbol_columns(table, reduction)


def test_relator_check_across_block_boundaries(monkeypatch):
    rows, reduction, columns = _columns("D4")
    assert columns.shape == (32, 64) and len(rows) == 1024
    # 7 relators a block: 146 full blocks and a last one of 2
    monkeypatch.setattr(closure, "SWEEP_ENTRIES", 7 * 32)
    assert closure.sweep_rows(32) == 7
    assert tietzecert.check_relators(rows, columns, math.inf)
    # u^-1 v (e (x) e), with u != v, placed at each end of the relators
    kept = reduction.kept()
    wrong = np.array([[kept[1], kept[2], 0]])
    assert not tietzecert.check_relators(np.vstack([wrong, rows]), columns,
                                         math.inf)
    assert not tietzecert.check_relators(np.vstack([rows, wrong]), columns,
                                         math.inf)
    # the corruption of test_relator_check_catches_a_wrong_column
    swapped = columns.copy()
    swapped[:, [kept[1], kept[2]]] = columns[:, [kept[2], kept[1]]]
    assert not tietzecert.check_relators(rows, swapped, math.inf)


@pytest.mark.parametrize("name", ["A4", "C3xC3"])
def test_relator_check_holds_one_sweep_block_at_a_time(name):
    rows, _, columns = _columns(name)
    tracemalloc.start()
    try:
        assert tietzecert.check_relators(rows, columns, math.inf)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a few arrays of one block's entries, of at most 8 bytes each
    assert peak < 8 * closure.SWEEP_ENTRIES * 8


@pytest.mark.parametrize("name", ["D4", "A4"])
def test_replay_reads_only_the_rows_it_names(name):
    _, rows, reduction = _reduction(name)
    named = sorted({r for _, r in reduction.log} |
                   set(reduction.sources.tolist()))
    garbage = np.random.default_rng(0).integers(
        0, len(reduction.image), size=rows.shape)
    garbage[named] = rows[named]
    assert len(named) < len(rows)
    tietzecert.replay_reduction(garbage, reduction)

    # u^-1 u u = u for a kept u: it eliminates no symbol, and no
    # remaining relator has one letter
    u = reduction.kept()[-1]
    for r, match in ((reduction.log[0][1], "does not eliminate"),
                     (int(reduction.sources[0]), "does not reduce")):
        altered = rows.copy()
        altered[r] = u
        with pytest.raises(InvariantError, match=match):
            tietzecert.replay_reduction(altered, reduction)


def test_replay_rejects_a_relator_kept_for_another_source():
    _, rows, reduction = _reduction("D4")
    sources = reduction.sources.copy()
    sources[0] = sources[1]
    moved = tietze.SymbolReduction(image=reduction.image, log=reduction.log,
                                   relators=reduction.relators,
                                   sources=sources)
    with pytest.raises(InvariantError, match="does not reduce to the "
                                             "relator kept for it"):
        tietzecert.replay_reduction(rows, moved)


def test_build_does_not_import_numpy_ma():
    # np.unique imports numpy.ma, which would add about 1 MB to the
    # process
    script = ("import sys\n"
              "from tensq import build_nu, get_group\n"
              "build_nu(get_group('A4'))\n"
              "print('numpy.ma' in sys.modules)\n")
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _reduce_scalar(word):
    """A word's letters, freely then cyclically reduced, padded with -1."""
    out = []
    for letter in word:
        if letter < 0:
            continue
        if out and out[-1] == letter ^ 1:
            out.pop()
        else:
            out.append(letter)
    while len(out) > 1 and out[0] == out[-1] ^ 1:
        out = out[1:-1]
    return out + [-1] * (3 - len(out))


@pytest.mark.parametrize("holes", range(8))
def test_reduce_matches_a_scalar_reduction(holes):
    # every word over the letters of two symbols, with slot i made no
    # letter where bit i of ``holes`` is set
    words = np.array(list(np.ndindex(4, 4, 4)), dtype=np.int64)
    words[:, [bool(holes >> i & 1) for i in range(3)]] = -1
    got = tietze._reduce(words.copy())
    assert got.tolist() == [_reduce_scalar(w) for w in words.tolist()]


def test_first_occurrences_keep_the_first_of_each_class():
    _, rows, _ = _reduction("S3")
    words = tietze._reduce(tietze._letters(rows))
    keep = tietze._first_occurrences(words)
    first = {}
    for i, word in enumerate(words.tolist()):
        letters = [x for x in word if x >= 0]
        if letters:
            turns = [letters[k:] + letters[:k] for k in range(len(letters))]
            inverse = [x ^ 1 for x in reversed(letters)]
            turns += [inverse[k:] + inverse[:k] for k in range(len(letters))]
            first.setdefault(min(map(tuple, turns)), i)
    assert keep.tolist() == sorted(first.values())
