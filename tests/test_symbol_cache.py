"""The symbol columns of G (x) G that ``tensor``, ``verify`` and ``engel``
share through the result cache (``tensq.crossed.encode_symbols``).

An entry is keyed on G's multiplication table, read back only once
every relator of the symbol presentation holds on it, and recomputed
with a warning when it is damaged.  A report is the same, outside
``timing``, whether G (x) G was enumerated or read back.
"""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import tensq
import tensq.crossed as crossed
from tensq import get_group, resolve_group
from tensq.cache import cache_load, cache_store
from tensq.catalog import catalog
from tensq.cli import main
from tensq.report import canonical_json
from tensq.symbol import group_arrays

NU_CAPABLE = [n for n, e in catalog().items() if e.order <= 16]
ENGEL_D4 = ("engel", "D4", "-p", "2", "-m", "3", "-n", "2")
_D4 = group_arrays(get_group("D4"))


def _least_prime(n):
    return next((d for d in range(2, n + 1) if n % d == 0), 2)


def _report(tmp_path, *argv):
    """The exit status and the --json report of one run."""
    out = tmp_path / "report.json"
    rc = main([*argv, "--json", str(out)])
    report = json.loads(out.read_text())
    out.unlink()
    return rc, report


def _outside_timing(report):
    return canonical_json({k: v for k, v in report.items() if k != "timing"})


def _entries(cache):
    return sorted(cache.glob("*.json"))


@pytest.fixture
def cache(tmp_path, monkeypatch):
    path = tmp_path / "cache"
    monkeypatch.setenv("TENSQ_CACHE_DIR", str(path))
    return path


@pytest.fixture
def enumerations(monkeypatch):
    """The enumerations of G (x) G the symbol route runs, in a list."""
    calls = []
    enumerate_ = tensq.symbol.tc_enumerate

    def counting(*args, **kwargs):
        calls.append(args[0])
        return enumerate_(*args, **kwargs)
    monkeypatch.setattr(tensq.symbol, "tc_enumerate", counting)
    return calls


@pytest.mark.parametrize("name", NU_CAPABLE)
def test_reports_are_the_same_on_a_miss_a_hit_and_without_the_cache(
        tmp_path, monkeypatch, name):
    p = str(_least_prime(get_group(name).order()))
    for argv in (("verify", name), ("engel", name, "-p", p, "-m", "3",
                                    "-n", "2")):
        monkeypatch.setenv("TENSQ_CACHE_DIR", str(tmp_path / argv[0]))
        runs = [_report(tmp_path, *argv),
                _report(tmp_path, *argv),
                _report(tmp_path, *argv, "--no-cache")]
        assert [rc for rc, _ in runs] == [0, 0, 0], argv
        assert [r["timing"].get("symbols") for _, r in runs] == \
            [None, "cache", None], argv
        assert len({_outside_timing(r) for _, r in runs}) == 1, argv


def test_tensor_verify_and_engel_enumerate_once_between_them(
        cache, enumerations, tmp_path):
    rc, tensor = _report(tmp_path, "tensor", "D4")
    assert rc == 0 and "symbols" not in tensor["timing"]
    assert len(enumerations) == 1
    # verify builds the module whatever lemmas it runs
    for argv in (ENGEL_D4, ("verify", "D4"),
                 ("verify", "D4", "--lemmas", "closed")):
        rc, report = _report(tmp_path, *argv)
        assert rc == 0 and report["timing"]["symbols"] == "cache", argv
    assert len(enumerations) == 1
    # the tensor report and G (x) G's columns
    assert len(_entries(cache)) == 2


def test_a_relabelled_copy_misses(cache, tmp_path):
    # D4 on points 0-3 again, its generators given in the other order:
    # the same group, its elements numbered otherwise
    path = tmp_path / "D4.perm"
    path.write_text("degree 4\n(1 3)\n(0 1 2 3)\n")
    copy, d4 = resolve_group(f"@{path}")[0], get_group("D4")
    assert copy.order() == 8
    assert not np.array_equal(group_arrays(copy)[0], group_arrays(d4)[0])
    rc, want = _report(tmp_path, *ENGEL_D4, "--no-cache")
    assert rc == 0
    assert _report(tmp_path, *ENGEL_D4)[0] == 0
    [entry] = _entries(cache)
    rc, got = _report(tmp_path, "engel", f"@{path}", *ENGEL_D4[2:])
    assert rc == 0 and "symbols" not in got["timing"]
    assert got["results"]["all_pairs_satisfied"]
    assert len(got["results"]["pairs"]) == 64
    assert len(_entries(cache)) == 2
    # D4's own entry is untouched and still read
    rc, again = _report(tmp_path, *ENGEL_D4)
    assert again["timing"]["symbols"] == "cache"
    assert _outside_timing(again) == _outside_timing(want)
    assert entry in _entries(cache)


def _swap_two_kept_columns(body):
    symbols, kept = crossed.decode_symbols(body, _D4)
    by_symbol = np.ascontiguousarray(symbols.T).copy()
    by_symbol[[kept[1], kept[2]]] = by_symbol[[kept[2], kept[1]]]
    head = np.frombuffer(body, dtype="<i4", count=2 + len(kept))
    return head.tobytes() + by_symbol.astype("<i4").tobytes()


def _spoil(damage, path, body):
    """Damage the entry at ``path`` whose body is ``body``; the bodies
    rewritten through ``cache_store`` carry a valid digest."""
    blob = path.read_bytes()
    if damage == "flipped-byte":
        path.write_bytes(blob[:-9] + bytes([blob[-9] ^ 1]) + blob[-8:])
    elif damage == "truncated-file":
        path.write_bytes(blob[:len(blob) // 2])
    elif damage == "truncated-body":
        cache_store(path.stem, body[:-4])
    elif damage == "wrong-shape":
        # 9 kept symbols, not 17
        cache_store(path.stem, body[:4] + (9).to_bytes(4, "little")
                    + body[8:])
    elif damage == "point-out-of-range":
        cache_store(path.stem, body[:-4] + (32).to_bytes(4, "little"))
    else:
        cache_store(path.stem, _swap_two_kept_columns(body))


# each kind of damage, and the warning its reader gives
DAMAGE = {"flipped-byte": "ignoring corrupt cache entry",
          "truncated-file": "ignoring corrupt cache entry",
          "truncated-body": "wrong length or shape",
          "wrong-shape": "wrong length or shape",
          "point-out-of-range": "wrong length or shape",
          "fails-a-relator": "fails a relator"}


@pytest.mark.parametrize("damage", DAMAGE)
def test_a_damaged_entry_is_recomputed_with_a_warning(cache, enumerations,
                                                      tmp_path, damage):
    rc, want = _report(tmp_path, *ENGEL_D4)
    assert rc == 0 and len(enumerations) == 1
    [entry] = _entries(cache)
    body = cache_load(entry.stem)
    assert crossed.decode_symbols(body, _D4) is not None
    _spoil(damage, entry, body)
    with pytest.warns(UserWarning, match=DAMAGE[damage]):
        rc, got = _report(tmp_path, *ENGEL_D4)
    assert rc == 0 and "symbols" not in got["timing"]
    assert len(enumerations) == 2
    assert _outside_timing(got) == _outside_timing(want)
    # the recomputed columns replace the entry, and are read again
    assert cache_load(entry.stem) == body
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, again = _report(tmp_path, *ENGEL_D4)
    assert rc == 0 and again["timing"]["symbols"] == "cache"
    assert len(enumerations) == 2


def test_no_cache_neither_reads_nor_writes_the_entry(cache, enumerations,
                                                     tmp_path):
    assert _report(tmp_path, *ENGEL_D4)[0] == 0
    [entry] = _entries(cache)
    entry.write_bytes(b"garbage\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in (ENGEL_D4, ("verify", "D4"), ("tensor", "D4")):
            rc, report = _report(tmp_path, *argv, "--no-cache")
            assert rc == 0 and "symbols" not in report["timing"]
    assert len(enumerations) == 4
    assert _entries(cache) == [entry]
    assert entry.read_bytes() == b"garbage\n"


def test_the_columns_load_in_the_layout_they_are_built_in(module_of):
    module = module_of("A4")
    symbols, kept = crossed.decode_symbols(crossed.encode_symbols(module),
                                           group_arrays(get_group("A4")))
    assert symbols.flags["F_CONTIGUOUS"] and module.symbols.flags[
        "F_CONTIGUOUS"]
    assert symbols.dtype == module.symbols.dtype
    assert np.array_equal(symbols, module.symbols)
    assert np.array_equal(kept, module.kept)
    assert not symbols.flags["WRITEABLE"]


def test_two_concurrent_writers_leave_one_valid_entry(cache, tmp_path):
    path = [os.path.dirname(os.path.dirname(tensq.__file__)),
            os.environ.get("PYTHONPATH")]
    env = dict(os.environ, TENSQ_CACHE_DIR=str(cache),
               PYTHONPATH=os.pathsep.join(p for p in path if p))
    writers = [subprocess.Popen([sys.executable, "-m", "tensq.cli",
                                 *ENGEL_D4], env=env,
                                stdout=subprocess.DEVNULL)
               for _ in range(2)]
    assert [w.wait(timeout=120) for w in writers] == [0, 0]
    [entry] = _entries(cache)
    assert not list(cache.glob("*.tmp"))
    assert crossed.decode_symbols(cache_load(entry.stem), _D4) is not None
    rc, report = _report(tmp_path, *ENGEL_D4)
    assert rc == 0 and report["timing"]["symbols"] == "cache"
