import argparse
import hashlib
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import time
import types

import pytest

import tensq
import tensq.symbol
import tensq.tietzecert
from tensq import (FiniteGroup, catalog, get_group, get_presentation,
                   resolve_group, tc_enumerate)
from tensq.cache import (_header, cache_key, cache_load, cache_store,
                         source_digest)
from tensq import cli
from tensq.cli import main
from tensq.report import Report, canonical_json


class TestCatalog:
    def test_at_least_twelve_entries(self):
        assert len(catalog()) >= 12

    def test_orders_match_groups(self):
        for name, entry in catalog().items():
            assert get_group(name).order() == entry.order, name

    def test_presentations_match_generators(self):
        # the permutation generators satisfy every relator, in order
        for name in catalog():
            pres = get_presentation(name)
            if pres is None:
                continue
            g = get_group(name)
            assert pres.ngens == len(g.generators), name
            # letter 2i is generator i, 2i + 1 its inverse
            images = [x for s in g.generators for x in (s, s.inverse())]
            for rel in pres.relators:
                img = g.identity
                for x in rel:
                    img = img * images[x]
                assert img.is_identity(), (name, rel)

    def test_presentations_enumerate_to_group_order(self):
        for name, entry in catalog().items():
            pres = get_presentation(name)
            if pres is None:
                continue
            assert tc_enumerate(pres.letters()).coset_count == \
                entry.order, name

    def test_names_resolve(self):
        g, pres, desc = resolve_group("D4")
        assert g.order() == 8 and pres is not None
        assert desc == {"kind": "catalog", "name": "D4"}

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            resolve_group("Nope")


class TestFileInputs:
    def test_perm_file(self, tmp_path):
        path = tmp_path / "klein.perm"
        path.write_text("degree 4\n(0 1)\n(2 3)\n")
        g, pres, desc = resolve_group(f"@{path}")
        assert g.order() == 4 and pres is None
        assert desc["kind"] == "perm-file"

    def test_pres_file(self, tmp_path):
        path = tmp_path / "sym3.pres"
        path.write_text("gens: a b\nrels: a^2, b^2, (a b)^3\n")
        g, pres, desc = resolve_group(f"@{path}")
        assert g.order() == 6 and pres is not None

    def test_bad_extension(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("degree 2\n(0 1)\n")
        with pytest.raises(ValueError):
            resolve_group(f"@{path}")


class TestCache:
    def test_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TENSQ_CACHE_DIR", str(tmp_path))
        key = cache_key({"x": 1}, "0.1.0")
        assert cache_load(key) is None          # cold
        cache_store(key, '{"a": 1}\n')
        assert cache_load(key) == '{"a": 1}\n'

    def test_version_bump_changes_key(self):
        assert cache_key({"x": 1}, "0.1.0") != cache_key({"x": 1}, "0.2.0")

    def test_key_is_the_sha256_of_the_canonical_json(self):
        body = canonical_json({"payload": {"x": 1}, "version": "0.1.0"})
        key = cache_key({"x": 1}, "0.1.0")
        assert key == hashlib.sha256(body.encode("utf-8")).hexdigest()
        assert key == ("1b1cc3c4a56a10989b11e5f77cd9a57d"
                       "42c31a8b7e5a7c733c828361a0ec9b2f")
        # as the hashlib-based cache keyed a tensor D4 report
        assert cache_key({"command": "tensor",
                          "group": {"kind": "catalog", "name": "D4"}},
                         "0.2.0") == ("f158f176e383a3b9c29f20443e73343b"
                                      "34bfced413e85b794682c13b80087f51")

    def test_header_and_source_digests_are_sha256(self):
        report = '{"a": 1}\n'
        assert _header("k", report) == (
            "tensq-cache 2 k " + hashlib.sha256(report.encode()).hexdigest())
        sources = hashlib.sha256()
        for path in sorted(pathlib.Path(tensq.__file__).parent.glob("*.py")):
            sources.update(path.read_bytes())
        assert source_digest() == sources.hexdigest()

    def test_corrupt_entry_ignored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TENSQ_CACHE_DIR", str(tmp_path))
        key = cache_key({"x": 2}, "0.1.0")
        cache_store(key, '{"a": 1}\n')
        victim = tmp_path / (key + ".json")
        victim.write_text("garbage\n")
        with pytest.warns(UserWarning):
            assert cache_load(key) is None


class TestReports:
    def test_canonical_json_is_sorted(self):
        r = Report(command="x", input={"b": 1, "a": 2}, results={},
                   version="0.1.0")
        text = r.to_json()
        assert text.index('"a"') < text.index('"b"')


class TestCli:
    def run(self, *argv):
        return main(list(argv))

    def test_catalog_list(self, capsys):
        assert self.run("catalog", "list") == 0
        out = capsys.readouterr().out
        assert "D4" in out and "Heis3" in out

    def test_tensor_c2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("TENSQ_CACHE_DIR", str(tmp_path / "cache"))
        report_path = tmp_path / "r.json"
        assert self.run("tensor", "C2", "--json", str(report_path)) == 0
        data = json.loads(report_path.read_text())
        assert data["schema"] == 1
        assert data["results"]["tensor_order"] == 2
        assert data["results"]["nu_order"] == 8
        # second run hits the cache
        capsys.readouterr()
        assert self.run("tensor", "C2") == 0
        assert capsys.readouterr().out == (
            "tensor C2: tensor order 2, nu order 8, mu order 2, "
            "abelian=True (cached)\n")

    def test_cache_hit_report(self, tmp_path, monkeypatch):
        # a hit reports its own time and marks it; results are unchanged
        monkeypatch.setenv("TENSQ_CACHE_DIR", str(tmp_path / "cache"))
        cold, warm = tmp_path / "cold.json", tmp_path / "warm.json"
        for path in (cold, warm):
            assert self.run("lie", "D4", "-p", "2", "--json", str(path)) == 0
        c, w = json.loads(cold.read_text()), json.loads(warm.read_text())
        assert "cache" not in c["timing"]
        assert w["timing"]["cache"] == "hit"
        assert w["timing"]["seconds"] != c["timing"]["seconds"]
        c.pop("timing"), w.pop("timing")
        assert canonical_json(c) == canonical_json(w)

    def test_cold_run_encodes_its_report_once(self, tmp_path, monkeypatch):
        # the cache entry's body and the --json file are the same bytes,
        # from one to_json call
        cache = tmp_path / "cache"
        monkeypatch.setenv("TENSQ_CACHE_DIR", str(cache))
        calls = []
        to_json = Report.to_json

        def counted(report, *args, **kwargs):
            calls.append(report.command)
            return to_json(report, *args, **kwargs)

        monkeypatch.setattr(Report, "to_json", counted)
        path = tmp_path / "r.json"
        assert self.run("lie", "C4", "-p", "2", "--json", str(path)) == 0
        assert calls == ["lie"]
        [entry] = cache.glob("*.json")
        assert cache_load(entry.stem).encode() == path.read_bytes()

    @pytest.mark.parametrize("damage", ["truncate", "empty-results",
                                        "undecodable"])
    def test_damaged_cache_body_recomputed(self, tmp_path, monkeypatch,
                                           damage):
        cache = tmp_path / "cache"
        monkeypatch.setenv("TENSQ_CACHE_DIR", str(cache))
        assert self.run("tensor", "C2") == 0
        [entry] = cache.glob("*.json")
        header, _, body = entry.read_text().partition("\n")
        results = json.loads(body)["results"]
        damaged = {"truncate": body[:len(body) // 2].encode(),
                   "empty-results": b'{"results": {}}\n',
                   "undecodable": body.encode()[:-2] + b"\xff\n"}[damage]
        entry.write_bytes(header.encode() + b"\n" + damaged)
        with pytest.warns(UserWarning):
            assert self.run("tensor", "C2") == 0
        rewritten = cache_load(entry.stem)
        assert rewritten is not None
        assert json.loads(rewritten)["results"] == results

    @pytest.mark.parametrize("blocker", ["file-above", "dir-at-entry"])
    def test_failed_cache_write_keeps_the_result(self, tmp_path,
                                                 monkeypatch, capsys,
                                                 blocker):
        # a cache that cannot be written warns; the run exits and writes
        # its report as if the store had worked
        argv = ("lie", "C4", "-p", "2")
        want = tmp_path / "want.json"
        assert self.run(*argv, "--no-cache", "--json", str(want)) == 0
        cache = tmp_path / "cache"
        if blocker == "file-above":
            (tmp_path / "file").write_text("")
            cache = tmp_path / "file" / "sub"
        else:
            monkeypatch.setenv("TENSQ_CACHE_DIR", str(cache))
            assert self.run(*argv) == 0
            [entry] = cache.glob("*.json")
            entry.unlink()
            entry.mkdir()
        monkeypatch.setenv("TENSQ_CACHE_DIR", str(cache))
        capsys.readouterr()
        got = tmp_path / "got.json"
        with pytest.warns(UserWarning, match="could not write cache entry"):
            assert self.run(*argv, "--json", str(got)) == 0
        assert capsys.readouterr().out == \
            "lie C4 (p=2): dims [1, 1], class 1, ok\n"
        g, w = json.loads(got.read_text()), json.loads(want.read_text())
        g.pop("timing"), w.pop("timing")
        assert canonical_json(g) == canonical_json(w)
        assert not list(cache.parent.glob("**/*.tmp"))

    def test_nu_runs_route_check(self, tmp_path):
        report_path = tmp_path / "nu.json"
        assert self.run("nu", "C2", "--no-cache", "--json",
                        str(report_path)) == 0
        data = json.loads(report_path.read_text())
        assert data["results"]["route_independence"]["passed"] is True

    def test_nu_explicit_mode(self):
        assert self.run("nu", "C2", "--mode", "all", "--no-cache") == 0

    def test_verify_s3(self):
        assert self.run("verify", "S3", "--lemmas",
                        "i..v,closed,decomp,rho") == 0

    def test_verify_lemma_subset(self):
        assert self.run("verify", "C2", "--lemmas", "ii..iv") == 0

    def test_verify_runs_a_repeated_lemma_once(self, capsys, tmp_path):
        report_path = tmp_path / "verify.json"
        assert self.run("verify", "C2", "--lemmas", "i,i..ii,closed,closed",
                        "--json", str(report_path)) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("PASS")] == [
            "PASS  nu-relations: relation (i)",
            "PASS  nu-relations: relation (ii)",
            "PASS  tensor-set-closed: X is a normal subset",
            "PASS  tensor-set-closed: X is commutator-closed, elementwise",
            "PASS  tensor-set-closed: X generates the tensor subgroup"]
        reports = json.loads(report_path.read_text())["results"]["reports"]
        assert [r["name"] for r in reports] == ["nu-relations",
                                                "tensor-set-closed"]

    def test_parser_built_once(self, monkeypatch):
        built, init = [], argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        cli.build_parser.cache_clear()
        try:
            assert self.run("catalog", "list") == 0
            once = len(built)
            assert self.run("catalog", "list") == 0
            assert once > 0 and len(built) == once
        finally:
            cli.build_parser.cache_clear()

    @pytest.mark.parametrize("argv", [
        ("tensor", "C2", "--mode", "all"),
        *[(*command, "--seed", "1") for command in (
            ("tensor", "C2"), ("nu", "C2"),
            ("engel", "C2", "-p", "2", "-m", "1", "-n", "1"),
            ("lie", "C4", "-p", "2"),
            ("identity-f", "C2", "-n", "1", "-p", "2", "-m", "1"))],
        ("lie", "C4", "-p", "2", "--max-group", "27"),
        ("identity-f", "C2", "-n", "1", "-p", "2", "-m", "1",
         "--max-group", "27"),
        # only tensor, nu and lie read the result cache
        ("verify", "C2", "--no-cache"),
        ("engel", "C2", "-p", "2", "-m", "1", "-n", "1", "--no-cache"),
        ("identity-f", "C2", "-n", "1", "-p", "2", "-m", "1",
         "--no-cache"),
        # only nu and verify build nu(G), so only they read the cap
        ("tensor", "C2", "--max-group", "27"),
        ("engel", "C2", "-p", "2", "-m", "1", "-n", "1",
         "--max-group", "27"),
        # verify checks every tuple: it takes no sample count and no cap
        ("verify", "C2", "--samples", "1000"),
        ("verify", "C2", "--exhaustive-cap", "27")])
    def test_option_a_command_does_not_read_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            self.run(*argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("tensor", "C2"), ("nu", "C2"), ("lie", "C4", "-p", "2")])
    def test_no_cache_runs_without_the_cache(self, tmp_path, monkeypatch,
                                             argv):
        cache = tmp_path / "cache"
        monkeypatch.setenv("TENSQ_CACHE_DIR", str(cache))
        assert self.run(*argv, "--no-cache") == 0
        assert not list(cache.glob("*.json"))
        assert self.run(*argv) == 0
        assert len(list(cache.glob("*.json"))) == 1

    def test_options_a_command_reads_still_parse(self):
        parser = cli.build_parser()
        assert parser.parse_args(["verify", "C2", "--seed", "3"]).seed == 3
        for command in ("nu", "verify"):
            assert parser.parse_args([command, "Heis3", "--max-group",
                                      "27"]).max_group == 27
        assert parser.parse_args(["nu", "C2"]).max_group == \
            tensq.nu.DEFAULT_GROUP_CAP
        # the commands that take --no-cache read the cache unless it is
        # passed; the others never read it
        for argv, no_cache in [(["tensor", "C2"], False),
                               (["tensor", "C2", "--no-cache"], True),
                               (["engel", "C2", "-p", "2", "-m", "1",
                                 "-n", "1"], True)]:
            assert parser.parse_args(argv).no_cache is no_cache, argv

    def test_report_records_the_seed_sampled_with(self, tmp_path):
        # verify records its --seed, 0 by default, though no check reads
        # it; no other command takes one
        for argv, seed in [(("verify", "C2", "--lemmas", "i"), 0),
                           (("tensor", "C2", "--no-cache"), None)]:
            out = tmp_path / "r.json"
            assert self.run(*argv, "--json", str(out)) == 0
            assert json.loads(out.read_text())["seed"] == seed, argv

    def test_entry_cached_by_other_code_is_a_miss(self, tmp_path,
                                                  monkeypatch, capsys):
        # an older tree ran q = 2 and 4 for --lazard 0 and passed
        monkeypatch.setenv("TENSQ_CACHE_DIR", str(tmp_path))
        desc = resolve_group("D4")[2]
        payload = {"input": desc, "command": "lie", "p": 2, "lazard": 0}
        stale = Report(command="lie", input=desc, version="0.2.0",
                       results={"passed": True, "graded_dimensions": [2],
                                "nilpotency_class": 1})
        cache_store(cache_key(payload, "0.2.0"), stale.to_json())
        assert self.run("lie", "D4", "-p", "2", "--lazard", "0") == 2
        assert "q must be positive" in capsys.readouterr().err

    def test_verify_bad_lemma_token(self, capsys):
        assert self.run("verify", "C2", "--lemmas", "vi") == 2
        assert "unknown lemma" in capsys.readouterr().err

    @pytest.mark.parametrize("lemmas", ["v..i,closed", "v..i", "ii..vi"])
    def test_verify_bad_lemma_range(self, monkeypatch, capsys, lemmas):
        # a reversed range is an error, not a range of no lemma
        def build_nu(*args, **kwargs):
            raise AssertionError("build_nu called before the usage check")
        monkeypatch.setattr(tensq.nu, "build_nu", build_nu)
        assert self.run("verify", "C2", "--lemmas", lemmas) == 2
        assert capsys.readouterr().err == \
            f"error: bad lemma range {lemmas.split(',')[0]!r}\n"

    @pytest.mark.parametrize("argv", [("D5", "--lemmas", ""),
                                      ("D5", "--lemmas", ",,"),
                                      ("S3", "--lemmas", ",")])
    def test_verify_rejects_a_run_that_checks_nothing(self, monkeypatch,
                                                      capsys, argv):
        def build_nu(*args, **kwargs):
            raise AssertionError("build_nu called before the usage check")
        monkeypatch.setattr(tensq.nu, "build_nu", build_nu)
        assert self.run("verify", *argv) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: --")

    def test_engel(self):
        assert self.run("engel", "C2", "-p", "2", "-m", "1", "-n", "1") == 0

    def test_lie(self, tmp_path):
        report_path = tmp_path / "lie.json"
        assert self.run("lie", "D4", "-p", "2", "--no-cache", "--json",
                        str(report_path)) == 0
        data = json.loads(report_path.read_text())
        assert data["results"]["graded_dimensions"] == [2, 1]
        assert data["results"]["series_matches_recursion"] is True

    def test_lie_rejects_wrong_prime(self):
        assert self.run("lie", "D4", "-p", "3", "--no-cache") == 2

    @pytest.mark.parametrize("q,message", [("0", "q must be positive"),
                                           ("3", "q = 3 is not a power")])
    def test_lie_rejects_a_lazard_q_off_the_powers_of_p(self, capsys, q,
                                                        message):
        # --lazard 0 is a q of its own, not the default q = p, p^2
        assert self.run("lie", "D4", "-p", "2", "--lazard", q,
                        "--no-cache") == 2
        assert message in capsys.readouterr().err

    def test_identity_f(self):
        assert self.run("identity-f", "S3", "-n", "2", "-p", "2",
                        "-m", "1") == 0

    def test_failed_check_exit_1(self, tmp_path):
        # S4's stacked word genuinely fails at these parameters
        report_path = tmp_path / "f.json"
        assert self.run("identity-f", "S4", "-n", "1", "-p", "2", "-m", "1",
                        "--json", str(report_path)) == 1
        assert json.loads(report_path.read_text())["results"]["holds"] \
            is False

    def test_unsatisfied_scan_exit_1(self):
        # at depth 1 (centrality), 2-power powers of order-divisible-
        # by-3 tensors in nu(S3) never work
        assert self.run("engel", "S3", "-p", "2", "-m", "1", "-n", "1") == 1

    def test_unknown_group_exit_2(self):
        assert self.run("tensor", "Nope", "--no-cache") == 2

    def test_limit_error_exit_2(self, capsys):
        assert self.run("nu", "S4", "--no-cache") == 2   # over the cap
        assert "error: |G| = 24 exceeds the nu-construction cap 16; raise " \
            "it with --max-group" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,verdict", [
        (("tensor", "Heis3", "--no-cache"), "tensor order 729"),
        (("engel", "Heis3", "-p", "3", "-m", "1", "-n", "2"),
         "all pairs satisfied")], ids=["tensor", "engel"])
    def test_tensor_and_engel_run_past_the_cap(self, capsys, argv, verdict):
        # both read G (x) G alone and build no nu(G)
        assert self.run(*argv) == 0
        assert verdict in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [("nu", "Heis3", "--no-cache"),
                                      ("verify", "Heis3")])
    def test_nu_builds_exit_2_on_the_cap(self, capsys, argv):
        start = time.monotonic()
        assert self.run(*argv) == 2
        assert time.monotonic() - start < 1.0
        assert "error: |G| = 27 exceeds the nu-construction cap 16; raise " \
            "it with --max-group" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,rc,enumerations", [
        (("verify", "D4"), 0, 1),
        (("verify", "D4", "--lemmas", "closed"), 0, 1),
        (("verify", "C3", "--lemmas", "rho"), 0, 1),
        (("verify", "Heis3"), 2, 0),
        (("verify", "Heis3", "--lemmas", "i..v"), 0, 1),
        (("verify", "C2"), 0, 1),
        (("verify", "C5", "--lemmas", "i,closed"), 0, 1)])
    def test_verify_enumerates_once(self, monkeypatch, capsys, argv, rc,
                                    enumerations):
        # the relation families read G (x) G, and the symbol route
        # assembles nu(G) from its columns, on cyclic groups too; over
        # the cap nothing is enumerated, unless only the families, which
        # read no cap, run
        calls = []
        enumerate_ = tensq.coset.tc_enumerate

        def counting(*args, **kwargs):
            calls.append(args[0])
            return enumerate_(*args, **kwargs)
        # catalog enumerates a .pres file through the coset module
        for module in ("tensq.coset", "tensq.nu", "tensq.symbol"):
            monkeypatch.setattr(sys.modules[module], "tc_enumerate",
                                counting)
        assert self.run(*argv) == rc
        assert len(calls) == enumerations
        if rc:
            assert "exceeds the nu-construction cap 16" in \
                capsys.readouterr().err

    @pytest.mark.parametrize("budget,rc", [(1024, 0), (1023, 2)])
    def test_relator_budget(self, monkeypatch, capsys, budget, rc):
        # D4 has 2 * 8^3 = 1024 relators; over budget, neither G's n x n
        # arrays nor its relators are built
        monkeypatch.setattr(tensq.symbol, "_MAX_RELATOR_ROWS", budget)
        if rc:
            _refuse_group_arrays(monkeypatch)
        assert self.run("tensor", "D4", "--no-cache") == rc
        if rc:
            assert "limit error: symbol relator limit 1023 exceeded: " \
                "|G| = 8 has 1024 relators" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [("tensor", "--no-cache"),
                                         ("engel", "-p", "2", "-m", "1",
                                          "-n", "1")],
                             ids=["tensor", "engel"])
    def test_group_past_the_relator_budget_exits_2_at_once(
            self, monkeypatch, capsys, tmp_path, command):
        # S6 has 2 * 720^3 relators; its arrays are never built
        path = tmp_path / "sym6.perm"
        path.write_text("degree 6\n(0 1)\n(0 1 2 3 4 5)\n")
        _refuse_group_arrays(monkeypatch)
        name, *flags = command
        assert self.run(name, f"@{path}", *flags) == 2
        assert "limit error: symbol relator limit 1100000 exceeded: " \
            "|G| = 720 has 746496000 relators (none built)" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("budget,rc", [(2048, 0), (2047, 2)])
    def test_symbol_column_budget(self, monkeypatch, capsys, budget, rc):
        # |D4 (x) D4| = 32 points times 64 symbols is 2048 entries
        monkeypatch.setattr(tensq.symbol, "_MAX_SYMBOL_ENTRIES", budget)
        if rc:
            def symbol_columns(table, reduction):
                raise AssertionError("columns allocated over the budget")
            monkeypatch.setattr(tensq.tietzecert, "symbol_columns",
                                symbol_columns)
        assert self.run("engel", "D4", "-p", "2", "-m", "1", "-n", "1") == rc
        if rc:
            assert "limit error: symbol column limit 2047 entries " \
                "exceeded: |G (x) G| = 32 points times 64 symbols" in \
                capsys.readouterr().err

    def test_time_limit_stops_the_relator_check(self, monkeypatch, capsys):
        # the enumeration, run unlimited, spends the whole time limit; the
        # check shares its deadline, so it stops before its first block
        enumerate_ = tensq.symbol.tc_enumerate

        def slow(pres, limits):
            table = enumerate_(pres)
            time.sleep(limits.time_limit + 0.05)
            return table
        monkeypatch.setattr(tensq.symbol, "tc_enumerate", slow)
        assert self.run("tensor", "D4", "--time-limit", "0.1",
                        "--no-cache") == 2
        assert "limit error: time limit exceeded in the relator check (0 " \
            "of 1024 relators checked by the enumeration's deadline)" in \
            capsys.readouterr().err

    def test_table_memory_limit_exit_2(self, monkeypatch, capsys):
        # nu(D4) on the all route outgrows the first 1024 rows
        monkeypatch.setattr(tensq.coset, "_MAX_TABLE_BYTES", 200_000)
        assert self.run("nu", "D4", "--mode", "all", "--no-cache") == 2
        err = capsys.readouterr().err
        assert "limit error: table memory limit 200000 bytes exceeded" in err
        assert "cosets defined" in err

    @pytest.mark.parametrize("limit", [("--time-limit", "0.01"),
                                       ("--max-cosets", "10")])
    def test_pres_file_obeys_limits(self, tmp_path, capsys, limit):
        # the default limits would let this enumeration run for 60 s
        path = tmp_path / "C.pres"
        path.write_text("gens: a\nrels: a^40000\n")
        start = time.monotonic()
        assert self.run("tensor", f"@{path}", *limit, "--no-cache") == 2
        assert time.monotonic() - start < 1.0
        assert "limit error:" in capsys.readouterr().err

    def test_engel_rejects_p_before_building_nu(self, monkeypatch, capsys):
        def build_nu(*args, **kwargs):
            raise AssertionError("build_nu called before -p was checked")
        monkeypatch.setattr(tensq.nu, "build_nu", build_nu)
        monkeypatch.setattr(tensq.nu, "tensor_module", build_nu)
        assert self.run("engel", "C3xC3", "-p", "4", "-m", "1",
                        "-n", "1") == 2
        assert "p must be prime" in capsys.readouterr().err

    @pytest.mark.parametrize("p", ["0", "1", "4", "9"])
    @pytest.mark.parametrize("command", [("engel", "C2", "-m", "1", "-n", "1"),
                                         ("lie", "C2", "--no-cache"),
                                         ("identity-f", "C2", "-n", "1",
                                          "-m", "1")])
    def test_non_prime_p_exit_2(self, capsys, command, p):
        assert self.run(*command, "-p", p) == 2
        assert "p must be prime" in capsys.readouterr().err

    def test_invariant_failure_exit_1(self, monkeypatch, capsys):
        monkeypatch.setattr(FiniteGroup, "normal_closure",
                            lambda self, gens: self.trivial_subgroup())
        assert self.run("tensor", "S3", "--no-cache") == 1
        assert "order law fails" in capsys.readouterr().err

    def test_golden_examples_current(self, tmp_path):
        # docs/examples/ must match what the CLI produces now, up to timing
        import pathlib
        docs = pathlib.Path(__file__).resolve().parent.parent / "docs" / \
            "examples"
        for args, golden in [
            (["tensor", "C2", "--no-cache"], "tensor.json"),
            (["nu", "C2", "--no-cache"], "nu.json"),
            (["verify", "C2", "--lemmas", "i..v,closed,decomp,rho",
              "--seed", "0"], "verify.json"),
            (["engel", "C2", "-p", "2", "-m", "1", "-n", "1"], "engel.json"),
            (["lie", "C4", "-p", "2", "--no-cache"], "lie.json"),
            (["catalog", "list"], "catalog.json"),
            (["identity-f", "C2", "-n", "1", "-p", "2", "-m", "1"],
             "identity-f.json"),
        ]:
            out = tmp_path / golden
            assert self.run(*args, "--json", str(out)) == 0
            got = json.loads(out.read_text())
            want = json.loads((docs / golden).read_text())
            got.pop("timing", None), want.pop("timing", None)
            assert canonical_json(got) == canonical_json(want), golden

    def test_determinism_modulo_timing(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        for p in (p1, p2):
            assert self.run("verify", "C3xC3", "--lemmas", "i..v", "--seed",
                            "11", "--json", str(p)) == 0
        d1 = json.loads(p1.read_text())
        d2 = json.loads(p2.read_text())
        d1.pop("timing"), d2.pop("timing")
        assert canonical_json(d1) == canonical_json(d2)

    @pytest.mark.parametrize("name, seed, order", [("S3", 1, 216),
                                                   ("D4", 2, 2048)])
    def test_nu_checks_the_routes_of_a_perm_file(self, tmp_path, name, seed,
                                                 order):
        # a .perm file has no presentation for the gens route; the all
        # and symbol routes need only G
        path = _seeded_perm_file(tmp_path, name, seed)
        report = tmp_path / "nu.json"
        assert self.run("nu", f"@{path}", "--no-cache", "--json",
                        str(report)) == 0
        results = json.loads(report.read_text())["results"]
        assert (results["nu_order"], results["mode"]) == (order, "all")
        check = results["route_independence"]
        assert check["passed"] and results["passed"]
        assert [c["details"]["all"] == c["details"]["symbol"]
                and "gens" not in c["details"] for c in check["checks"]] \
            == [True] * 4

    def test_perm_route_check_catches_a_wrong_symbol_route(self, tmp_path,
                                                           monkeypatch,
                                                           capsys):
        real = tensq.nu.build_nu

        def wrong(group, presentation=None, mode="symbol", **kwargs):
            # the symbol route builds nu(C2), of order 8, instead
            if mode == "symbol":
                group = get_group("C2")
            return real(group, presentation, mode, **kwargs)

        monkeypatch.setattr(tensq.nu, "build_nu", wrong)
        path = _seeded_perm_file(tmp_path, "S3", 1)
        capsys.readouterr()
        assert self.run("nu", f"@{path}", "--no-cache") == 1
        assert capsys.readouterr().out == \
            f"nu @{path}: order 216 (route independence: FAILED)\n"

    def test_gens_mode_without_presentation_exit_2(self, tmp_path):
        path = tmp_path / "klein.perm"
        path.write_text("degree 4\n(0 1)\n(2 3)\n")
        assert self.run("nu", f"@{path}", "--mode", "gens",
                        "--no-cache") == 2

    @pytest.mark.parametrize("argv", [("tensor", "--no-cache"),
                                      ("lie", "-p", "2", "--no-cache"),
                                      ("verify",)],
                             ids=["tensor", "lie", "verify"])
    def test_perm_file_without_generators_is_trivial(self, tmp_path, argv):
        # "degree N" alone presents the trivial group, as with a () line
        results = []
        for name, text in (("bare", "degree 4\n"),
                           ("identity", "degree 4\n()\n")):
            path, report = tmp_path / f"{name}.perm", tmp_path / "r.json"
            path.write_text(text)
            assert self.run(argv[0], f"@{path}", *argv[1:], "--json",
                            str(report)) == 0
            results.append(json.loads(report.read_text())["results"])
        assert results[0] == results[1]


def _seeded_perm_file(directory, name, seed):
    """The catalog group ``name`` written to a .perm file with its points
    relabelled and its generators reordered by a seeded shuffle."""
    entry = catalog()[name]
    rng = random.Random(seed)
    points = list(range(entry.degree))
    rng.shuffle(points)
    gens = list(entry.perm_gens)
    rng.shuffle(gens)
    relabelled = [re.sub(r"\d+", lambda m: str(points[int(m[0])]), g)
                  for g in gens]
    path = directory / f"{name}-{seed}.perm"
    path.write_text("\n".join([f"degree {entry.degree}", *relabelled])
                    + "\n")
    return path


def _refuse_group_arrays(monkeypatch):
    """Make building G's n x n arrays or its relators, wherever they are
    built, fail the test at once."""
    def refuse(*args):
        raise AssertionError("built over the relator budget")
    for module, name in [(tensq.symbol, "group_arrays"),
                         (tensq.nu, "group_arrays"),
                         (tensq.symbol, "symbol_relators")]:
        monkeypatch.setattr(module, name, refuse)


def _fresh_interpreter(code, tmp_path, *args):
    """Run ``code`` in a new Python process that imports this tensq, with
    the result cache under ``tmp_path``; returns its stdout."""
    path = [os.path.dirname(os.path.dirname(tensq.__file__)),
            os.environ.get("PYTHONPATH")]
    env = dict(os.environ, TENSQ_CACHE_DIR=str(tmp_path),
               PYTHONPATH=os.pathsep.join(p for p in path if p))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          check=True, capture_output=True, text=True,
                          timeout=300)
    return done.stdout


def test_tensor_c3xc3_peak_rss(tmp_path):
    # nu(C3xC3) has 6561 elements; an eager Cayley table of it alone is
    # 86 MB, and the process peaked at about 125 MB with one.  tensq
    # tensor reads C3xC3 (x) C3xC3 alone, so tensq nu builds nu(C3xC3)
    # here.  The peak is read from VmHWM: a child's ru_maxrss starts
    # from the peak of the process that forked it, here the test
    # runner's.
    code = ("import sys\n"
            "from tensq.cli import main\n"
            "rc = main(['nu', 'C3xC3', '--mode', 'symbol', '--no-cache'])\n"
            "with open('/proc/self/status') as fh:\n"
            "    print([l for l in fh if l.startswith('VmHWM')][0])\n"
            "sys.exit(rc)\n")
    label, kib, unit = _fresh_interpreter(code, tmp_path).split()[-3:]
    assert (label, unit) == ("VmHWM:", "kB")
    assert int(kib) < 90 * 1024


@pytest.mark.parametrize("argv", [
    "nu C4 --mode all --no-cache",
    "verify C2",
    "engel C2 -p 2 -m 1 -n 1",
    "identity-f C4 -n 1 -p 2 -m 1",
    "tensor C2",
    "lie C4 -p 2",
])
def test_no_command_loads_hashlib(tmp_path, argv):
    # hashlib loads OpenSSL's libcrypto (about 3.5 MB resident); the
    # cache digests with CPython's built-in SHA-256, and only a command
    # that consults the cache loads that.  A new interpreter per run,
    # since this one has imported hashlib already.
    code = ("import sys\n"
            "from tensq.cli import main\n"
            "rc = main(sys.argv[1:])\n"
            "print('_hashlib' in sys.modules,\n"
            "      '_sha2' in sys.modules or '_sha256' in sys.modules)\n"
            "sys.exit(rc)\n")
    reads_cache = argv.split()[0] in ("tensor", "lie")
    # a cached command runs twice on one cache: a miss, then a hit
    for hit in (False, True) if reads_cache else (False,):
        out = _fresh_interpreter(code, tmp_path, *argv.split())
        *lines, flags = out.splitlines()
        assert flags == f"False {reads_cache}", (argv, hit)
        assert lines[-1].endswith(" (cached)") == hit, argv


def test_package_exports_only_its_api():
    assert len(set(tensq.__all__)) == len(tensq.__all__) == 64
    for name in tensq.__all__:
        value = getattr(tensq, name)
        assert not isinstance(value, types.ModuleType), name
    namespace = {}
    exec("from tensq import *", namespace)
    assert not [v for v in namespace.values()
                if isinstance(v, types.ModuleType)]


# the tensq modules that a perfbench worker's imports run
_IMPORTED = ["catalog", "cli", "closure", "engel", "errors", "linalg",
             "perm", "permutation", "report"]
# what every command that builds G (x) G or nu(G) runs: no route reads
# verify or nucheck
_NU_STACK = ["coset", "cosetrows", "nu", "nugroup", "symbol"]
# what the symbol route adds: the Tietze reduction, its certificates
# and the crossed module
_SYMBOL_ROUTE = ["crossed", "tietze", "tietzecert"]


@pytest.mark.parametrize("argv, rc, ran", [
    # the imports of a perfbench worker
    ("", None, []),
    ("nu @C4.perm --mode all --no-cache", 0, _NU_STACK),
    # C4's catalog presentation is parsed, so words runs too, and with
    # it coset, whose letter rows words builds
    ("lie C4 -p 2", 0, ["cache", "coset", "cosetrows", "liecheck",
                        "liering", "words"]),
    # tensor takes C2 to C5 on the gens route, with no Tietze reduction
    ("tensor C2", 0, sorted(["cache", *_NU_STACK, "words"])),
    # lie runs both halves of liering, and cache, before it reads the
    # group
    ("lie @missing.perm -p 2", 2, ["cache", "liecheck", "liering"]),
    # the pgroup commands on a .perm group compile no nu(G) code
    ("identity-f @C4.perm -n 2 -p 2 -m 1", 0, []),
    ("lie @C4.perm -p 2 --no-cache", 0, ["liecheck", "liering"]),
    ("library @C4.perm", None, []),
    # tensor runs coset with the stack, before it enumerates the file
    ("tensor @C4.pres --no-cache", 0, sorted([*_NU_STACK, "words"])),
    # both halves of verify; its relation families take the symbol route
    ("verify @C4.perm", 0, sorted([*_NU_STACK, *_SYMBOL_ROUTE, "nucheck",
                                   "verify"])),
])
def test_command_runs_only_the_deferred_modules_it_reads(tmp_path, argv,
                                                         rc, ran):
    # a new interpreter per case, since this one has run them all.  A
    # module has run when it is in sys.modules and not still deferred;
    # "library" calls left_engel_set and fitting_subgroup, as the pgroup
    # benchmark does
    (tmp_path / "C4.perm").write_text("degree 4\n(0 1 2 3)\n")
    (tmp_path / "C4.pres").write_text("gens: a\nrels: a^4\n")
    code = ("import json, os, sys\n"
            "import numpy, tensq.cli, tensq.engel, tensq.catalog\n"
            "def ran():\n"
            "    return {n.removeprefix('tensq.')\n"
            "            for n, m in list(sys.modules.items())\n"
            "            if n.startswith('tensq.')\n"
            "            and not isinstance(m, tensq._Deferred)}\n"
            "imported = ran()\n"
            "if len(sys.argv) > 2:\n"
            "    os.chdir(sys.argv[1])\n"
            "    if sys.argv[3] == 'library':\n"
            "        g = tensq.resolve_group(sys.argv[4])[0]\n"
            "        assert len(tensq.engel.left_engel_set(g, 10)) == 4\n"
            "        assert tensq.engel.fitting_subgroup(g).order() == 4\n"
            "    else:\n"
            "        rc = tensq.cli.main(sys.argv[3:])\n"
            "        assert rc == int(sys.argv[2])\n"
            "print(json.dumps([sorted(imported),\n"
            "                  sorted(ran() - imported)]))\n")
    args = [str(tmp_path), str(rc), *argv.split()] if argv else []
    out = _fresh_interpreter(code, tmp_path, *args)
    assert json.loads(out.splitlines()[-1]) == [_IMPORTED, ran]


def test_every_tracer_target_resolves_after_the_imports(tmp_path):
    # perfbench's tracer takes each target's module from sys.modules
    # after import tensq.cli, and its function or method from there; a
    # moved name that no longer resolves breaks --trace 1
    bench = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench")
    code = ("import json, sys\n"
            "import tensq.cli\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from spans import TARGETS\n"
            "missing = []\n"
            "for module, attr, *_ in TARGETS:\n"
            "    owner = sys.modules.get(module)\n"
            "    for part in attr.split('.'):\n"
            "        owner = getattr(owner, part, None)\n"
            "    if not callable(owner):\n"
            "        missing.append(f'{module}.{attr}')\n"
            "print(json.dumps([len(TARGETS), missing]))\n")
    out = _fresh_interpreter(code, tmp_path, bench)
    count, missing = json.loads(out.splitlines()[-1])
    assert count > 0
    assert missing == []


def test_every_exported_name_is_its_modules_object():
    # the package's names from deferred modules resolve to the objects
    # their modules define, and dir() lists each
    listed = dir(tensq)
    for name in tensq.__all__:
        value = getattr(tensq, name)
        assert getattr(sys.modules[value.__module__], name) is value, name
        assert name in listed, name


def test_deferred_module_runs_once_for_racing_readers(tmp_path):
    # eight threads look up a name of the unrun liering at once: each
    # waits for the one run, and none sees its half-built namespace
    code = ("import sys, threading\n"
            "import tensq\n"
            "sys.setswitchinterval(1e-6)\n"
            "barrier = threading.Barrier(8, timeout=60)\n"
            "got, errors = [], []\n"
            "def read():\n"
            "    barrier.wait()\n"
            "    try:\n"
            "        got.append(tensq.liering.lie_ring)\n"
            "    except Exception as exc:\n"
            "        errors.append(repr(exc))\n"
            "threads = [threading.Thread(target=read) for _ in range(8)]\n"
            "for t in threads:\n"
            "    t.start()\n"
            "for t in threads:\n"
            "    t.join(60)\n"
            "print(errors)\n"
            "print(sum(t.is_alive() for t in threads), len(got),\n"
            "      len({id(f) for f in got}),\n"
            "      got[0] is sys.modules['tensq.liering'].lie_ring)\n")
    errors, counts = _fresh_interpreter(code, tmp_path).splitlines()
    assert errors == "[]"
    # no thread left running; eight reads of one function
    assert counts == "0 8 1 True"


def test_digest_falls_back_to_hashlib(tmp_path):
    # a build without the built-in hashes digests with OpenSSL, to the
    # same key
    code = ("import sys\n"
            "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
            "from tensq.cache import cache_key\n"
            "print(cache_key({'x': 1}, '0.1.0'), '_hashlib' in sys.modules)\n")
    out = _fresh_interpreter(code, tmp_path)
    assert out.split() == [cache_key({"x": 1}, "0.1.0"), "True"]
