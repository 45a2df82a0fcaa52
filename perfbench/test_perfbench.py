"""Self-tests of the benchmark: references, inputs, tracer and exit status.

    python3 -m pytest perfbench -q
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_abelian_entries_follow_the_gcd_formula():
    for name, invariants in reference.ABELIAN_TYPE.items():
        order, tensor = reference.NU_REFERENCE[name]
        assert math.prod(invariants) == order, name
        assert reference.gcd_tensor_order(invariants) == tensor, name


def test_generated_groups_have_their_reference_orders():
    from tensq.catalog import catalog
    entries = catalog()
    groups = [workloads.catalog_group(entries[n])
              for n in workloads.CATALOG_P_GROUPS]
    names = workloads.CATALOG_P_GROUPS
    groups += workloads.generated_p_groups(groups[names.index("D4")],
                                           groups[names.index("Heis3")])
    assert [g.name for g in groups] == list(reference.P_GROUPS)
    for g in groups:
        assert len(workloads.closure(g.gens, g.degree)) == \
            reference.P_GROUPS[g.name][0], g.name


def test_inputs_depend_only_on_the_seed(tmp_path):
    from tensq.catalog import catalog

    def files(seed, batch, sub):
        jobs = workloads.build_jobs("pgroup", seed, batch, tmp_path / sub,
                                    catalog(), reference.P_GROUPS)
        texts = {j.group: open(j.path).read() for j in jobs}
        return [j.label for j in jobs], texts

    assert files(3, 0, "a") == files(3, 0, "b")
    assert files(3, 0, "a") != files(4, 0, "c")
    assert files(3, 0, "a")[1] != files(3, 1, "d")[1]


def _span(name, start, end, parent=-1, **counts):
    s = spans.Span(name, start, end, parent, job=[0, 0, "job"])
    s.counts.update(counts)
    return s


def test_self_times_of_a_synthetic_span_tree():
    tree = [
        _span("cli.main", 0.0, 10.0),                        # 0
        _span("nu.build", 1.0, 8.0, 0, elements=64),         # 1
        _span("coset.enum", 2.0, 6.0, 1, cosets=64),         # 2
        _span("coset.verify", 4.0, 5.0, 2, verify_letters=9),  # 3
        _span("perm.to_group", 6.0, 7.5, 1),                 # 4
        _span("perm.cayley", 7.0, 7.5, 4, cayley_bytes=8),   # 5
        _span("report.write", 9.0, 9.5, 0),                  # 6
    ]
    tree[6].error = True
    assert spans.self_times(tree) == pytest.approx(
        [10 - 7 - 0.5, 7 - 4 - 1.5, 4 - 1, 1, 1.5 - 0.5, 0.5, 0.5])
    m = spans.layer_metrics(tree)
    assert m["cli.self_s"] == pytest.approx(2.5)
    assert m["nu.build_self_s"] == pytest.approx(1.5)
    assert m["coset.enum_s"] == pytest.approx(3.0)
    assert m["coset.verify_s"] == pytest.approx(1.0)
    assert m["perm.cayley_s"] == pytest.approx(0.5)
    assert (m["coset.cosets"], m["coset.verify_letters"], m["nu.elements"],
            m["perm.cayley_bytes"]) == (64, 9, 64, 8)
    assert m["report.errors"] == 1 and m["coset.errors"] == 0
    assert set(m) == set(spans.metric_units())


def test_overlapping_children_are_covered_once():
    tree = [_span("cli.main", 0.0, 10.0), _span("nu.build", 1.0, 4.0, 0),
            _span("nu.tensor_report", 3.0, 6.0, 0)]
    assert spans.self_times(tree)[0] == pytest.approx(5.0)


def test_spans_of_several_batches_keep_their_parents():
    import run
    batch = [_span("cli.main", 0.0, 2.0).to_dict(),
             _span("nu.build", 0.5, 1.0, 0).to_dict()]
    joined = run.joined_spans([{"spans": batch}, {}, {"spans": batch}])
    assert [s["parent"] for s in joined] == [-1, 0, -1, 2]


def test_tracer_wraps_every_namespace_and_restores_it(tmp_path,
                                                      monkeypatch):
    import tensq
    import tensq.cli as cli
    import tensq.nu as nu
    original = nu.build_nu
    monkeypatch.setenv("TENSQ_CACHE_DIR", str(tmp_path))
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.build_nu is nu.build_nu is tensq.build_nu
        assert nu.build_nu is not original
        tracer.job = [0, 0, "tensor C2"]
        assert cli.main(["tensor", "C2"]) == 0
        assert cli.main(["tensor", "C2"]) == 0
    finally:
        tracer.uninstall()
    assert cli.build_nu is original and tensq.build_nu is original
    m = spans.layer_metrics(tracer.spans)
    assert m["nu.elements"] == 8 and m["coset.cosets"] >= 8
    assert (m["cache.hits"], m["cache.misses"]) == (1, 1)
    assert m["perm.cayley_bytes"] > 0
    names = {s.name: s for s in tracer.spans}
    enum = names["coset.enum"]
    assert tracer.spans[enum.parent].name == "nu.build"


def _copy_checkout(dest, with_program=True):
    shutil.copytree(HERE, dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    if with_program:
        shutil.copytree(os.path.join(ROOT, "src"), dest / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))


def _patch(path, old, new):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))


def _run(cwd, workload="nu-all"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture
def small_checkout(tmp_path):
    """A checkout whose nu-all batch is only C1, C2 and C4."""
    _copy_checkout(tmp_path)
    _patch(tmp_path / "perfbench" / "workloads.py",
           'names = list(NU_ALL_GROUPS)', 'names = ["C1", "C2", "C4"]')
    return tmp_path


def test_correct_outputs_pass(small_checkout):
    proc = _run(small_checkout)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {"wall_s", "peak_rss_mb", "setup_s"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_a_wrong_reference_entry_fails_the_run(small_checkout):
    _patch(small_checkout / "perfbench" / "reference.py",
           '"C4": (4, 4),', '"C4": (4, 5),')
    proc = _run(small_checkout)
    assert proc.returncode != 0
    result = json.loads(proc.stdout.splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0
    assert "nu C4: tensor order: got 4, want 5" in proc.stderr


def test_refuses_a_directory_without_the_program(tmp_path):
    _copy_checkout(tmp_path, with_program=False)
    proc = _run(tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == \
        list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {
        "wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
    units = spans.metric_units()
    units.update({"trace.wall_s": "s", "trace.overhead_s": "s"})
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == units
