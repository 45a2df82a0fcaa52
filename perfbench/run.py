"""tensq benchmark: seeded workloads through the library and the CLI.

    python3 perfbench/run.py --workload nu-all --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout; tensq is imported from ``./src``.
A run starts one fresh worker process (``worker.py``) per batch of the
workload's jobs, one after another, as one closed-loop client, for
about ``--seconds``; then ``SETUP_PROBES`` more processes that only set
up.  Each batch has its own seeded inputs.  Workloads:

* ``nu-all``   ``tensq nu @G.perm --mode all --no-cache`` per group;
* ``nu-gens``  ``tensq tensor G`` (cold, then a cache hit) per
               nu-capable catalog group, ``verify`` and ``engel`` on
               the smaller ones;
* ``pgroup``   ``lie``, ``identity-f``, ``left_engel_set`` and
               ``fitting_subgroup`` on p-groups of order up to 243.

With ``--trace 0`` the last line of output is the JSON result with the
end-to-end metrics: ``wall_s``, the sum over jobs of each job's fastest
time over the batches; ``peak_rss_mb``, the largest peak RSS of a batch
process; ``setup_s``, the median set-up time of all the processes.  The
fastest time, not the median, because on a shared host the same job's
time swings by up to half within seconds, and the fastest of a run's
batches is the one the other tenants disturbed least.  With
``--trace 1`` every second batch is traced; the result carries the
per-layer metrics (median over traced batches) and the tracing
overhead, and the spans go to
``.perfbench-out/trace-<workload>-<seed>.json``.  The machine, Python
and numpy are printed on the line before.  Every output is checked
against hand-written references; a wrong one fails the job, and any
failed job makes the exit status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = ".perfbench-out"
SETUP_PROBES = 4
OVERRUN = 1.2
RUN_LIMIT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _start_worker(args, tmp, out, deadline, batch=0, traced=False,
                  setup_only=False):
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.path.abspath("src")
    env["PYTHONHASHSEED"] = "0"
    env["TENSQ_CACHE_DIR"] = os.path.join(tmp, "cache")
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--batch", str(batch),
           "--trace", str(int(traced)), "--tmp", tmp, "--out", out]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    subprocess.run(cmd + ["--t0", repr(t0)], env=env, check=True,
                   stdout=subprocess.DEVNULL,
                   timeout=max(1.0, deadline - time.monotonic()))
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def wall(batches):
    """Sum over jobs of each job's fastest time over ``batches``."""
    return sum(min(b["times"][label] for b in batches)
               for label in batches[0]["times"])


def run_batches(args, scratch, deadline):
    """Worker results, one fresh process per batch.  A run makes a fixed
    number of batches, ``--seconds`` over the workload's usual pass
    (``workloads.PASS_S``), because a job's fastest time over more
    batches reads lower: the count must not follow the machine's speed.
    A run stops early only when its passes are so slow that it would
    measure more than ``OVERRUN`` times ``--seconds``.  With
    ``--trace 1`` every second batch is traced."""
    count = max(2, int(args.seconds // workloads.PASS_S[args.workload]))
    results = []
    durations = []
    start = time.monotonic()
    for k in range(count):
        if k >= 2 and time.monotonic() - start + statistics.median(
                durations) > OVERRUN * args.seconds:
            break
        t = time.monotonic()
        results.append(_start_worker(
            args, os.path.join(scratch, f"batch{k}"),
            os.path.join(scratch, f"batch{k}.json"), deadline, batch=k,
            traced=bool(args.trace) and k % 2 == 1))
        durations.append(time.monotonic() - t)
    return results


def joined_spans(results):
    """The traced batches' spans in one list, parents re-indexed."""
    out = []
    for r in results:
        base = len(out)
        out += [dict(s, parent=s["parent"] + base if s["parent"] >= 0
                     else -1) for s in r.get("spans", [])]
    return out


def measure(args, scratch):
    """Run the workload; returns (attempted, failed, metrics, problems,
    environment)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    results = run_batches(args, scratch, deadline)
    setups = [r["setup_s"] for r in results]
    for i in range(SETUP_PROBES):
        probe = _start_worker(args, os.path.join(scratch, f"probe{i}"),
                              os.path.join(scratch, f"probe{i}.json"),
                              deadline, setup_only=True)
        setups.append(probe["setup_s"])

    batches = [r["batch"] for r in results]
    attempted = sum(b["attempted"] for b in batches)
    failed = sum(b["failed"] for b in batches)
    problems = [p for b in batches for p in b["problems"]]
    plain = [b for b in batches if not b["traced"]]
    traced = [b for b in batches if b["traced"]]
    if not traced:
        metrics = {
            "wall_s": (wall(plain), "s"),
            "peak_rss_mb": (max(r["peak_rss_mb"] for r in results), "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }
    else:
        layers = [r["layers"] for r in results if "layers" in r]
        metrics = {name: (statistics.median(layer[name] for layer in layers),
                          unit)
                   for name, unit in spans.metric_units().items()}
        metrics["trace.wall_s"] = (wall(traced), "s")
        metrics["trace.overhead_s"] = (wall(traced) - wall(plain), "s")
        path = os.path.join(OUT_DIR,
                            f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "spans": joined_spans(results)}, fh)
    return attempted, failed, metrics, problems, results[0]["environment"]


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "tensq", "__init__.py")):
        print("perfbench: run from the root of a tensq checkout "
              "(src/tensq not found)", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        attempted, failed, metrics, problems, environment = measure(
            args, scratch)
    except (subprocess.SubprocessError, OSError, KeyError) as exc:
        print(f"perfbench: run failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for p in problems[:20]:
        print(f"FAILED {p}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "environment": environment}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
