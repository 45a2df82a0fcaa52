"""One batch of one workload, in a fresh process started by ``run.py``.

The process imports tensq from ``./src``, writes the batch's seeded
inputs and resolves the catalog (its set-up, timed from the ``--t0``
the parent read just before starting it), then runs the batch's jobs
back to back as one client in a closed loop.  A fresh process per batch
keeps every batch as cold as a user's commands are: nothing tensq keeps
in memory carries over from one batch to the next.  Each job is timed
with this process's own clock around ``tensq.cli.main`` or the library
call; the reports' own ``timing`` is never read.  Outputs are checked
against ``reference`` after each job, outside the timed region.  With
``--trace 1`` the batch runs under the tracer.  The result goes to
``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import ctypes.util
import gc
import importlib
import io
import json
import os
import platform
import resource
import sys
import time

import numpy

import reference
import spans
import workloads

# Modules, not the package's same-named re-exports (``tensq.catalog`` is
# also a function); looked up at call time, so the tracer's wrappers
# apply.
tensq = importlib.import_module("tensq")
catalog = importlib.import_module("tensq.catalog")
cli = importlib.import_module("tensq.cli")
engel = importlib.import_module("tensq.engel")

ENGEL_BOUND = 10


def _heap_trimmer():
    """glibc's malloc_trim, or a no-op where the C library has none."""
    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c"))
        trim = libc.malloc_trim
    except (OSError, AttributeError, TypeError):
        return lambda: None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return lambda: trim(0)


# Between jobs the heap is collected and trimmed, so each job starts
# from the live set, as a fresh command would, and the peak RSS does not
# depend on which jobs ran before.
_trim_heap = _heap_trimmer()


def _run_job(job, out_path):
    """Run one job; returns (seconds, outcome)."""
    outcome = {}
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            if job.argv:
                outcome["rc"] = cli.main([*job.argv, "--json", out_path])
            else:
                group = catalog.resolve_group("@" + job.path)[0]
                if job.command == "engel-set":
                    outcome["value"] = len(
                        engel.left_engel_set(group, ENGEL_BOUND))
                else:
                    outcome["value"] = engel.fitting_subgroup(
                        group).order()
        except Exception as exc:            # a failed job, not a failed run
            outcome["exception"] = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    if job.argv and os.path.exists(out_path):
        with open(out_path, encoding="utf-8") as fh:
            outcome["report"] = json.load(fh)
        os.unlink(out_path)
    return seconds, outcome


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment():
    return {"nproc": os.cpu_count(), "cpu": _cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "threads": {k: v for k, v in os.environ.items()
                        if k.endswith("_NUM_THREADS")}}


def run_batch(jobs, index, directory, tracer=None):
    """Run ``jobs`` back to back, writing their reports into
    ``directory``."""
    times = []
    problems = []
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = [index, i, job.label]
        seconds, outcome = _run_job(job, os.path.join(directory,
                                                      f"{i}.json"))
        times.append(seconds)
        found = ([outcome["exception"]] if "exception" in outcome
                 else reference.check(job, outcome))
        if found:
            problems.append(f"{job.label}: " + "; ".join(found))
        gc.collect()
        _trim_heap()
    return {
        "traced": tracer is not None,
        "times": {job.label: t for job, t in zip(jobs, times)},
        "attempted": len(jobs),
        "failed": len(problems),
        "problems": problems,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--batch", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() just before this process "
                             "was started")
    parser.add_argument("--tmp", required=True,
                        help="scratch directory for inputs and caches")
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = os.path.realpath("src")
    if not os.path.realpath(tensq.__file__).startswith(src + os.sep):
        raise SystemExit(f"tensq was imported from {tensq.__file__}, "
                         "not from ./src")
    jobs = workloads.build_jobs(args.workload, args.seed, args.batch,
                                args.tmp, catalog.catalog(),
                                reference.P_GROUPS)
    result = {"setup_s": time.monotonic() - args.t0}
    if not args.setup_only:
        tracer = spans.Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        try:
            result["batch"] = run_batch(jobs, args.batch, args.tmp, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        result["environment"] = environment()
        result["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            result["layers"] = spans.layer_metrics(tracer.spans)
            result["spans"] = [s.to_dict() for s in tracer.spans]
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
