"""Command-line interface.

Every subcommand runs through one pipeline, ``run``: resolve the group,
look up the result cache, compute, build the report, print its summary,
store it in the cache, write ``--json`` and return the exit status.  A
subcommand supplies a compute function returning ``(results, passed)``
and a summary function that derives the printed lines from ``results``
alone, so a cache hit prints the same lines.  The parser is built once
per process, on the first ``main`` call; each subcommand takes only the
options it reads (``--seed`` belongs to ``verify``, which records it in
the report; no check reads it).

Each subcommand also names the deferred modules (``tensq/__init__``) its
compute reads, and ``run`` runs them before it resolves the group:
``tensor``, ``nu``, ``verify`` and ``engel`` run ``coset``, ``symbol``
and ``nu``; ``verify`` also runs the ``verify`` module, which no route
reads; ``lie`` runs ``liering``; and every command that reads the result
cache runs ``cache``.  A deferred module runs the modules it imports
with it: ``coset`` runs ``cosetrows``, ``nu`` runs ``nugroup``,
``liering`` runs ``liecheck`` and ``verify`` runs ``nucheck``.  So
``lie`` and ``identity-f`` on a ``.perm`` group compile none of the
nu(G) stack.  This module calls ``nu``, ``verify`` and ``liering``
through the module objects.

Run in the middle of a job, a module's compile would leave its pages
among the job's objects.  Even run first, a module compiled after the
imports keeps more of its compile transient resident than one compiled
with them, and the more the larger the module: compiled after ``import
tensq.cli``, the former one-module ``coset`` (3,358 AST nodes) left
0.45 MB more anonymous memory, ``coset`` with ``cosetrows`` 0.09 MB,
and the former one-module ``liering`` (3,529 nodes) 0.46 MB.  So every
module compiled after the imports is under 2,000 nodes, and CI derives
that list from what the imports leave unrun.

Exit status: 0 when every requested check passes, 1 when a
counterexample or failed check is found or an internal invariant
fails, 2 for usage, parse, capacity or enumeration-limit errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import (__version__, _run_deferred, cache, coset, liering, nu,
               symbol, verify)
from .catalog import catalog, resolve_group
from .engel import EngelScanConfig, engel_power_scan, engel_stack_identity
from .errors import (DEFAULT_GROUP_CAP, CapacityError, EnumerationLimitError,
                     EnumerationLimits, InvariantError)
from .report import RELATION_FAMILIES, Report, write_report

_ROMAN = list(RELATION_FAMILIES)
# verify's checks of nu(G) itself
_ON_NU = ("closed", "decomp", "rho")
MODES = ("auto", "all", "gens", "symbol")
# the deferred modules of the commands that build G (x) G or nu(G)
_NU_STACK = (coset, symbol, nu)
# the names cli calls on nu and verify, looked up there (PEP 562), so
# that cli.build_nu is nu.build_nu, as when cli imported them
_CALLED = {
    **dict.fromkeys(("build_nu", "check_group_cap", "route_independence",
                     "tensor_module", "tensor_report", "tensor_square"),
                    nu),
    **dict.fromkeys(("derived_map_check", "verify_decomposition",
                     "verify_nu_relations", "verify_tensor_set_closed"),
                    verify),
}


def __getattr__(name):
    module = _CALLED.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    return getattr(module, name)


def _parse_lemmas(text):
    """The lemmas named, each once, in the order first named."""
    out = {}
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if ".." in token:
            i, j = (_ROMAN.index(x) if x in _ROMAN else -1
                    for x in token.split("..", 1))
            # a reversed range would name no lemma
            if i < 0 or j < i:
                raise ValueError(f"bad lemma range {token!r}")
            out.update(dict.fromkeys(_ROMAN[i:j + 1]))
        elif token in _ROMAN or token in _ON_NU:
            out[token] = None
        else:
            raise ValueError(f"unknown lemma token {token!r}")
    return list(out)


def _limits(args):
    return EnumerationLimits(max_cosets=args.max_cosets,
                             time_limit=args.time_limit)


# -- per-command compute and summary -----------------------------------------


def compute_tensor(args, group, pres):
    report = nu.tensor_square(group, pres, limits=_limits(args))
    return report.to_dict(), True


def tensor_summary(args, r):
    return [f"tensor {args.group}: tensor order {r['tensor_order']}, "
            f"nu order {r['nu_order']}, mu order {r['mu_order']}, "
            f"abelian={r['tensor_abelian']}"]


def compute_nu(args, group, pres):
    if args.mode == "auto":
        check, nus = nu.route_independence(
            group, pres, limits=_limits(args),
            max_group_order=args.max_group)
        results = nu.tensor_report(nus["all"]).to_dict()
        results["route_independence"] = check.to_dict()
        passed = check.passed
    else:
        built = nu.build_nu(group, pres, args.mode, limits=_limits(args),
                            max_group_order=args.max_group)
        results, passed = nu.tensor_report(built).to_dict(), True
    results["passed"] = passed
    return results, passed


def nu_summary(args, r):
    if "route_independence" in r:
        how = f"route independence: {'ok' if r['passed'] else 'FAILED'}"
    else:
        how = f"mode {r['mode']}"
    return [f"nu {args.group}: order {r['nu_order']} ({how})"]


def compute_verify(args, group, pres):
    # a run that checks nothing would pass vacuously
    lemmas = _parse_lemmas(args.lemmas)
    if not lemmas:
        raise ValueError("--lemmas names no lemma")
    families = tuple(x for x in lemmas if x in _ROMAN)
    on_nu = any(x in _ON_NU for x in lemmas)
    if on_nu:
        # before anything is enumerated
        nu.check_group_cap(group, args.max_group)
    module = None
    reports = []
    if families:
        # the families read G (x) G alone; the symbol route assembles
        # nu(G) from the same module's columns
        module = nu.tensor_module(group, limits=_limits(args))
        reports.append(verify.verify_nu_relations(module, families=families))
    if on_nu:
        built = nu.build_nu(group, mode="symbol", limits=_limits(args),
                            max_group_order=args.max_group, module=module)
        if "closed" in lemmas:
            reports.append(verify.verify_tensor_set_closed(built))
        if "decomp" in lemmas:
            reports.append(verify.verify_decomposition(built))
        if "rho" in lemmas:
            reports.append(verify.derived_map_check(built))
    passed = all(r.passed for r in reports)
    return {"reports": [r.to_dict() for r in reports], "passed": passed}, \
        passed


def verify_summary(args, r):
    return [f"{'PASS' if c['passed'] else 'FAIL'}  {rep['name']}: "
            f"{c['label']}"
            for rep in r["reports"] for c in rep["checks"]]


def compute_engel(args, group, pres):
    config = EngelScanConfig(p=args.p, m=args.m, n=args.n)
    module = nu.tensor_module(group, limits=_limits(args))
    scan = engel_power_scan(module, config)
    return scan.to_dict(), scan.all_pairs_satisfied


def engel_summary(args, r):
    verdict = "all pairs satisfied" if r["all_pairs_satisfied"] \
        else "unsatisfied pairs found"
    return [f"engel {args.group} (p={args.p}, m={args.m}, n={args.n}): "
            f"{verdict}"]


def compute_lie(args, group, pres):
    series = liering.dimension_subgroups(group, args.p)
    oracle = liering.jennings_recursion(group, args.p)
    ring = liering.lie_ring(series)
    axioms = liering.verify_lie_axioms(ring)
    qs = [args.p, args.p ** 2] if args.lazard is None else [args.lazard]
    lazard = [liering.verify_lazard(ring, q) for q in qs]
    sub = liering.subalgebra_Lp(ring)
    results = {
        "p": args.p,
        "series_orders": [t.order() for t in series.terms],
        "series_matches_recursion": series.termwise_equal(oracle),
        "graded_dimensions": list(ring.dims),
        "nilpotency_class": liering.lie_nilpotency_class(ring),
        "Lp_dimensions": {str(d): sub.dimension(d)
                          for d in range(1, ring.degrees + 1)},
        "axioms": axioms.to_dict(),
        "lazard": [r.to_dict() for r in lazard],
    }
    passed = (results["series_matches_recursion"] and axioms.passed
              and all(r.passed for r in lazard))
    results["passed"] = passed
    return results, passed


def lie_summary(args, r):
    return [f"lie {args.group} (p={args.p}): "
            f"dims {r['graded_dimensions']}, "
            f"class {r['nilpotency_class']}, "
            f"{'ok' if r['passed'] else 'FAILED'}"]


def compute_identity_f(args, group, pres):
    holds = engel_stack_identity(group, args.n, args.p, args.m)
    return {"holds": holds, "n": args.n, "p": args.p, "m": args.m}, holds


def identity_f_summary(args, r):
    return [f"identity-f {args.group} (n={args.n}, p={args.p}, "
            f"m={args.m}): {'holds' if r['holds'] else 'fails'}"]


def compute_catalog(args, group, pres):
    return {"entries": [
        {"name": e.name, "order": e.order, "description": e.description,
         "has_presentation": e.presentation_text is not None}
        for e in catalog().values()]}, True


def catalog_summary(args, r):
    return [f"{e['name']:8s} order {e['order']:4d}  {e['description']}"
            for e in r["entries"]]


# -- the pipeline ------------------------------------------------------------


def run(args):
    """Run one parsed subcommand end to end; returns the exit status."""
    # the deferred modules the command reads run before anything of the
    # job is built: run among its objects, their code would hold pages
    # that the job frees
    deferred = args.deferred if args.no_cache else (*args.deferred, cache)
    for module in deferred:
        _run_deferred(module)
    if args.group is None:
        group = pres = None
        desc = {"action": args.action}
    else:
        group, pres, desc = resolve_group(args.group, _limits(args))
    key = None
    if not args.no_cache:
        # the source digest hashes catalog.py, so a catalog name keys
        # its generators and presentation too
        payload = {"input": desc, "command": args.command,
                   **{name: getattr(args, name) for name in args.cache_on}}
        key = cache.cache_key(payload, cache.source_digest())
    start = time.monotonic()
    hit = cache.cache_load(key) if key is not None else None
    if hit is None:
        results, passed = args.compute(args, group, pres)
    else:
        results = json.loads(hit)["results"]
        # tensor results carry no "passed": that command cannot fail
        passed = results.get("passed", True)
    timing = {"seconds": time.monotonic() - start}
    if hit is not None:
        timing["cache"] = "hit"
    report = Report(command=args.command, input=desc, results=results,
                    seed=args.seed, version=__version__, timing=timing)
    lines = args.summary(args, results)
    if hit is not None:
        lines[-1] += " (cached)"
    for line in lines:
        print(line)
    store = key is not None and hit is None
    # one encoding for both: the cached and the written report are the
    # same bytes
    text = report.to_json() if store or args.json else None
    if store:
        cache.cache_store(key, text)
    if args.json:
        write_report(text, args.json)
    return 0 if passed else 1


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="tensq",
        description="non-abelian tensor squares, nu-groups, Engel scans "
                    "and graded Lie rings of finite groups")
    parser.add_argument("--version", action="version", version=__version__)
    # every report records a seed, which only verify's --seed sets; only
    # the commands that take --no-cache read the result cache, keyed on
    # the group, the command and the options named in cache_on;
    # deferred names the deferred tensq modules its compute reads
    parser.set_defaults(seed=None, no_cache=True, cache_on=(), deferred=())
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("group", help="catalog name, @file.perm or @file.pres")
    common.add_argument("--json", help="write the JSON report here")
    common.add_argument("--max-cosets", type=int,
                        default=EnumerationLimits.max_cosets)
    common.add_argument("--time-limit", type=float,
                        default=EnumerationLimits.time_limit)
    # only the commands that build nu(G) read the cap
    capped = argparse.ArgumentParser(add_help=False, parents=[common])
    capped.add_argument("--max-group", type=int, default=DEFAULT_GROUP_CAP,
                        help="cap on |G| for nu-construction")
    cached = argparse.ArgumentParser(add_help=False)
    cached.add_argument("--no-cache", action="store_true")

    p = sub.add_parser("tensor", parents=[common, cached],
                       help="tensor square report")
    p.set_defaults(compute=compute_tensor, summary=tensor_summary,
                   deferred=_NU_STACK)

    p = sub.add_parser("nu", parents=[capped, cached],
                       help="build nu(G); default mode cross-checks the "
                       "construction routes: all three for a catalog name "
                       "or @file.pres, the all and symbol routes for "
                       "@file.perm")
    p.add_argument("--mode", choices=MODES, default="auto")
    p.set_defaults(compute=compute_nu, summary=nu_summary,
                   cache_on=("mode", "max_group"), deferred=_NU_STACK)

    p = sub.add_parser("verify", parents=[capped],
                       help="verify tensor-commutator identities")
    p.add_argument("--seed", type=int, default=0,
                   help="recorded in the report; no check reads it")
    p.add_argument("--lemmas", default="i..v,closed,decomp,rho")
    p.set_defaults(compute=compute_verify, summary=verify_summary,
                   deferred=(*_NU_STACK, verify))

    p = sub.add_parser("engel", parents=[common], help="scan tensor powers "
                       "for left n-Engel behaviour in nu(G)")
    p.add_argument("-p", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(compute=compute_engel, summary=engel_summary,
                   deferred=_NU_STACK)

    p = sub.add_parser("lie", parents=[common, cached],
                       help="dimension subgroups and graded Lie ring")
    p.add_argument("-p", type=int, required=True)
    p.add_argument("--lazard", type=int, default=None,
                   help="check the adjoint-power identity at this q "
                        "(default: p and p^2)")
    p.set_defaults(compute=compute_lie, summary=lie_summary,
                   cache_on=("p", "lazard"), deferred=(liering,))

    p = sub.add_parser("identity-f", parents=[common], help="evaluate the "
                       "stacked Engel word over all triples")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-p", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    p.set_defaults(compute=compute_identity_f, summary=identity_f_summary)

    p = sub.add_parser("catalog", help="catalog operations")
    p.add_argument("action", choices=("list",))
    p.add_argument("--json", help="write the JSON report here")
    p.set_defaults(compute=compute_catalog, summary=catalog_summary,
                   group=None)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except InvariantError as exc:
        print(f"invariant error: {exc}", file=sys.stderr)
        return 1
    except (EnumerationLimitError, CapacityError) as exc:
        print(f"limit error: {exc}", file=sys.stderr)
        return 2
    except (KeyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
