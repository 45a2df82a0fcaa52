"""Per-layer spans, recorded from outside tensq.

``Tracer.install`` swaps each function in ``TARGETS`` for a wrapper, in
every ``tensq`` module namespace that holds it (methods on their class),
and ``uninstall`` puts the originals back.  A span records its name,
start, end, parent span and job; counts measured at the same boundary
ride on the span.  Everything stays in memory until the run writes it.

The hottest primitives (``mul_idx``, ``table``) are not wrapped: they
run millions of times per job and would time the wrapper.  The Cayley
table of a new group is forced instead, inside a child span, by the
wrappers of ``to_perm_group`` (``perm.cayley``) and ``resolve_group``
(``perm.group_table``).
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time


def _cosets(args, result):
    return {"cosets": result.coset_count}


def _verify_letters(args, result):
    table = args[0]
    return {"verify_letters":
            len(table.table) * sum(len(w) for w in table.relators)}


def _relators(args, result):
    return {"relators": len(result.relators),
            "relator_letters": sum(len(r) for r in result.relators)}


def _elements(args, result):
    return {"elements": result.order()}


def _dims(args, result):
    return {"dims": sum(result.dims)}


def _cache_lookup(args, result):
    return {"hits": int(result is not None), "misses": int(result is None)}


def _calls(key):
    return lambda args, result: {key: 1}


def _force_cayley(tracer, result):
    with tracer.span("perm.cayley") as span:
        table = result.table()
        span.counts["cayley_bytes"] = 0 if table is None else table.nbytes


def _force_group_table(tracer, result):
    with tracer.span("perm.group_table"):
        result[0].table()


# (module, attribute, span name, counts(args, result), follow-up(tracer,
# result)).  A span's self time is reported as "<span name>_s", except
# where SELF_TIME_METRIC renames it; counts as "<layer>.<key>".
TARGETS = (
    ("tensq.coset", "tc_enumerate", "coset.enum", _cosets, None),
    ("tensq.coset", "CosetTable.verify", "coset.verify", _verify_letters,
     None),
    ("tensq.coset", "multiplication_table_presentation",
     "coset.table_presentation", None, None),
    ("tensq.coset", "to_perm_group", "perm.to_group", None, _force_cayley),
    ("tensq.nu", "nu_presentation", "nu.presentation", _relators, None),
    ("tensq.nu", "build_nu", "nu.build", _elements, None),
    ("tensq.nu", "tensor_report", "nu.tensor_report", None, None),
    ("tensq.nu", "verify_nu_relations", "nu.verify_relations", None, None),
    ("tensq.nu", "verify_tensor_set_closed", "nu.verify_closed", None, None),
    ("tensq.nu", "verify_decomposition", "nu.verify_decomp", None, None),
    ("tensq.nu", "derived_map_check", "nu.derived_map", None, None),
    ("tensq.perm", "FiniteGroup.normal_closure", "perm.normal_closure",
     _calls("normal_closure_calls"), None),
    ("tensq.perm", "Subgroup.__init__", "perm.subgroup",
     _calls("subgroup_calls"), None),
    ("tensq.linalg", "abelian_invariants", "linalg.invariants", None, None),
    ("tensq.engel", "engel_power_scan", "engel.power_scan", None, None),
    ("tensq.engel", "engel_stack_identity", "engel.stack_identity", None,
     None),
    ("tensq.engel", "left_engel_set", "engel.engel_set", None, None),
    ("tensq.engel", "fitting_subgroup", "engel.fitting", None, None),
    ("tensq.liering", "dimension_subgroups", "lie.series", None, None),
    ("tensq.liering", "jennings_recursion", "lie.recursion", None, None),
    ("tensq.liering", "lie_ring", "lie.ring", _dims, None),
    ("tensq.liering", "verify_lie_axioms", "lie.axioms", None, None),
    ("tensq.liering", "verify_lazard", "lie.lazard", None, None),
    ("tensq.cache", "cache_store", "cache.store", None, None),
    ("tensq.cache", "cache_load", "cache.load", _cache_lookup, None),
    ("tensq.catalog", "resolve_group", "catalog.resolve", None,
     _force_group_table),
    ("tensq.report", "write_report", "report.write", None, None),
    ("tensq.cli", "main", "cli.main", None, None),
)

SELF_TIME_METRIC = {"nu.build": "nu.build_self_s", "cli.main": "cli.self_s"}

COUNT_METRICS = ("coset.cosets", "coset.verify_letters", "nu.relators",
                 "nu.relator_letters", "nu.elements", "perm.cayley_bytes",
                 "perm.normal_closure_calls", "perm.subgroup_calls",
                 "lie.dims", "cache.hits", "cache.misses")

LAYERS = ("coset", "nu", "perm", "linalg", "engel", "lie", "cache",
          "catalog", "report", "cli")

SPAN_NAMES = tuple(t[2] for t in TARGETS) + ("perm.cayley",
                                             "perm.group_table")


def _layer(span_name):
    return span_name.split(".", 1)[0]


def time_metric(span_name):
    return SELF_TIME_METRIC.get(span_name, span_name + "_s")


def metric_units():
    """Every per-layer metric the tracer yields, with its unit."""
    units = {time_metric(n): "s" for n in SPAN_NAMES}
    units.update({m: "count" for m in COUNT_METRICS})
    units["perm.cayley_bytes"] = "bytes"
    units.update({f"{layer}.errors": "count" for layer in LAYERS})
    return units


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "error", "counts")

    def __init__(self, name, start, end=None, parent=-1, job=None,
                 error=False):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.job = job
        self.error = error
        self.counts = {}

    def to_dict(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []
        self._saved = []

    @contextlib.contextmanager
    def span(self, name):
        span = Span(name, 0.0, parent=self._stack[-1] if self._stack else -1,
                    job=self.job)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        except BaseException:
            span.error = True
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, counts, follow):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as span:
                result = fn(*args, **kwargs)
                if follow is not None:
                    follow(tracer, result)
                if counts is not None:
                    span.counts.update(counts(args, result))
                return result
        return wrapper

    def install(self):
        """Wrap every target: a method once, on its class; a function in
        every tensq module that imported it."""
        modules = [m for n, m in sys.modules.items()
                   if n == "tensq" or n.startswith("tensq.")]
        for module_name, attr, name, counts, follow in TARGETS:
            cls_name, _, attr = attr.rpartition(".")
            owner = sys.modules[module_name]
            if cls_name:
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            holders = [owner] if cls_name else [
                m for m in modules if getattr(m, attr, None) is original]
            wrapper = self._wrap(original, name, counts, follow)
            for holder in holders:
                self._saved.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self):
        for holder, attr, original in reversed(self._saved):
            setattr(holder, attr, original)
        self._saved = []


def self_times(spans):
    """Each span's duration minus the part of it its children cover."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for c in sorted(children[i], key=lambda k: spans[k].start):
            lo = max(spans[c].start, cursor)
            hi = min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.end - s.start - covered)
    return out


def layer_metrics(spans, select=lambda span: True):
    """Per-layer metrics of the spans that ``select`` keeps: self time
    per span name, summed counts and errors per layer.  Every metric is
    present, zero when no span fed it."""
    out = {m: 0 for m in metric_units()}
    for s, own in zip(spans, self_times(spans)):
        if not select(s):
            continue
        out[time_metric(s.name)] += own
        layer = _layer(s.name)
        for key, value in s.counts.items():
            out[f"{layer}.{key}"] += value
        out[f"{layer}.errors"] += int(s.error)
    return out
