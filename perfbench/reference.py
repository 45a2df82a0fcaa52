"""Hand-written reference values, and the check of every job against them.

Nothing here is read off tensq's own output.

* |G (x) G| of an abelian group C_n1 x ... x C_nk is the product of
  gcd(ni, nj) over all ordered pairs (i, j); ``ABELIAN_TYPE`` lists the
  invariants and the self-tests recompute the abelian entries from it.
* The non-abelian entries are those of Brown, Johnson and Robertson,
  "Some computations of non-abelian tensor products of groups"
  (J. Algebra 111, 1987): S3 (x) S3 = C6, D5 (x) D5 = C10,
  D4 (x) D4 = C2^3 x C4, Q8 (x) Q8 = C2^2 x C4^2, A4 (x) A4 = Q8 x C3.
  Each was confirmed once by enumerating the symbol presentation of the
  tensor square (the crossed-pairing relations on the symbols g (x) h)
  with Todd-Coxeter, a route that shares nothing with nu(G).
* |nu(G)| = |G (x) G| |G|^2.
* ``engel G -p p -m 3 -n 2`` is satisfied for every pair: when
  G (x) G is abelian each tensor t lies in the abelian normal subgroup
  [G, G'] of nu(G), so [x, t, t] = 1 already at q = 1; for A4, q = 8
  kills the Q8 factor and leaves an element of order 1 or 3, which maps
  to 1 in G' = V4 and so lies in the central subgroup mu(A4).
* A finite p-group of order p^n is nilpotent: its left Engel set and its
  Fitting subgroup are the whole group, and its graded Lie ring has total
  dimension n.  Class at most 2 makes c = [x1, y1] central, so the
  stacked Engel word of ``identity-f`` is trivial.
"""

from __future__ import annotations

import math

# name -> (|G|, |G (x) G|) for the nu-capable catalog groups
NU_REFERENCE = {
    "C1": (1, 1),
    "C2": (2, 2),
    "C3": (3, 3),
    "C4": (4, 4),
    "C2xC2": (4, 16),
    "C5": (5, 5),
    "C6": (6, 6),
    "S3": (6, 6),
    "C8": (8, 8),
    "C2xC4": (8, 32),
    "D4": (8, 32),
    "Q8": (8, 64),
    "C9": (9, 9),
    "C3xC3": (9, 81),
    "D5": (10, 10),
    "A4": (12, 24),
}

# invariants of the abelian entries of NU_REFERENCE
ABELIAN_TYPE = {
    "C1": (), "C2": (2,), "C3": (3,), "C4": (4,), "C2xC2": (2, 2),
    "C5": (5,), "C6": (6,), "C8": (8,), "C2xC4": (2, 4), "C9": (9,),
    "C3xC3": (3, 3),
}

# name -> (|G|, p, nilpotency class) for the pgroup workload
P_GROUPS = {
    "C2": (2, 2, 1),
    "C3": (3, 3, 1),
    "C4": (4, 2, 1),
    "C2xC2": (4, 2, 1),
    "C5": (5, 5, 1),
    "C8": (8, 2, 1),
    "C2xC4": (8, 2, 1),
    "D4": (8, 2, 2),
    "Q8": (8, 2, 2),
    "C9": (9, 3, 1),
    "C3xC3": (9, 3, 1),
    "Heis3": (27, 3, 2),
    "M27": (27, 3, 2),
    "C27": (27, 3, 1),
    "C4wrC2": (32, 2, 3),
    "D4xD4": (64, 2, 2),
    "Heis3xC3": (81, 3, 2),
    "C3wrC3": (81, 3, 3),
    "C2wrC2wrC2": (128, 2, 4),
    "D4xD4xC2": (128, 2, 2),
    "C3wrC3xC3": (243, 3, 3),
    "C2wrC2wrC2xC2": (256, 2, 4),
}

VERIFY_REPORTS = ["nu-relations", "tensor-set-closed", "decomposition",
                  "derived-map"]


def gcd_tensor_order(invariants):
    return math.prod(math.gcd(a, b) for a in invariants for b in invariants)


def log_p(n, p):
    k = 0
    while n > 1:
        if n % p:
            raise ValueError(f"{n} is not a power of {p}")
        n //= p
        k += 1
    return k


def _expect(problems, label, got, want):
    if got != want:
        problems.append(f"{label}: got {got!r}, want {want!r}")


def check(job, outcome):
    """Problems with one job's outcome, as a list of strings (empty when
    the job is correct).  ``outcome`` holds ``rc`` and the parsed JSON
    ``report`` for a command-line job, ``value`` for a library call."""
    problems = []
    if job.argv:
        _expect(problems, "exit code", outcome.get("rc"), 0)
        report = outcome.get("report")
        if report is None:
            problems.append("no JSON report")
            return problems
        results = report["results"]
    if job.command in ("nu", "tensor", "tensor-hit"):
        order, tensor = NU_REFERENCE[job.group]
        _expect(problems, "group order", results.get("group_order"), order)
        _expect(problems, "tensor order", results.get("tensor_order"),
                tensor)
        _expect(problems, "nu order", results.get("nu_order"),
                tensor * order * order)
        if job.command == "nu":
            _expect(problems, "mode", results.get("mode"), "all")
    elif job.command == "verify":
        _expect(problems, "passed", results.get("passed"), True)
        _expect(problems, "reports",
                [r.get("name") for r in results.get("reports", [])],
                VERIFY_REPORTS)
    elif job.command == "engel":
        order = NU_REFERENCE[job.group][0]
        _expect(problems, "all pairs satisfied",
                results.get("all_pairs_satisfied"), True)
        _expect(problems, "pairs", len(results.get("pairs", {})),
                order * order)
    elif job.command == "lie":
        order, p, _ = P_GROUPS[job.group]
        _expect(problems, "passed", results.get("passed"), True)
        _expect(problems, "sum of graded dimensions",
                sum(results.get("graded_dimensions", [])), log_p(order, p))
        _expect(problems, "|D_1|", (results.get("series_orders") or [0])[0],
                order)
    elif job.command == "identity-f":
        _expect(problems, "holds", results.get("holds"), True)
    elif job.command in ("engel-set", "fitting"):
        _expect(problems, f"{job.command} order", outcome.get("value"),
                P_GROUPS[job.group][0])
    else:
        problems.append(f"no reference for command {job.command!r}")
    return problems
