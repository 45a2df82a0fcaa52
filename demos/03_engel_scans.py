#!/usr/bin/env python3
"""Left Engel elements, in G and in nu(G).

The left Engel elements of a finite group form its Fitting subgroup;
the iteration z |-> [z, y] is a self-map of a finite set, so the Engel
property is decided exactly by cycle detection.  In nu(G) we scan, for
every pair (x, y), the powers 1, p, p^2, ... of the tensor [x, y'] for
the first one that becomes left n-Engel.  The scan reads only the
crossed module of G (x) G (``tensor_module``): the values [z, t] over
all z in nu(G) are a nu(G)-class in G (x) G times t.
"""

from tensq import (EngelScanConfig, engel_power_scan, engel_stack_identity,
                   fitting_subgroup, get_group, left_engel_set,
                   tensor_module)

print("=== Engel sets vs Fitting subgroups ===")
for name in ["S3", "D5", "A4", "D4"]:
    g = get_group(name)
    engel = left_engel_set(g, g.order())
    fit = fitting_subgroup(g)
    agree = set(engel) == fit.index_set()
    print(f"{name:4s} |Engel set| = {len(engel):2d}  |Fitting| = "
          f"{fit.order():2d}  {'agree' if agree else 'DISAGREE'}")

print()
print("=== scanning tensor powers for Engel behaviour in nu(D4) ===")
module = tensor_module(get_group("D4"))
scan = engel_power_scan(module, EngelScanConfig(p=2, m=3, n=2))
counts = {}
for q in scan.table.values():
    counts[q] = counts.get(q, 0) + 1
print(f"pairs scanned: {len(scan.table)}; least valid q per pair: {counts}")
print(f"every pair satisfied: {scan.all_pairs_satisfied}")

print()
print("=== scanning nu(S3) with 2-powers ===")
module = tensor_module(get_group("S3"))
scan = engel_power_scan(module, EngelScanConfig(p=2, m=1, n=1))
unsat = [pair for pair, q in scan.table.items() if q is None]
print(f"depth 1 (centrality): {len(unsat)} of {len(scan.table)} pairs have "
      "no valid 2-power")
print("(2-power powers of a tensor of order divisible by 3 are never "
      "central)")
scan = engel_power_scan(module, EngelScanConfig(p=2, m=1, n=2))
print(f"depth 2: every pair satisfied with q = 1 -- the tensor subgroup "
      "is abelian and normal,")
print("so each tensor is already left 2-Engel")

print()
print("=== the stacked Engel word ===")
for name, n, p, m in [("S3", 2, 2, 1), ("Heis3", 2, 3, 1), ("C6", 1, 2, 2)]:
    holds = engel_stack_identity(get_group(name), n, p, m)
    print(f"[z, {n}_c, {n}_c^{p}, ...] over {name} with m={m}: "
          f"{'vanishes everywhere' if holds else 'fails somewhere'}")
