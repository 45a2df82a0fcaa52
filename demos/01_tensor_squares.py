#!/usr/bin/env python3
"""Tensor squares of small groups, two ways.

Builds nu(G) on the symbol route (``build_nu``'s default) for a
handful of catalog groups, reads off the tensor square [G, G'] inside
it, and checks the order law |nu(G)| = |G (x) G| * |G|^2.  For abelian G the tensor square is abelian with a
closed-form order, so the gcd oracle cross-checks the enumeration.
The oracle and the last section read the crossed module of G (x) G
alone (``tensor_module``), as ``tensq tensor`` does, with no nu(G)
assembled.
"""

import math

from tensq import (build_nu, get_group, invariant_factors_from_cyclic,
                   tensor_module, tensor_report)

print("=== the order law ===")
for name in ["C2", "C3", "C2xC2", "S3", "D4", "Q8"]:
    group = get_group(name)
    nu = build_nu(group)
    rep = tensor_report(nu)
    law = rep.nu_order == rep.tensor_order * rep.group_order ** 2
    print(f"{name:6s} |G|={rep.group_order:3d}  |GxG|={rep.tensor_order:3d}"
          f"  |nu(G)|={rep.nu_order:5d}  |mu|={rep.mu_order:3d}"
          f"  order law: {'ok' if law else 'BROKEN'}")

print()
print("=== the abelian oracle ===")
print("for abelian G with invariant factors d_1 | ... | d_k, the tensor")
print("square is the direct sum of cyclic groups of order gcd(d_i, d_j):")
for name, invariants in [("C4", [4]), ("C6", [6]), ("C2xC4", [2, 4])]:
    rep = tensor_report(tensor_module(get_group(name)))
    gcds = sorted(math.gcd(a, b) for a in invariants for b in invariants)
    expected = invariant_factors_from_cyclic(gcds)
    print(f"{name:6s} enumerated invariants {list(rep.tensor_invariants)}"
          f"  oracle {expected}"
          f"  -> {'agree' if list(rep.tensor_invariants) == expected else 'DISAGREE'}")

print()
print("=== a non-abelian tensor square ===")
rep = tensor_report(tensor_module(get_group("A4")))
print(f"A4     |GxG| = {rep.tensor_order}, abelian: {rep.tensor_abelian}, "
      f"nilpotency class: {rep.tensor_class}")
print("(A4 (x) A4 is the smallest non-abelian tensor square in the catalog)")
