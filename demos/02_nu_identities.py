#!/usr/bin/env python3
"""The commutator identities that make nu(G) tick.

Checks, exhaustively for S3, the five basic relation families between
tensors [g, h'], on the crossed module of S3 (x) S3 that nu(S3) is
assembled from, then the structural facts of nu(S3): the set of tensors is a
normal commutator-closed subset, the derived subgroup of nu(G) factors
as an iterated semidirect product, and the derived map
[g, h'] |-> [g, h] has central kernel mu(G).
"""

from tensq import (build_nu, derived_map_check, get_group, get_presentation,
                   tensor_module, verify_decomposition, verify_nu_relations,
                   verify_tensor_set_closed)

module = tensor_module(get_group("S3"))
nu = build_nu(module.group, get_presentation("S3"), module=module)
print(f"nu(S3): order {nu.order()}, tensor subgroup order "
      f"{nu.tensor.order()}, mu order {nu.mu.order()}")
print()

print("=== relation families (i)-(v), exhaustive over tuples ===")
report = verify_nu_relations(module)
for check in report.checks:
    print(f"  {check.label}: {'ok' if check.passed else 'FAILED'} "
          f"({check.details['checked']} tuples, {check.details['mode']})")

print()
print("=== the tensor set X = {[a, b']} ===")
report = verify_tensor_set_closed(nu)
for check in report.checks:
    print(f"  {check.label}: {'ok' if check.passed else 'FAILED'}")

print()
print("=== decomposition of nu(S3)' ===")
report = verify_decomposition(nu)
for check in report.checks:
    print(f"  {check.label}: {'ok' if check.passed else 'FAILED'}")
nu_prime = nu.ambient.derived_subgroup()
gp = nu.group.derived_subgroup()
print(f"  |nu(S3)'| = {nu_prime.order()} = "
      f"{nu.tensor.order()} * {gp.order()} * {gp.order()}")

print()
print("=== the derived map and its kernel ===")
report = derived_map_check(nu)
for check in report.checks:
    print(f"  {check.label}: {'ok' if check.passed else 'FAILED'}")
