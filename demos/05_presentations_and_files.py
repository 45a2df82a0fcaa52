#!/usr/bin/env python3
"""Coset enumeration and the two input file formats.

A presentation enumerates, over the trivial subgroup, to its regular
permutation representation; the parser and the enumerator share one
word format, rows of integer letters (2g for generator g, 2g + 1 for
its inverse), and the closed table is re-verified relator by relator,
independent of the deduction path that produced it.  Groups can also
enter as permutation files.
"""

from tensq import (build_nu, multiplication_table_presentation,
                   parse_perm_group, parse_presentation,
                   tc_enumerate, tensor_report, to_perm_group)

print("=== enumerate a presentation ===")
text = """# binary dihedral / quaternion presentation
gens: a b
rels: a^4, b^2 a^-2, b^-1 a b a
"""
pres = parse_presentation(text)
print(f"relators as letter rows: {pres.letters().relators}")
table = tc_enumerate(pres.letters())
print(f"<a, b | a^4, b^2=a^2, a^b=a^-1> has {table.coset_count} cosets")
group = to_perm_group(table, name="Q8-from-presentation")
census = {}
for i in range(group.order()):
    o = group.order_of_idx(i)
    census[o] = census.get(o, 0) + 1
print(f"element order census: {census}  (one involution: quaternion)")

print()
print("=== a permutation-group file ===")
perm_text = """degree 4
(0 1 2 3)   # rotation
(1 3)       # reflection
"""
d4 = parse_perm_group(perm_text, name="D4-from-file")
print(f"parsed group of order {d4.order()} on {d4.degree} points")

print()
print("=== the multiplication-table route ===")
tp = multiplication_table_presentation(d4)
print(f"table presentation: {tp.ngens} generators, "
      f"{len(tp.relators)} relators")
nu = build_nu(d4, mode="all")
rep = tensor_report(nu)
print(f"nu(D4) from the table route: order {rep.nu_order}, tensor order "
      f"{rep.tensor_order}")

print()
print("=== a closed table is the regular representation ===")
s3 = parse_presentation("gens: a b\nrels: a^2, b^2, (a b)^3\n")
regular = to_perm_group(tc_enumerate(s3.letters()), name="S3-regular")
print(f"<a, b | a^2, b^2, (ab)^3> acts on {regular.degree} points with "
      f"order {regular.order()}; regular: {regular.is_regular()}")
# row 0 is the identity, so element i is the one that sends point 0 to i
print("element i sends point 0 to i: "
      f"{all(regular.element(i)(0) == i for i in range(regular.order()))}")
