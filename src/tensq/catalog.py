"""Built-in group catalog and input resolution.

Every entry carries permutation generators; most also carry a compact
presentation whose generators correspond, in order, to the permutation
generators (tests verify the correspondence).  Orders range over all
entries <= 16 plus selected order-24/27 entries; order-16 2-groups with
large tensor squares are deliberately absent, since their nu-groups
exceed desk scale.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from . import coset, words
from .perm import FiniteGroup, parse_perm_group
from .permutation import parse_cycles


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    order: int
    degree: int
    perm_gens: tuple
    presentation_text: str | None
    description: str


_RAW = [
    ("C1", 1, 1, ("()",), "gens: a\nrels: a\n", "trivial group"),
    ("C2", 2, 2, ("(0 1)",), "gens: a\nrels: a^2\n", "cyclic of order 2"),
    ("C3", 3, 3, ("(0 1 2)",), "gens: a\nrels: a^3\n", "cyclic of order 3"),
    ("C4", 4, 4, ("(0 1 2 3)",), "gens: a\nrels: a^4\n",
     "cyclic of order 4"),
    ("C2xC2", 4, 4, ("(0 1)", "(2 3)"),
     "gens: a b\nrels: a^2, b^2, a^-1 b^-1 a b\n", "Klein four-group"),
    ("C5", 5, 5, ("(0 1 2 3 4)",), "gens: a\nrels: a^5\n",
     "cyclic of order 5"),
    ("C6", 6, 6, ("(0 1 2 3 4 5)",), "gens: a\nrels: a^6\n",
     "cyclic of order 6"),
    ("S3", 6, 3, ("(0 1)", "(1 2)"),
     "gens: a b\nrels: a^2, b^2, (a b)^3\n", "symmetric group on 3 points"),
    ("C8", 8, 8, ("(0 1 2 3 4 5 6 7)",), "gens: a\nrels: a^8\n",
     "cyclic of order 8"),
    ("C2xC4", 8, 6, ("(0 1)", "(2 3 4 5)"),
     "gens: a b\nrels: a^2, b^4, a^-1 b^-1 a b\n", "abelian of type (2,4)"),
    ("D4", 8, 4, ("(0 1 2 3)", "(1 3)"),
     "gens: a b\nrels: a^4, b^2, (a b)^2\n", "dihedral of order 8"),
    ("Q8", 8, 8, ("(0 1 2 3)(4 7 6 5)", "(0 4 2 6)(1 5 3 7)"),
     "gens: a b\nrels: a^4, b^2 a^-2, b^-1 a b a\n", "quaternion group"),
    ("C9", 9, 9, ("(0 1 2 3 4 5 6 7 8)",), "gens: a\nrels: a^9\n",
     "cyclic of order 9"),
    ("C3xC3", 9, 6, ("(0 1 2)", "(3 4 5)"),
     "gens: a b\nrels: a^3, b^3, a^-1 b^-1 a b\n",
     "elementary abelian of order 9"),
    ("D5", 10, 5, ("(0 1 2 3 4)", "(1 4)(2 3)"),
     "gens: a b\nrels: a^5, b^2, (a b)^2\n", "dihedral of order 10"),
    ("A4", 12, 4, ("(0 1 2)", "(0 1)(2 3)"),
     "gens: a b\nrels: a^3, b^2, (a b)^3\n", "alternating group on 4 points"),
    ("S4", 24, 4, ("(0 1 2 3)", "(0 1)"),
     "gens: a b\nrels: a^4, b^2, (a b)^3\n", "symmetric group on 4 points"),
    ("Heis3", 27, 9, ("(0 3 6)(1 4 7)(2 5 8)", "(3 4 5)(6 8 7)"),
     "gens: a b\nrels: a^3, b^3, "
     "(a^-1 b^-1 a b)^-1 a^-1 (a^-1 b^-1 a b) a, "
     "(a^-1 b^-1 a b)^-1 b^-1 (a^-1 b^-1 a b) b\n",
     "Heisenberg group of order 27 (exponent 3)"),
    ("M27", 27, 9, ("(0 1 2 3 4 5 6 7 8)", "(1 4 7)(2 8 5)"),
     "gens: a b\nrels: a^9, b^3, b^-1 a b a^-4\n",
     "modular group of order 27 (exponent 9)"),
    ("C27", 27, 27,
     ("(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 "
      "25 26)",),
     "gens: a\nrels: a^27\n", "cyclic of order 27"),
]

_entries = None
_groups = {}
_presentations = {}


def catalog():
    """Name -> CatalogEntry for every built-in group."""
    global _entries
    if _entries is None:
        entries = {}
        for name, order, degree, gens, pres, desc in _RAW:
            entries[name] = CatalogEntry(
                name=name, order=order, degree=degree, perm_gens=gens,
                presentation_text=pres, description=desc)
        _entries = entries
    return _entries


def get_group(name):
    g = _groups.get(name)
    if g is None:
        entry = catalog().get(name)
        if entry is None:
            raise KeyError(f"unknown catalog group {name!r}")
        gens = [parse_cycles(s, entry.degree) for s in entry.perm_gens]
        g = FiniteGroup(gens, name=name)
        _groups[name] = g
    return g


def get_presentation(name):
    p = _presentations.get(name)
    if p is None:
        entry = catalog().get(name)
        if entry is None:
            raise KeyError(f"unknown catalog group {name!r}")
        if entry.presentation_text is None:
            return None
        p = words.parse_presentation(entry.presentation_text)
        _presentations[name] = p
    return p


def resolve_group(designator, limits=None):
    """Resolve a CLI group argument.

    ``designator`` is a catalog name, ``@file.perm`` (permutation-group
    file), or ``@file.pres`` (presentation file; the group is realized
    through its regular coset action, enumerated within ``limits``).
    Returns (group, presentation-or-None, input descriptor).
    """
    if designator.startswith("@"):
        path = designator[1:]
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        stem = os.path.splitext(os.path.basename(path))[0]
        if path.endswith(".perm"):
            group = parse_perm_group(text, name=stem)
            return group, None, {"kind": "perm-file", "path": path,
                                 "text": text}
        if path.endswith(".pres"):
            pres = words.parse_presentation(text)
            table = coset.tc_enumerate(pres.letters(), limits)
            group = coset.to_perm_group(table, name=stem)
            return group, pres, {"kind": "pres-file", "path": path,
                                 "text": text}
        raise ValueError("group files must end in .perm or .pres")
    entry = catalog().get(designator)
    if entry is None:
        raise KeyError(f"unknown group {designator!r} (try 'catalog list')")
    return (get_group(designator), get_presentation(designator),
            {"kind": "catalog", "name": designator})


def p_group_names(max_order=None):
    """(name, p) for nontrivial catalog entries of prime-power order."""
    out = []
    for name, entry in catalog().items():
        if max_order is not None and entry.order > max_order:
            continue
        n = entry.order
        if n == 1:
            continue
        p = min(d for d in range(2, n + 1) if n % d == 0)
        while n % p == 0:
            n //= p
        if n == 1:
            out.append((name, p))
    return out
