"""Seeded benchmark inputs: groups, their ``.perm`` files and job lists.

The benchmark builds its groups with its own small permutation code
(tuples of images, composed left to right like tensq), so that the
inputs never depend on the program under test.  Every group is written
with a seeded generating set and a seeded relabelling of its points;
the element numbering tensq derives from that file changes with the
seed, while the group (and so every reference value) does not.
"""

from __future__ import annotations

import os
import random
import re
from dataclasses import dataclass

WORKLOADS = ("nu-all", "nu-gens", "pgroup")

# nu-capable catalog groups (|G| <= 16).  A run takes each job's fastest
# time over its batches, which is steady on a shared host only with a
# handful of batches per run or more.  So nu-all keeps the all-route
# builds of up to ~2 s, C9 (729 cosets) the largest, for a pass of ~4 s;
# A4 and C3xC3 (~20 s each), Q8 (~9 s), D4, C2xC4 and D5 (~3.5 s each)
# are left out.  nu-gens runs every group, but the five largest nu(G)
# only through their two tensor jobs: their verify and engel jobs build
# the same nu(G) again and would take a pass from ~6 s to ~14 s.
NU_GROUPS = ("C1", "C2", "C3", "C4", "C2xC2", "C5", "C6", "S3", "C8",
             "C2xC4", "D4", "Q8", "C9", "C3xC3", "D5", "A4")
NU_ALL_GROUPS = ("C1", "C2", "C3", "C4", "C2xC2", "C5", "C6", "S3", "C8",
                 "C9")
TENSOR_ONLY_GROUPS = ("C3xC3", "A4", "Q8", "D5", "C9")

# Usual seconds of one batch process (set-up and jobs) on a 2-core Xeon;
# a run makes --seconds // PASS_S batches.
PASS_S = {"nu-all": 4.0, "nu-gens": 7.0, "pgroup": 5.0}

# Catalog p-groups (the order-27 ones included) for the pgroup workload.
CATALOG_P_GROUPS = ("C2", "C3", "C4", "C2xC2", "C5", "C8", "C2xC4", "D4",
                    "Q8", "C9", "C3xC3", "Heis3", "M27", "C27")

# ``tensq lie`` wrongly reports a Lazard failure on these two for most
# generating sets: ``liering.verify_lazard`` compares (ad x)^q with the
# class of x^q at the depth where x^q lies instead of at degree q*i, so
# when x^q lies deeper (x^[q] = 0 and (ad x)^q = 0) it sees a mismatch.
# They have no other pgroup job (class 4, order > 81), so they stay out
# of the workload until that check is fixed.
LIE_DEFECT_GROUPS = ("C2wrC2wrC2", "C2wrC2wrC2xC2")

# Largest inputs for the Engel-set / Fitting-lattice jobs and identity-f.
# identity-f on D4xD4xC2 (order 128) alone takes ~9 s and on Heis3xC3
# (order 81) ~2.5 s; without them a pass is ~5 s.
ENGEL_SET_MAX_ORDER = 81
IDENTITY_F_MAX_ORDER = 64


# -- permutations as image tuples ---------------------------------------------


def compose(f, g):
    """``f`` then ``g``."""
    return tuple(g[x] for x in f)


def identity(degree):
    return tuple(range(degree))


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text, degree):
    perm = identity(degree)
    for body in _CYCLE_RE.findall(text):
        points = [int(tok) for tok in body.split()]
        images = list(range(degree))
        for a, b in zip(points, points[1:] + points[:1]):
            images[a] = b
        perm = compose(perm, tuple(images))
    return perm


def format_cycles(perm):
    seen = set()
    out = []
    for start in range(len(perm)):
        if start in seen or perm[start] == start:
            continue
        cycle = [start]
        seen.add(start)
        x = perm[start]
        while x != start:
            cycle.append(x)
            seen.add(x)
            x = perm[x]
        out.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(out) or "()"


def closure(gens, degree):
    """All elements generated by ``gens``, as a set."""
    elems = {identity(degree)}
    frontier = list(elems)
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                f = compose(e, g)
                if f not in elems:
                    elems.add(f)
                    nxt.append(f)
        frontier = nxt
    return elems


@dataclass(frozen=True)
class PermGroup:
    """A permutation group as the benchmark builds it: name, degree and
    generators as image tuples."""
    name: str
    degree: int
    gens: tuple


def cyclic(n):
    return PermGroup(f"C{n}", n, (tuple((i + 1) % n for i in range(n)),))


def direct_product(name, *factors):
    degree = sum(f.degree for f in factors)
    gens = []
    offset = 0
    for f in factors:
        for g in f.gens:
            images = list(range(degree))
            for x in range(f.degree):
                images[offset + x] = offset + g[x]
            gens.append(tuple(images))
        offset += f.degree
    return PermGroup(name, degree, tuple(gens))


def wreath_cyclic(name, base, k):
    """``base`` wr C_k: k copies of ``base`` on blocks, permuted
    cyclically by the top group."""
    d = base.degree
    degree = d * k
    gens = []
    for g in base.gens:                  # base generators on block 0
        images = list(range(degree))
        for x in range(d):
            images[x] = g[x]
        gens.append(tuple(images))
    gens.append(tuple((x + d) % degree for x in range(degree)))
    return PermGroup(name, degree, tuple(gens))


def catalog_group(entry):
    return PermGroup(entry.name, entry.degree,
                     tuple(parse_cycles(s, entry.degree)
                           for s in entry.perm_gens))


def generated_p_groups(d4, heis3):
    """The order-32..256 p-groups of the pgroup workload, built from
    the catalog's D4 and Heis3."""
    c2, c3, c4 = cyclic(2), cyclic(3), cyclic(4)
    w222 = wreath_cyclic("C2wrC2wrC2", wreath_cyclic("C2wrC2", c2, 2), 2)
    w33 = wreath_cyclic("C3wrC3", c3, 3)
    return (
        wreath_cyclic("C4wrC2", c4, 2),
        direct_product("D4xD4", d4, d4),
        direct_product("Heis3xC3", heis3, c3),
        w33,
        w222,
        direct_product("D4xD4xC2", d4, d4, c2),
        direct_product("C3wrC3xC3", w33, c3),
        direct_product("C2wrC2wrC2xC2", w222, c2),
    )


# -- seeded presentation of a group as a .perm file ---------------------------


def seeded_generators(group, rng):
    """A random irredundant generating set of ``group``: distinct random
    elements are added until they generate, then redundant ones are
    dropped in random order."""
    pool = sorted(closure(group.gens, group.degree))
    order = len(pool)
    rng.shuffle(pool)
    gens = []
    for g in pool:
        gens.append(g)
        if len(closure(gens, group.degree)) == order:
            break
    for g in rng.sample(gens, len(gens)):
        rest = [h for h in gens if h != g]
        if rest and len(closure(rest, group.degree)) == order:
            gens = rest
    return gens


def relabel(perm, sigma):
    """Conjugate ``perm`` by the point relabelling ``sigma``."""
    out = [0] * len(perm)
    for x, y in enumerate(perm):
        out[sigma[x]] = sigma[y]
    return tuple(out)


def perm_file_text(group, rng):
    gens = seeded_generators(group, rng)
    sigma = list(range(group.degree))
    rng.shuffle(sigma)
    lines = [f"degree {group.degree}"]
    lines += [format_cycles(relabel(g, sigma)) for g in gens]
    return "\n".join(lines) + "\n"


def write_perm_file(directory, group, rng):
    path = os.path.join(directory, f"{group.name}.perm")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(perm_file_text(group, rng))
    return path


# -- jobs ---------------------------------------------------------------------


@dataclass(frozen=True)
class Job:
    """One closed-loop request: a ``tensq`` command line (``argv``) or,
    for ``engel-set``/``fitting``, a library call on the group in
    ``path``."""
    command: str
    group: str
    argv: tuple = ()
    path: str | None = None

    @property
    def label(self):
        return f"{self.command} {self.group}"


def least_prime(n):
    return next((d for d in range(2, n + 1) if n % d == 0), 2)


def build_jobs(workload, seed, batch, directory, entries, p_groups):
    """Jobs of one batch, writing the batch's ``.perm`` files into
    ``directory``.  ``entries`` is the tensq catalog (name -> entry);
    ``p_groups`` maps a pgroup input to its (order, p, class).  Batch
    ``b`` of seed ``s`` gets its own generating sets, labelling and job
    order, so medians over batches also average over numberings."""
    rng = random.Random(f"{workload}:{seed}:{batch}")
    os.makedirs(directory, exist_ok=True)

    def perm_file(group):
        return write_perm_file(
            directory, group, random.Random(f"{seed}:{batch}:{group.name}"))

    jobs = []
    if workload == "nu-all":
        names = list(NU_ALL_GROUPS)
        rng.shuffle(names)
        for name in names:
            path = perm_file(catalog_group(entries[name]))
            jobs.append(Job("nu", name, ("nu", "@" + path, "--mode", "all",
                                         "--no-cache"), path))
    elif workload == "nu-gens":
        names = list(NU_GROUPS)
        rng.shuffle(names)
        for name in names:
            p = str(least_prime(entries[name].order))
            jobs += [
                Job("tensor", name, ("tensor", name)),
                Job("tensor-hit", name, ("tensor", name)),
            ]
            if name in TENSOR_ONLY_GROUPS:
                continue
            jobs += [
                Job("verify", name,
                    ("verify", name, "--seed", str(rng.randrange(1 << 16)))),
                Job("engel", name, ("engel", name, "-p", p, "-m", "3",
                                    "-n", "2")),
            ]
    elif workload == "pgroup":
        groups = [catalog_group(entries[n]) for n in CATALOG_P_GROUPS]
        groups += generated_p_groups(groups[CATALOG_P_GROUPS.index("D4")],
                                     groups[CATALOG_P_GROUPS.index("Heis3")])
        for group in groups:
            if group.name in LIE_DEFECT_GROUPS:
                continue
            order, p, nil_class = p_groups[group.name]
            path = perm_file(group)
            at = "@" + path
            jobs.append(Job("lie", group.name, ("lie", at, "-p", str(p)),
                            path))
            if nil_class <= 2 and order <= IDENTITY_F_MAX_ORDER:
                jobs.append(Job("identity-f", group.name,
                                ("identity-f", at, "-n", "2", "-p", str(p),
                                 "-m", "1"), path))
            if order <= ENGEL_SET_MAX_ORDER:
                jobs.append(Job("engel-set", group.name, (), path))
                jobs.append(Job("fitting", group.name, (), path))
        rng.shuffle(jobs)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs
