"""The nu-group construction and the non-abelian tensor square.

For a finite group G, nu(G) is the group on two copies of G (the second
written with a trailing apostrophe, g') subject to the defining
compatibility relations

    [g1, g2']^g3 = [g1^g3, (g2^g3)'] = [g1, g2']^(g3'),

imposed either over every pair of non-identity elements with the
conjugator in a generating set (via a multiplication-table presentation;
mode "all") or over generator triples of a compact presentation (mode
"gens").  The tensor square G (x) G is identified with the subgroup
[G, G'] of nu(G); the two construction routes are never assumed to
agree -- route independence is checked per group.

All verification operations are read-only over an immutable NuGroup and
may run concurrently.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

import numpy as np

from .coset import (EnumerationLimits, multiplication_table_presentation,
                    tc_enumerate, to_perm_group)
from .errors import invariant
from .linalg import abelian_invariants
from .perm import FiniteGroup, Subgroup, bfs_levels
from .words import Presentation, Word, commutator_word, conjugate_word

DEFAULT_GROUP_CAP = 16


# -- verification reports -----------------------------------------------------


@dataclass
class Check:
    label: str
    passed: bool
    details: dict = field(default_factory=dict)

    def to_dict(self):
        return {"label": self.label, "passed": self.passed,
                "details": self.details}


@dataclass
class VerificationReport:
    name: str
    checks: list
    counterexample: dict | None = None

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def to_dict(self):
        return {"name": self.name, "passed": self.passed,
                "checks": [c.to_dict() for c in self.checks],
                "counterexample": self.counterexample}


# -- presentation doubling ----------------------------------------------------


def _parse_table_presentation(pres):
    """Recover the multiplication table encoded by a table presentation.

    Returns (identity index, table) where table[i][j] is the product
    index.  Raises ValueError if the relators are not of table shape.
    """
    n = pres.ngens
    identity = None
    table = [[-1] * n for _ in range(n)]
    for rel in pres.relators:
        letters = rel.letters
        if len(letters) == 1:
            g, e = letters[0]
            if e != 1:
                raise ValueError("not a multiplication-table presentation")
            if identity is not None and identity != g:
                raise ValueError("conflicting identity relators")
            identity = g
        elif len(letters) == 3:
            (i, ei), (j, ej), (k, ek) = letters
            if (ei, ej, ek) != (1, 1, -1):
                raise ValueError("not a multiplication-table presentation")
            table[i][j] = k
        else:
            raise ValueError("not a multiplication-table presentation")
    if identity is None:
        raise ValueError("table presentation lacks an identity relator")
    e = identity
    for x in range(n):
        table[e][x] = x
        table[x][e] = x
    for row in table:
        if any(v < 0 for v in row):
            raise ValueError("multiplication table is incomplete")
    return e, table


def _table_generating_set(table, e):
    """A generating set of the group of ``table``: the elements, in index
    order, that the ones kept before them do not generate."""
    span = {e}
    kept = []
    for x in range(len(table)):
        if x in span:
            continue
        kept.append(x)
        # every positive word in the kept elements; G is finite, so
        # these are the subgroup they generate
        frontier = list(span)
        while frontier:
            new = []
            for y in frontier:
                for s in kept:
                    z = table[y][s]
                    if z not in span:
                        span.add(z)
                        new.append(z)
            frontier = new
    return kept


def nu_presentation(pres, mode):
    """Double a presentation of G into a presentation of nu(G).

    mode "all": ``pres`` must be a multiplication-table presentation.
    The compatibility relations are imposed for g1 and g2 over the
    non-identity elements and g3 over a generating set S of G
    (``_table_generating_set``), with conjugates evaluated through the
    table, so each relator stays short.  That presents nu(G):

    * Write P(c) for "[g1, g2']^c = [g1^c, (g2^c)'] for every g1 and
      g2".  If P(c) and P(d) hold, then P(cd) holds: [g1, g2']^(cd) =
      [g1^c, (g2^c)']^d, and P(d) applied to the pair (g1^c, g2^c)
      gives [g1^(cd), (g2^(cd))'].  The same argument works for the
      conjugator c' d' = (cd)', through the primed table relators.
    * c^-1 = c^(o(c)-1) and G is finite, so every element is a positive
      word in S, and P holds for every g3 and every g3'.
    * A triple with g1 = e or g2 = e follows from the table relator
      x_e = 1, and from its primed copy: both sides are trivial.

    So there are 2(n^2 + 1) + 2(n - 1)^2 |S| relators for |G| = n.
    mode "gens": relations range over generator triples with
    conjugation written literally.
    """
    n = pres.ngens
    names = tuple(pres.generator_names) + tuple(
        s + "'" for s in pres.generator_names)
    shift = tuple(Word([(g + n, e) for g, e in r]) for r in pres.relators)
    relators = list(pres.relators) + list(shift)

    def gen(i):
        return Word([(i, 1)])

    if mode == "all":
        e, table = _parse_table_presentation(pres)
        inv = [row.index(e) for row in table]

        def conj(i, k):
            return table[table[inv[k]][i]][k]

        conjugators = _table_generating_set(table, e)
        nontrivial = [g for g in range(n) if g != e]
        for g1 in nontrivial:
            for g2 in nontrivial:
                c = commutator_word(gen(g1), gen(g2 + n))
                for g3 in conjugators:
                    a = conj(g1, g3)
                    b = conj(g2, g3)
                    rhs_inv = commutator_word(gen(a), gen(b + n)).inverse()
                    relators.append(conjugate_word(c, gen(g3)) * rhs_inv)
                    relators.append(conjugate_word(c, gen(g3 + n)) * rhs_inv)
    elif mode == "gens":
        for g1 in range(n):
            for g2 in range(n):
                c = commutator_word(gen(g1), gen(g2 + n))
                for g3 in range(n):
                    a = conjugate_word(gen(g1), gen(g3))
                    b = Word([(g + n, e)
                              for g, e in conjugate_word(gen(g2), gen(g3))])
                    rhs_inv = commutator_word(a, b).inverse()
                    relators.append(conjugate_word(c, gen(g3)) * rhs_inv)
                    relators.append(conjugate_word(c, gen(g3 + n)) * rhs_inv)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return Presentation(names, tuple(relators))


# -- the construction --------------------------------------------------------


@dataclass
class NuGroup:
    """nu(G), enumerated; immutable after construction."""
    group: FiniteGroup
    ambient: FiniteGroup
    mode: str
    left: np.ndarray          # G element index -> ambient index of g
    right: np.ndarray         # G element index -> ambient index of g'
    tensor: Subgroup          # [G, G'] inside the ambient
    mu: Subgroup              # kernel of the derived map, inside the ambient
    rho: np.ndarray           # ambient index -> G element index

    def order(self):
        return self.ambient.order()

    def tensor_elem_idx(self, x, y):
        """Ambient index of the tensor [x, y'] for x, y in G."""
        a = self.group.as_index(x)
        b = self.group.as_index(y)
        return self.ambient.comm_idx(int(self.left[a]), int(self.right[b]))

    def all_tensor_indices(self):
        """Ambient indices of {[a, b'] : a, b in G}, deduplicated, with
        one (a, b) witness each, in lexicographic scan order."""
        out = {}
        n = self.group.order()
        for a in range(n):
            for b in range(n):
                t = self.tensor_elem_idx(a, b)
                if t not in out:
                    out[t] = (a, b)
        return out


def _validate_presentation_for(group, pres):
    if pres.ngens != len(group.generators):
        raise ValueError("presentation must have one generator per "
                         "group generator, in order")
    images = list(group.generators)
    for rel in pres.relators:
        if not rel.evaluate(images, identity=group.identity).is_identity():
            raise ValueError(
                f"group generators do not satisfy relator {rel!r}")


def build_nu(group, presentation=None, mode="auto", *, limits=None,
             max_group_order=DEFAULT_GROUP_CAP):
    """Enumerate nu(G) and identify its distinguished pieces.

    ``mode`` is "all" (multiplication-table route), "gens"
    (generator-triples route over ``presentation``), or "auto" (gens
    when a presentation is supplied, else all).  Groups larger than
    ``max_group_order`` are rejected; raise the cap explicitly for
    larger experiments.
    """
    n = group.order()
    if n > max_group_order:
        raise ValueError(
            f"|G| = {n} exceeds the nu-construction cap {max_group_order}; "
            "pass max_group_order explicitly to override")
    if mode == "auto":
        mode = "gens" if presentation is not None else "all"
    if mode == "gens":
        if presentation is None:
            raise ValueError("mode 'gens' needs a presentation")
        _validate_presentation_for(group, presentation)
        base = presentation
        k = base.ngens
    elif mode == "all":
        base = multiplication_table_presentation(group).presentation
        k = n
    else:
        raise ValueError(f"unknown mode {mode!r}")

    pres = nu_presentation(base, mode)
    table = tc_enumerate(pres, (), limits or EnumerationLimits())
    ambient = to_perm_group(table, name=f"nu({group.name or 'G'})")

    gen_idx = ambient.generator_indices()
    gsub = group.generator_indices()
    if mode == "all":
        rho_gen = list(range(n)) + list(range(n))
        left = np.array(gen_idx[:n], dtype=np.int32)
        right = np.array(gen_idx[n:], dtype=np.int32)
    else:
        rho_gen = gsub + gsub
        left = np.empty(n, dtype=np.int32)
        right = np.empty(n, dtype=np.int32)
        for i in range(n):
            word = group.word(i)
            li = ri = 0
            for letter in word:
                li = ambient.mul_idx(li, gen_idx[letter])
                ri = ambient.mul_idx(ri, gen_idx[k + letter])
            left[i] = li
            right[i] = ri

    # rho: fold the quotient map nu(G) ->> G over a breadth-first sweep,
    # then certify it is a homomorphism on every edge of the Cayley graph.
    # R[t] is right multiplication by generator t of nu(G), and
    # gright[i, t] is G's element i times the image of generator t.
    N = ambient.order()
    R = ambient.right_columns(gen_idx)
    gright = np.array([[group.mul_idx(i, r) for r in rho_gen]
                       for i in range(n)])
    rho = np.full(N, -1, dtype=np.int32)
    rho[0] = 0
    for src, gen, new in bfs_levels(R):
        rho[new] = gright[rho[src], gen]
    invariant(bool((rho >= 0).all()),
              "the rho sweep missed elements of nu(G)")
    for t in range(len(gen_idx)):
        invariant(np.array_equal(rho[R[t]], gright[rho, t]),
                  "rho is not a homomorphism; "
                  "enumeration is inconsistent")

    tensor = ambient.normal_closure(
        [ambient.comm_idx(int(left[a]), int(right[b]))
         for a in gsub for b in gsub])
    mu_idx = [t for t in tensor.indices() if rho[t] == 0]
    mu = Subgroup._from_indices(ambient, tuple(mu_idx))

    # construction invariants (theorem-level; failures mean a bug)
    invariant(len(set(int(i) for i in left)) == n,
              "the left copy of G is not injective")
    invariant(len(set(int(i) for i in right)) == n,
              "the right copy of G is not injective")
    for i in range(n):
        for j in range(n):
            ij = group.mul_idx(i, j)
            invariant(ambient.mul_idx(int(left[i]), int(left[j])) == left[ij],
                      "the left copy of G is not a homomorphism")
            invariant(
                ambient.mul_idx(int(right[i]), int(right[j])) == right[ij],
                "the right copy of G is not a homomorphism")
        invariant(rho[left[i]] == i and rho[right[i]] == i,
                  "rho does not split the copies of G")
    invariant(N == tensor.order() * n * n,
              f"order law fails: {N} != {tensor.order()} * {n}^2")
    # mu is central: s^-1 m s = m for every generator s
    members = np.asarray(mu.indices())
    invariant(bool((ambient.generator_conjugates(members) == members).all()),
              "mu is not central")

    rho.setflags(write=False)
    left.setflags(write=False)
    right.setflags(write=False)
    return NuGroup(group=group, ambient=ambient, mode=mode, left=left,
                   right=right, tensor=tensor, mu=mu, rho=rho)


# -- reports ------------------------------------------------------------------


@dataclass
class TensorReport:
    group_order: int
    nu_order: int
    tensor_order: int
    mu_order: int
    tensor_abelian: bool
    tensor_invariants: tuple | None
    tensor_class: int | None
    mode: str

    def to_dict(self):
        return {
            "group_order": self.group_order,
            "nu_order": self.nu_order,
            "tensor_order": self.tensor_order,
            "mu_order": self.mu_order,
            "tensor_abelian": self.tensor_abelian,
            "tensor_invariants": (list(self.tensor_invariants)
                                  if self.tensor_invariants is not None
                                  else None),
            "tensor_class": self.tensor_class,
            "mode": self.mode,
        }


def tensor_square(group, presentation=None, mode="auto", **kwargs):
    nu = build_nu(group, presentation, mode, **kwargs)
    return tensor_report(nu)


def tensor_report(nu):
    tensor = nu.tensor
    abelian = tensor.is_abelian()
    invariants = tuple(abelian_invariants(tensor)) if abelian else None
    tclass = tensor.nilpotency_class() if tensor.is_nilpotent() else None
    return TensorReport(
        group_order=nu.group.order(),
        nu_order=nu.order(),
        tensor_order=tensor.order(),
        mu_order=nu.mu.order(),
        tensor_abelian=abelian,
        tensor_invariants=invariants,
        tensor_class=tclass,
        mode=nu.mode,
    )


def tensor_order(x, y, nu, p=None):
    """Order of the tensor [x, y'] in nu(G); when ``p`` is given, also
    the least p-power killing it (None unless the order is a p-power).
    """
    t = nu.tensor_elem_idx(x, y)
    order = nu.ambient.order_of_idx(t)
    min_p_power = None
    if p is not None:
        m = order
        while m % p == 0:
            m //= p
        if m == 1:
            min_p_power = order
    return order, min_p_power


# -- identity verification ----------------------------------------------------

RELATION_FAMILIES = ("i", "ii", "iii", "iv", "v")


def _family_arity(fam):
    return {"i": 4, "ii": 3, "iii": 2, "iv": 3, "v": 4}[fam]


def verify_nu_relations(nu, exhaustive_cap=8, samples=10_000, seed=0,
                        families=RELATION_FAMILIES):
    """Check the basic tensor-commutator identities in nu(G).

    Exhaustive over all tuples when |G| <= exhaustive_cap, else over
    ``samples`` seeded uniform tuples.  Family (iii) restricts one slot
    to the derived subgroup, as the identity requires.
    """
    G = nu.group
    amb = nu.ambient
    n = G.order()
    left, right = nu.left, nu.right
    mul, inv, comm, conj = amb.mul_idx, amb.inv_idx, amb.comm_idx, amb.conj_idx

    def t(a, b):
        return comm(int(left[a]), int(right[b]))

    def fam_i(g, h, x, y):
        lhs = conj(t(g, h), t(x, y))
        rhs = conj(t(g, h), comm(int(left[x]), int(left[y])))
        return lhs == rhs

    def fam_ii(g, h, x):
        vals = {
            comm(comm(int(left[g]), int(right[h])), int(right[x])),
            comm(comm(int(left[g]), int(left[h])), int(right[x])),
            comm(comm(int(left[g]), int(right[h])), int(left[x])),
            comm(comm(int(right[g]), int(left[h])), int(right[x])),
            comm(comm(int(right[g]), int(right[h])), int(left[x])),
            comm(comm(int(right[g]), int(left[h])), int(left[x])),
        }
        return len(vals) == 1

    def fam_iii(g, h):
        return mul(t(g, h), t(h, g)) == 0

    def fam_iv(g, h, x):
        c = G.comm_idx(h, x)
        return t(g, c) == inv(comm(int(left[c]), int(right[g])))

    def fam_v(g, h, x, y):
        lhs = comm(t(g, h), t(x, y))
        rhs = comm(int(left[G.comm_idx(g, h)]),
                   int(right[G.comm_idx(x, y)]))
        return lhs == rhs

    evaluators = {"i": fam_i, "ii": fam_ii, "iii": fam_iii, "iv": fam_iv,
                  "v": fam_v}
    derived = G.derived_subgroup().indices()
    exhaustive = n <= exhaustive_cap
    rng = random.Random(seed)
    checks = []
    counterexample = None

    for fam in families:
        fn = evaluators[fam]
        arity = _family_arity(fam)
        if fam == "iii":
            if exhaustive:
                tuples = itertools.chain(
                    ((g, h) for g in range(n) for h in derived),
                    ((g, h) for g in derived for h in range(n)))
            else:
                tuples = itertools.chain(
                    ((rng.randrange(n), derived[rng.randrange(len(derived))])
                     for _ in range(samples // 2)),
                    ((derived[rng.randrange(len(derived))], rng.randrange(n))
                     for _ in range(samples - samples // 2)))
        elif exhaustive:
            tuples = itertools.product(range(n), repeat=arity)
        else:
            tuples = (tuple(rng.randrange(n) for _ in range(arity))
                      for _ in range(samples))
        count = 0
        bad = None
        for tup in tuples:
            count += 1
            if not fn(*tup):
                bad = tup
                break
        passed = bad is None
        checks.append(Check(
            label=f"relation ({fam})", passed=passed,
            details={"checked": count,
                     "mode": "exhaustive" if exhaustive else "sampled"}))
        if bad is not None and counterexample is None:
            counterexample = {
                "family": fam,
                "tuple": [int(v) for v in bad],
                "words": [list(G.word(int(v))) for v in bad],
            }
    return VerificationReport(name="nu-relations", checks=checks,
                              counterexample=counterexample)


def verify_tensor_set_closed(nu):
    """The set X = {[a, b'] : a, b in G} is normal in nu(G) and closed
    under commutators, with [[a,b'],[c,d']] = [[a,b], [c,d]'] verified
    elementwise."""
    amb = nu.ambient
    G = nu.group
    witnesses = nu.all_tensor_indices()
    members = list(witnesses)
    inside = np.zeros(amb.order(), dtype=bool)
    inside[members] = True
    checks = []
    counterexample = None

    # every conjugate of every witness by every generator, in one gather
    # and with no column per witness; the first miss, witness-major
    miss = np.argwhere(~inside[amb.generator_conjugates(members)].T)
    bad = None
    if miss.size:
        x, t = miss[0].tolist()
        bad = (members[x], amb.generator_indices()[t])
    checks.append(Check("X is a normal subset", bad is None,
                        {"set_size": len(members)}))
    if bad and counterexample is None:
        counterexample = {"kind": "normality", "tensor": bad[0],
                          "conjugator": bad[1]}

    bad = None
    for x1, (a, b) in witnesses.items():
        for x2, (c, d) in witnesses.items():
            got = amb.comm_idx(x1, x2)
            want = nu.tensor_elem_idx(G.comm_idx(a, b), G.comm_idx(c, d))
            if got != want or not inside[got]:
                bad = (a, b, c, d)
                break
        if bad:
            break
    checks.append(Check("X is commutator-closed, elementwise", bad is None,
                        {"pairs": len(members) ** 2}))
    if bad and counterexample is None:
        counterexample = {"kind": "commutator", "tuple": list(bad)}

    span = amb.subgroup(witnesses)
    checks.append(Check("X generates the tensor subgroup",
                        span.index_set() == nu.tensor.index_set(),
                        {"tensor_order": nu.tensor.order()}))
    return VerificationReport(name="tensor-set-closed", checks=checks,
                              counterexample=counterexample)


def verify_decomposition(nu):
    """Decomposition of the derived subgroup of nu(G) as the iterated
    internal semidirect product ([G,G'] . G') . (G')'."""
    amb = nu.ambient
    G = nu.group
    nu_prime = amb.derived_subgroup()
    gp = G.derived_subgroup()
    t_idx = nu.tensor.indices()
    l_gp = [int(nu.left[i]) for i in gp.indices()]
    r_gp = [int(nu.right[i]) for i in gp.indices()]

    tl = set()
    for t in t_idx:
        for a in l_gp:
            tl.add(amb.mul_idx(t, a))
    tlr = set()
    for u in tl:
        for b in r_gp:
            tlr.add(amb.mul_idx(u, b))

    checks = [
        Check("tensor meets left copy of G' trivially",
              len(tl) == len(t_idx) * len(l_gp),
              {"product_size": len(tl)}),
        Check("first factor meets right copy of G' trivially",
              len(tlr) == len(tl) * len(r_gp),
              {"product_size": len(tlr)}),
        Check("set product equals the derived subgroup of nu(G)",
              tlr == nu_prime.index_set(),
              {"nu_prime_order": nu_prime.order()}),
        Check("order law |nu(G)'| = |tensor| * |G'|^2",
              nu_prime.order() ==
              nu.tensor.order() * gp.order() * gp.order(),
              {"tensor_order": nu.tensor.order(), "gprime": gp.order()}),
    ]

    # tl = tensor . G' lies in the group generated by X, the generators
    # of the tensor subgroup and of the left copy of G', and contains X.
    # If 1 is in tl and tl . s lies in tl for every s in X, then tl holds
    # every positive word in X, which is all of <X> since nu(G) is
    # finite; so tl = <X> is a subgroup.  A subgroup containing X passes
    # both tests, so they equal the pairwise check tl . tl within tl,
    # and they read one column per member of X, not one per member of tl.
    x_idx = list(nu.tensor.generators) + \
        [int(nu.left[g]) for g in gp.generators]
    members = np.fromiter(tl, dtype=np.intp, count=len(tl))
    inside = np.zeros(amb.order(), dtype=bool)
    inside[members] = True
    tl_closed = 0 in tl and \
        bool(inside[amb.right_columns(x_idx)[:, members]].all())
    checks.append(Check("tensor . G' is a subgroup", tl_closed,
                        {"order": len(tl)}))
    # u^g = (g^-1 u) g with g^-1 u = (u^-1 g)^-1: only g's column is read
    inv = amb.inverse_indices()
    inv_members = inv[members]
    normal = all(
        bool(inside[c[inv[c[inv_members]]]].all())
        for c in amb.right_columns(nu_prime.generators))
    checks.append(Check("tensor . G' is normal in nu(G)'", normal, {}))
    return VerificationReport(name="decomposition", checks=checks)


def derived_map_check(nu):
    """The derived map rho' : [G,G'] -> G', [a,b'] |-> [a,b]; its kernel
    mu is central and the induced map [G,G']/mu -> G' is an
    isomorphism."""
    amb = nu.ambient
    G = nu.group
    n = G.order()
    gp = G.derived_subgroup()
    rho = nu.rho
    checks = []

    ok = all(int(rho[nu.tensor_elem_idx(a, b)]) == G.comm_idx(a, b)
             for a in range(n) for b in range(n))
    checks.append(Check("rho'([a,b']) = [a,b] for all pairs", ok,
                        {"pairs": n * n}))

    mu_set = nu.mu.index_set()
    ok = all((int(rho[t]) == 0) == (t in mu_set)
             for t in nu.tensor.indices())
    checks.append(Check("mu = kernel of rho' on the tensor subgroup", ok,
                        {"mu_order": nu.mu.order()}))

    # the mu-cosets of the tensor subgroup, in the ambient's index
    # space: the coset of r is column r read at mu, one column per coset
    labelled = np.zeros(amb.order(), dtype=bool)
    mu_members = np.asarray(nu.mu.indices())
    cosets = 0
    for r in nu.tensor.indices():
        if not labelled[r]:
            labelled[amb.column(r)[mu_members]] = True
            cosets += 1
    checks.append(Check("|tensor / mu| = |G'|", cosets == gp.order(),
                        {"quotient_order": cosets,
                         "gprime_order": gp.order()}))

    image = {int(rho[t]) for t in nu.tensor.indices()}
    checks.append(Check("rho' maps the tensor subgroup onto G'",
                        image == set(gp.indices()), {}))

    # each fiber of rho' is one mu-coset
    fibers = {}
    for t in nu.tensor.indices():
        fibers.setdefault(int(rho[t]), []).append(t)
    ok = all(len(members) == nu.mu.order() and
             {amb.mul_idx(t, amb.inv_idx(members[0])) for t in members}
             == mu_set
             for members in fibers.values())
    checks.append(Check("fibers of rho' are mu-cosets", ok,
                        {"fibers": len(fibers)}))

    # s^-1 m s = m for every generator s, with no column cached per m
    central = bool((amb.generator_conjugates(mu_members)
                    == mu_members).all())
    checks.append(Check("mu is central in nu(G)", central, {}))
    return VerificationReport(name="derived-map", checks=checks)


def route_independence(group, presentation, **kwargs):
    """Build nu(G) by both routes and compare order, tensor order and
    tensor structure."""
    nu_all = build_nu(group, mode="all", **kwargs)
    nu_gens = build_nu(group, presentation, mode="gens", **kwargs)
    rep_all = tensor_report(nu_all)
    rep_gens = tensor_report(nu_gens)
    checks = [
        Check("nu orders agree", rep_all.nu_order == rep_gens.nu_order,
              {"all": rep_all.nu_order, "gens": rep_gens.nu_order}),
        # plain_equals_normal is recorded per group, not required:
        # whether the generator tensors already generate the tensor
        # subgroup as a plain subgroup
        Check("tensor orders agree",
              rep_all.tensor_order == rep_gens.tensor_order,
              {"all": rep_all.tensor_order, "gens": rep_gens.tensor_order,
               "plain_equals_normal": _plain_equals_normal(nu_all)}),
        Check("tensor abelian invariants agree",
              rep_all.tensor_invariants == rep_gens.tensor_invariants,
              {"all": list(rep_all.tensor_invariants or ()),
               "gens": list(rep_gens.tensor_invariants or ())}),
        Check("tensor nilpotency classes agree",
              rep_all.tensor_class == rep_gens.tensor_class,
              {"all": rep_all.tensor_class, "gens": rep_gens.tensor_class}),
    ]
    return VerificationReport(name="route-independence", checks=checks), \
        nu_all, nu_gens


def _plain_equals_normal(nu):
    gsub = nu.group.generator_indices()
    plain = nu.ambient.subgroup([nu.tensor_elem_idx(a, b)
                                 for a in gsub for b in gsub])
    return plain.index_set() == nu.tensor.index_set()
