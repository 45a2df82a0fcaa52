"""The nu-group construction and the non-abelian tensor square.

For a finite group G, nu(G) is the group on two copies of G (the second
written with a trailing apostrophe, g') subject to the defining
compatibility relations

    [g1, g2']^g3 = [g1^g3, (g2^g3)'] = [g1, g2']^(g3').

The tensor square G (x) G is identified with the subgroup [G, G'] of
nu(G).  There are three construction routes; they are never assumed to
agree -- route independence compares them per group:

* "all": Todd-Coxeter over a multiplication-table presentation, the
  relations imposed over every pair of non-identity elements with the
  conjugator among G's generators (``nu_presentation``).  Every other
  generator x_g is a product of those, S, and their primed copies, S',
  and the table relators deduce its columns, so the enumeration first
  defines cosets only along S and S', then completes the table over
  every generator (``tensq.coset``).  The group is built on the
  columns of S and S' alone;
* "gens": Todd-Coxeter over generator triples of a compact
  presentation;
* "symbol": Todd-Coxeter over Brown and Loday's symbol presentation
  of G (x) G, Tietze-reduced, |G (x) G| cosets, and nu(G) assembled
  from it (``tensq.symbol``).

Every route ends in the same tail.  On every route the regular ambient
group A is generated by s for s in G's generating set S, in order, then
by s' for the same s, and the tail proves that A is nu(G):

* g |-> g and g |-> g', each swept over G from the images of S (or S'),
  are injective homomorphisms of G into A, checked on every product, so
  A satisfies both copies of G's relations;
* the certificate: for every s in S, conjugation by s and by s' sends
  [a, b'] to [a^s, (b^s)'] for all n^2 pairs (a, b), read off the n x n
  array of tensors with one gather per generator.  The argument in the
  ``nu_presentation`` docstring extends this from the conjugators in S
  and S' to every g3 and g3'.

So A satisfies every defining relation of nu(G): A is a quotient of
nu(G).  Its order is n^2 |G (x) G| = |nu(G)|: for the symbol route by
construction, since T is certified to be G (x) G; for the Todd-Coxeter
routes because their relators hold in nu(G), which makes nu(G) a
quotient of A too.  So A is nu(G), for any presentation, proved or
not.  That rho is a homomorphism, the order law and the centrality
of mu are checked as well (``tensq.nugroup``, which also holds
``NuGroup``).  The checks of a built nu(G) are in ``tensq.verify``.

Where nu(G) is assembled: ``tensq nu`` (route independence included),
``tensq verify`` for the checks about nu(G) itself (``closed``,
``decomp`` and ``rho``), and ``tensq tensor`` for one-generator groups
up to C5 (``tensor_square``'s gens route).  Otherwise ``tensq tensor``,
the relation families (i)-(v) of ``tensq verify`` and, on every group,
``tensq engel`` read only G (x) G: the crossed module of
``tensor_module`` (``tensq.crossed``), on |G (x) G| points against the
n^2 |G (x) G| of nu(G).  ``tensq verify`` enumerates once on every
group: ``build_nu`` assembles nu(G) on the symbol route from the
symbol columns of the crossed module it builds for the families.  The
cap on |G| is
``build_nu``'s (the command line's ``--max-group``): only ``tensq nu``
and those three checks of ``tensq verify`` read it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coset import (LetterPresentation, inverse_row,
                    multiplication_table_presentation, tc_enumerate,
                    to_perm_group)
from .errors import DEFAULT_GROUP_CAP, EnumerationLimits
from .linalg import abelian_invariants
# NuGroup is package API, read from here (tensq.__init__)
from .nugroup import NuGroup, certified_nu
from .perm import FiniteGroup
from .report import Check, VerificationReport
from .symbol import (assemble_nu, group_arrays, symbol_route_arrays,
                     tensor_symbols)

# ``tensor_square`` builds nu(G) on the gens route, not the crossed
# module of G (x) G, for a presentation with one generator of a cyclic
# group of order up to this.  Two reasons keep it: that report is 0.3 to
# 0.5 ms faster on C3 and C4 and within 0.1 ms on C2 and C5 (best of 9,
# 2-core Xeon), the module winning from C6 on; and perfbench's tracer
# test requires ``tensq tensor C2`` to build nu(C2), 8 elements, through
# ``tc_enumerate`` and ``to_perm_group``.
GENS_ROUTE_MAX_CYCLIC = 5


# -- presentation doubling ----------------------------------------------------


def nu_presentation(source, mode):
    """Double a presentation of G into one of nu(G), in letter rows
    (``tensq.coset``): G's relators, their primed copies (x' is
    generator x + k for k generators of G), then two compatibility
    relators per triple (g1, g2, g3), conjugated by g3, then by g3'.

    mode "all": ``source`` is G, a ``FiniteGroup``, presented by its
    ``multiplication_table_presentation``.  The compatibility relations
    are imposed for g1 and g2 over the non-identity elements and g3 over
    G's generators, a generating set S, with conjugates read off G's
    conjugation array, so each relator stays short.  That presents
    nu(G):

    * Write P(c) for "[g1, g2']^c = [g1^c, (g2^c)'] for every g1 and
      g2".  If P(c) and P(d) hold, then P(cd) holds: [g1, g2']^(cd) =
      [g1^c, (g2^c)']^d, and P(d) applied to the pair (g1^c, g2^c)
      gives [g1^(cd), (g2^(cd))'].  The same argument works for the
      conjugator c' d' = (cd)', through the primed table relators.
    * c^-1 = c^(o(c)-1) and G is finite, so every element is a positive
      word in S, and P holds for every g3 and every g3'.
    * A triple with g1 = e or g2 = e follows from the table relator
      x_e = 1, and from its primed copy: both sides are trivial.

    So there are 2(n^2 + 1) + 2(n - 1)^2 |S| relators for |G| = n.  Of
    them 4n - 2 repeat x_e = 1 or x_e' = 1 once reduced: the table
    relators x_i x_j x_ij^-1 with i = e or j = e, and their primed
    copies.  The enumerator scans each once (``tensq.coset``).
    mode "gens": ``source`` is a ``tensq.words.Presentation`` of G, and
    the relations range over its generator triples with conjugation
    written literally.
    """
    if mode == "all":
        if not isinstance(source, FiniteGroup):
            raise ValueError("mode 'all' needs a group")
        base = multiplication_table_presentation(source)
        conj = group_arrays(source)[2].tolist()
        # element 0 is the identity
        pairs = range(1, base.ngens)
        conjugators = dict.fromkeys(s for s in source.generator_indices()
                                    if s)

        def conjugate(x, g):
            return (2 * conj[x][g],)
    elif mode == "gens":
        base = source.letters()
        pairs = conjugators = range(base.ngens)

        def conjugate(x, g):
            return (2 * g + 1, 2 * x, 2 * g)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    n = base.ngens
    relators = [*base.relators,
                *(tuple(x + 2 * n for x in r) for r in base.relators)]
    for g1 in pairs:
        for g2 in pairs:
            c = (2 * g1 + 1, 2 * (g2 + n) + 1, 2 * g1, 2 * (g2 + n))
            for g3 in conjugators:
                # [a, b']^-1 = b'^-1 a^-1 b' a for a = g1^g3, b = g2^g3
                a = conjugate(g1, g3)
                b = tuple(x + 2 * n for x in conjugate(g2, g3))
                rhs_inv = (*inverse_row(b), *inverse_row(a), *b, *a)
                for g in (g3, g3 + n):
                    relators.append((2 * g + 1, *c, 2 * g, *rhs_inv))
    return LetterPresentation(2 * n, tuple(relators))


# -- the construction --------------------------------------------------------


def _validate_presentation_for(group, pres):
    if pres.ngens != len(group.generators):
        raise ValueError("presentation must have one generator per "
                         "group generator, in order")
    # letter 2g is generator g, 2g + 1 its inverse
    images = [x for s in group.generators for x in (s, s.inverse())]
    for rel in pres.relators:
        value = group.identity
        for x in rel:
            value = value * images[x]
        if not value.is_identity():
            raise ValueError(
                f"group generators do not satisfy relator {rel}")


def check_group_cap(group, max_group_order):
    """Refuse a G above the nu-construction cap, before anything is
    built."""
    n = group.order()
    if n > max_group_order:
        raise ValueError(
            f"|G| = {n} exceeds the nu-construction cap {max_group_order}; "
            "raise it with --max-group (build_nu's max_group_order)")


def build_nu(group, presentation=None, mode="symbol", *, limits=None,
             max_group_order=DEFAULT_GROUP_CAP, module=None):
    """Build nu(G) and identify its distinguished pieces.

    ``mode`` is "all" (multiplication-table route), "gens"
    (generator-triples route over ``presentation``, which only it
    reads) or "symbol" (assembled from the symbol presentation of
    G (x) G), the default.  Groups larger than ``max_group_order`` are
    rejected; raise the cap explicitly for larger experiments.  The
    "all" route enumerates with G's generators and their primed copies
    as ``spanning`` (``tc_enumerate``), so it defines cosets along them
    first, and its group is generated by their columns alone, as every
    route's is; the other routes enumerate in a single pass.  Given G's
    crossed ``module`` (``tensor_module``), the symbol route assembles
    nu(G) from its symbol columns and enumerates nothing; the other
    routes ignore it.
    """
    check_group_cap(group, max_group_order)
    limits = limits or EnumerationLimits()
    name = f"nu({group.name or 'G'})"
    n = group.order()
    arrays = (symbol_route_arrays if mode == "symbol" else group_arrays)(group)
    if mode == "symbol":
        symbols = module.symbols if module is not None \
            else tensor_symbols(arrays, limits)[0]
        ambient = assemble_nu(group, arrays, symbols, name)
    elif mode == "gens":
        if presentation is None:
            raise ValueError("mode 'gens' needs a presentation")
        _validate_presentation_for(group, presentation)
        table = tc_enumerate(nu_presentation(presentation, mode), limits)
        ambient = to_perm_group(table, name=name)
    elif mode == "all":
        gens = group.generator_indices()
        table = tc_enumerate(nu_presentation(group, mode), limits,
                             spanning=[*gens, *(s + n for s in gens)])
        ambient = to_perm_group(table, name=name)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return certified_nu(group, arrays, ambient, mode)


def tensor_module(group, *, limits=None):
    """The certified crossed module (T, phi, lambda) of G (x) G, read from
    the reduced symbol enumeration with no nu(G) assembled
    (``tensq.crossed``); the symbol route bounds it, not the cap."""
    # loaded here, not with the package, like the symbol reduction
    from .crossed import crossed_module
    return crossed_module(group, symbol_route_arrays(group),
                          limits or EnumerationLimits())


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


def squares_on_gens_route(group, presentation):
    """Whether ``tensor_square`` reads nu(G) built on the gens route: for
    a presentation with one generator and |G| <= GENS_ROUTE_MAX_CYCLIC."""
    return presentation is not None and presentation.ngens == 1 \
        and group.order() <= GENS_ROUTE_MAX_CYCLIC


def tensor_square(group, presentation=None, *, limits=None):
    """The tensor-square report: from nu(G) on the gens route where
    ``squares_on_gens_route``, otherwise from the crossed module of
    G (x) G (``tensor_module``), with no nu(G) assembled."""
    if squares_on_gens_route(group, presentation):
        return tensor_report(build_nu(group, presentation, "gens",
                                      limits=limits))
    return tensor_report(tensor_module(group, limits=limits))


def tensor_report(nu):
    """The report of a ``NuGroup`` or of a ``tensq.crossed.CrossedModule``:
    both carry the group, the tensor subgroup, mu, order() and mode."""
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
    if p is not None and p < 2:
        raise ValueError("p must be at least 2")
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


def route_independence(group, presentation=None, **kwargs):
    """Build nu(G) by every route the input allows and compare order,
    tensor order and tensor structure: the all and symbol routes need
    only G, the gens route a ``presentation``.  Returns the report and
    the builds, keyed by mode."""
    modes = ("all", "symbol") if presentation is None \
        else ("all", "gens", "symbol")
    nus = {mode: build_nu(group, presentation, mode, **kwargs)
           for mode in modes}
    reps = {mode: tensor_report(nu) for mode, nu in nus.items()}

    def agree(label, field, show=lambda v: v, **extra):
        values = [getattr(rep, field) for rep in reps.values()]
        return Check(label, values.count(values[0]) == len(values),
                     {**{mode: show(v) for mode, v in zip(reps, values)},
                      **extra})

    checks = [
        agree("nu orders agree", "nu_order"),
        # plain_equals_normal is recorded per group, not required:
        # whether the generator tensors already generate the tensor
        # subgroup as a plain subgroup
        agree("tensor orders agree", "tensor_order",
              plain_equals_normal=_plain_equals_normal(nus["all"])),
        agree("tensor abelian invariants agree", "tensor_invariants",
              show=lambda v: list(v or ())),
        agree("tensor nilpotency classes agree", "tensor_class"),
    ]
    return VerificationReport(name="route-independence", checks=checks), nus


def _plain_equals_normal(nu):
    gsub = list(nu.group.generator_indices())
    plain = nu.ambient.subgroup(nu.tensors[np.ix_(gsub, gsub)].ravel())
    return plain.index_set() == nu.tensor.index_set()


# the checks of nu(G) live in the deferred .verify, which no route runs;
# tensq.nu names them too, looked up there (PEP 562)
_CHECKS = ("derived_map_check", "verify_decomposition",
           "verify_nu_relations", "verify_tensor_set_closed")


def __getattr__(name):
    if name not in _CHECKS:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    from . import verify
    return getattr(verify, name)
