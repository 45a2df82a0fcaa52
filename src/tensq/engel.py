"""Left Engel testing in G, and of tensors in nu(G) read from G (x) G.

An element y is left n-Engel in a group when the left-normed iterated
commutator [x, y, y, ..., y] (n copies of y) is trivial for every x of
the ambient group.  Iteration of z |-> [z, y] is a self-map of a finite
group, so reaching the identity is decidable exactly: once a value
repeats without hitting 1, it never will.  The search bound therefore
only caps the *reported* minimal degree, never the yes/no answer.

The Engel iterations run in index space over whole rows, with no
Cayley table: the map v |-> [v, y] over every v is one row of
``commutator_columns``, the conjugates v^-1 y^-1 v swept along the
breadth-first levels, then multiplied by y through y's column.  A
block of y is decided at once by composing each y's map n times; the
stacked word of ``engel_stack_identity`` depends on (x1, y1) only
through c = [x1, y1], so it is swept over all z at once for each
distinct commutator.

``engel_power_scan`` asks whether tensor powers c in T = G (x) G are
left n-Engel in nu(G), and answers in T alone, from the crossed module
of ``tensq.crossed``: nu(G) = T G' G, so as x runs over nu(G), [x, c] =
(c^-1)^x c runs over the nu(G)-class of c^-1 times c, which is the
orbit of c^-1 under T's inner automorphisms and the phi_s; the
remaining n - 1 steps z |-> [z, c] stay in T.  No nu(G) is assembled.

``fitting_subgroup`` reads Fit(G) as the elements x whose normal
closure <x^G> is nilpotent (by Fitting's theorem the nilpotent normal
subgroups are closed under products), so no join is ever built.  It
takes one closure per rational class (the conjugates of the generators
of one cyclic subgroup all have the same normal closure) and decides
nilpotency largest first: a closure inside one already found nilpotent
is nilpotent, so only the others run ``Subgroup.lower_central_series``,
the one series body, in the parent's index space, as does the final
check on the Fitting subgroup itself.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .closure import commutator_sweep, sweep_rows
from .errors import invariant
from .linalg import _prime_factors
from .report import Check, VerificationReport


@dataclass(frozen=True)
class EngelScanConfig:
    p: int
    m: int
    n: int

    def __post_init__(self):
        if _prime_factors(self.p) != {self.p: 1}:
            raise ValueError("p must be prime")
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be positive")


@dataclass
class EngelScanResult:
    """Per-pair least valid p-power q, or None when no divisor of p^m
    works."""
    config: EngelScanConfig
    table: dict = field(default_factory=dict)   # (x_idx, y_idx) -> q | None

    @property
    def all_pairs_satisfied(self):
        return all(q is not None for q in self.table.values())

    def to_dict(self):
        return {
            "p": self.config.p, "m": self.config.m, "n": self.config.n,
            "all_pairs_satisfied": self.all_pairs_satisfied,
            "pairs": {f"{x},{y}": q for (x, y), q in
                      sorted(self.table.items())},
        }


def is_left_n_engel(y, ambient, n):
    """True iff [x, n y] = 1 for every x in ``ambient`` (exhaustive)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _is_left_n_engel_idx(ambient.as_index(y), ambient, n)


def _is_left_n_engel_idx(yi, ambient, n):
    return _left_engel_mask(ambient, [yi], n)[0]


def _left_engel_mask(group, ys, n):
    """Whether each y of ``ys`` has [x, n y] = 1 for every x, deciding a
    block of y at a time."""
    out = []
    step = sweep_rows(group.order())
    for lo in range(0, len(ys), step):
        e = group.commutator_columns(ys[lo:lo + step])
        v = e
        for _ in range(n - 1):
            v = np.take_along_axis(e, v, axis=1)
        out.extend((v == 0).all(axis=1).tolist())
    return out


def engel_degree(y, ambient, bound=10):
    """Minimal n with y left n-Engel, exactly.

    Returns (is_engel, degree): degree is None when y is not left Engel
    at all, or when the true degree exceeds ``bound`` (is_engel stays
    True in that case -- the bound never flips the decision).
    """
    yi = ambient.as_index(y)
    # e^(2^k), k = 0, 1, ..., up to a power past the order: an x that
    # reaches 1 under e (which fixes 1) does so within |G| steps
    powers = [ambient.commutator_columns([yi])[0]]
    while 1 << (len(powers) - 1) < ambient.order():
        powers.append(powers[-1][powers[-1]])
    if powers[-1].any():
        return False, None
    # the longest run e^s != 1 somewhere, by binary lifting
    v = np.arange(ambient.order())
    degree = 1
    for k in reversed(range(len(powers))):
        w = powers[k][v]
        if w.any():
            v = w
            degree += 1 << k
    return True, (degree if degree <= bound else None)


def left_engel_set(group, bound):
    """Indices of the elements y with [x, n y] = 1 for all x, for some
    n <= bound."""
    if bound < 1:
        return []
    # 1 is fixed by z |-> [z, y], so y has degree <= bound exactly when
    # [x, bound y] = 1 for every x
    mask = _left_engel_mask(group, range(group.order()), bound)
    return [yi for yi, hit in enumerate(mask) if hit]


def _mark_rational_class(group, i, marked):
    """Mark in ``marked`` every conjugate of every generator of the
    cyclic subgroup of element i: all have the normal closure of i."""
    col = group.column(i)
    powers = [i]                    # i, i^2, ..., i^order = 1
    while powers[-1]:
        powers.append(int(col[powers[-1]]))
    frontier = np.array([q for k, q in enumerate(powers, start=1)
                         if math.gcd(k, len(powers)) == 1], dtype=np.intp)
    conj = group.conjugation_map()
    while frontier.size:
        marked[frontier] = True
        fresh = np.zeros_like(marked)
        fresh[conj[:, frontier]] = True
        frontier = np.flatnonzero(fresh & ~marked)


def fitting_subgroup(group):
    """Largest nilpotent normal subgroup, generated by the nilpotent
    normal closures of single elements, one per rational class walked
    in element order, with their generators in that order.  The whole
    group is tested first, so a nilpotent group tests no closure.

    Independent oracle for the set of left Engel elements of a finite
    group; shares nothing with the Engel iteration.
    """
    closures = {}
    marked = np.zeros(group.order(), dtype=bool)
    for i in range(group.order()):
        if not marked[i]:
            nc = group.normal_closure([i])
            closures.setdefault(nc.index_set(), nc)
            _mark_rational_class(group, i, marked)
    whole = group.full_subgroup()
    # a normal subgroup inside a nilpotent one is nilpotent
    found = []
    for members, s in sorted({whole.index_set(): whole, **closures}.items(),
                             key=lambda m: -len(m[0])):
        if not any(members <= m for m in found) and s.is_nilpotent():
            found.append(members)
    gens = [g for members, s in closures.items()
            if any(members <= m for m in found) for g in s.generators]
    fit = group.subgroup(list(dict.fromkeys(gens)))
    invariant(fit.is_nilpotent(),
              "join of nilpotent normal subgroups failed to be nilpotent")
    return fit


def engel_projection_check(nu, x, y, q, n):
    """If [x, y']^q is left n-Engel in nu(G), then [x, y]^q is left
    n-Engel in G: evaluate both sides exhaustively and report."""
    if n < 1:
        raise ValueError("n must be >= 1")
    amb = nu.ambient
    xi = nu.group.as_index(x)
    yi = nu.group.as_index(y)
    t = nu.tensor_elem_idx(xi, yi)
    tq = amb.pow_idx(t, q)
    hypothesis = _is_left_n_engel_idx(tq, amb, n)
    g = nu.group
    cq = g.pow_idx(g.comm_idx(xi, yi), q)
    conclusion = _is_left_n_engel_idx(cq, g, n)
    holds = (not hypothesis) or conclusion
    return VerificationReport(
        name="engel-projection",
        checks=[Check("implication holds", holds,
                      {"hypothesis": hypothesis, "conclusion": conclusion,
                       "q": q, "n": n, "pair": [xi, yi]})],
    )


def _nu_classes(module):
    """Each point of T = G (x) G labelled by the least point of its
    nu(G)-conjugacy class.  nu(G) = T G' G, and g and g' both act on T
    as phi_g, so the class is the orbit under T's inner automorphisms and
    the phi_s together: labels fall to the least label among a point's
    images, and jump to their own label's label, until none moves."""
    maps = np.concatenate([module.tgroup.conjugation_map(), module.phi])
    label = np.arange(maps.shape[1])
    while True:
        low = np.minimum(label, label[maps].min(axis=0))
        low = low[low]
        if np.array_equal(low, label):
            return label
        label = low


def _nu_engel_mask(module, ys, n):
    """Whether each y of ``ys``, indices of T, has [x, n y] = 1 for every
    x of nu(G).  As x runs over nu(G), [x, y] = (y^-1)^x y runs over the
    nu(G)-class of y^-1 times y, inside T, and the n - 1 steps z |->
    [z, y] after it stay in T: so compose those steps, one row of
    ``commutator_columns`` each, with right multiplication by y, and read
    the composite on the class of y^-1.  A block of y at a time."""
    tgroup = module.tgroup
    label = _nu_classes(module)
    inv = tgroup.inverse_indices()
    out = []
    step = sweep_rows(tgroup.order())
    for lo in range(0, len(ys), step):
        block = ys[lo:lo + step]
        e = tgroup.commutator_columns(block)
        v = tgroup.right_columns(block)
        for _ in range(n - 1):
            v = np.take_along_axis(e, v, axis=1)
        inside = label == label[inv[block]][:, None]
        out.extend((~(inside & (v != 0)).any(axis=1)).tolist())
    return out


def engel_power_scan(module, config):
    """For every pair (x, y) in G x G, the least divisor q of p^m
    (scanning 1, p, p^2, ...) making [x, y']^q left n-Engel in nu(G),
    decided in T = G (x) G of the crossed ``module``
    (``tensq.nu.tensor_module``), where the tensor x (x) y is [x, y']."""
    tgroup = module.tgroup
    qs = [config.p ** j for j in range(config.m + 1)]
    powers = {t: [tgroup.pow_idx(t, q) for q in qs]
              for t in dict.fromkeys(module.tensors.ravel().tolist())}
    # every candidate power, decided in one batch
    cands = list(dict.fromkeys(itertools.chain(*powers.values())))
    hits = dict(zip(cands, _nu_engel_mask(module, cands, config.n)))
    result = EngelScanResult(config=config)
    for pair, t in np.ndenumerate(module.tensors):
        result.table[pair] = next(
            (q for q, tq in zip(qs, powers[int(t)]) if hits[tq]), None)
    return result


def engel_stack_identity(group, n, p, m):
    """Evaluate the stacked left-normed word

        [z, n c, n c^p, n c^(p^2), ..., n c^(p^m)],   c = [x1, y1],

    over all triples (z, x1, y1); True iff it is the identity
    everywhere."""
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    if _prime_factors(p) != {p: 1}:
        raise ValueError("p must be prime")
    order = group.order()
    powers = [p ** j for j in range(m + 1)]
    # the word depends on (x1, y1) only through c: sweep every z at once
    # for each distinct commutator, a block of commutators at a time
    comms = commutator_sweep(group, range(order))
    step = sweep_rows(order * len(powers))
    for lo in range(0, len(comms), step):
        block = comms[lo:lo + step]
        steps = group.commutator_columns([group.pow_idx(c, q) for c in block
                                          for q in powers])
        for rows in steps.reshape(len(block), len(powers), order):
            w = np.arange(order)
            for e in rows:
                for _ in range(n):
                    w = e[w]
                w = w[w != 0]
                if not w.size:
                    break
            if w.size:
                return False
    return True
