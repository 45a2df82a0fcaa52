"""Dimension subgroups and the graded Lie ring of a finite p-group.

The dimension subgroups in characteristic p,

    D_i = product of (gamma_j(G))^(p^k) over all j * p^k >= i,

form a central series with elementary abelian quotients; the direct sum
of the quotients D_i/D_{i+1} is a graded Lie ring over F_p whose
bracket is induced by group commutators of coset representatives.  A
classical recursion D_i = [D_{i-1}, G] * (D_ceil(i/p))^p computes the
same series and serves as an independent oracle for the product
formula.  Its commutator step [D_{i-1}, G] is one ``commutator_sweep``
along the breadth-first levels, with no Cayley table, deduplicated in
the order a loop over element pairs meets the commutators, so each term
keeps the generators, and the element order, that loop gives it.

The ring is read from index arrays.  Each degree's cosets are labelled
in one sweep over the parent's index space: D_{i+1} is labelled 0, and
the k-th basis lift c extends the labelled set L to L c, ..., L c^(p-1),
one gather per power through c's column, adding multiples of p^k to
L's labels; the quotient is central, so the labels add.  A label is
the F_p coordinate vector v of the coset, stored as sum v_k p^k.
Structure constants are the labels of the lifts' commutators, and each
bracket span (the terms of the ring's lower central series, L_p(G))
stacks every bracket into a target degree and row-reduces them once.

Only the bracket structure is realized here (no p-power operation on
the ring); adjoint maps are matrices over F_p in the full graded basis.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .closure import commutator_sweep
from .errors import invariant
from .linalg import contract, mat_pow_mod, rref_mod
from .report import Check, VerificationReport


def _check_p_group(group, p):
    # is_p_group raises "p must be prime" for any other p
    if not group.is_p_group(p):
        raise ValueError(f"group of order {group.order()} is not a {p}-group")


@dataclass(frozen=True)
class PGroupSeries:
    """Descending central series D_1 = G >= D_2 >= ... with the final
    trivial term included."""
    p: int
    terms: tuple

    @property
    def length(self):
        """Number of degrees c (terms D_1..D_c before the trivial
        term)."""
        return len(self.terms) - 1

    def depth_of(self, idx):
        """Largest i with element ``idx`` in D_i; None for the
        identity."""
        if idx == 0:
            return None
        for i in range(self.length, 0, -1):
            if self.terms[i - 1].contains_index(idx):
                return i
        raise ValueError("element is not in D_1")

    def termwise_equal(self, other):
        return (len(self.terms) == len(other.terms)
                and all(a.index_set() == b.index_set()
                        for a, b in zip(self.terms, other.terms)))


def dimension_subgroups(group, p):
    """Evaluate the defining product formula for the dimension
    subgroups literally, term by term, until the series reaches 1."""
    _check_p_group(group, p)
    # (j * p^k, the members of gamma_j raised to p^k), k = 0, 1, ... up
    # to the first power that kills every member
    powers = []
    for j, gterm in enumerate(group.lower_central_series().terms, start=1):
        if gterm.order() == 1:
            continue
        weight, members = j, list(gterm.indices())
        powers.append((weight, members))
        while any(members):
            weight, members = weight * p, [group.pow_idx(idx, p)
                                           for idx in members]
            powers.append((weight, members))
    terms = []
    while not terms or terms[-1].order() > 1:
        i = len(terms) + 1
        terms.append(group.subgroup(dict.fromkeys(
            idx for weight, members in powers if weight >= i
            for idx in members)))
    return PGroupSeries(p=p, terms=tuple(terms))


def jennings_recursion(group, p):
    """Independent oracle: D_1 = G, D_i = [D_{i-1}, G] * (D_ceil(i/p))^p,
    with commutators taken exhaustively over element pairs."""
    _check_p_group(group, p)
    terms = [group.full_subgroup()]
    while terms[-1].order() > 1:
        half = terms[math.ceil((len(terms) + 1) / p) - 1]
        gens = dict.fromkeys(commutator_sweep(group, terms[-1].indices()))
        for d in half.indices():
            gens.setdefault(group.pow_idx(d, p))
        terms.append(group.subgroup(gens))
    return PGroupSeries(p=p, terms=tuple(terms))


def _digits(labels, p, dim):
    """F_p coordinates of coset labels sum v_k p^k, on a new last axis.
    The powers p^k are Python integers: a numpy ``**`` would map a
    kernel nothing else in a run calls."""
    powers = np.array([p ** k for k in range(dim)], dtype=np.int64)
    return np.asarray(labels, dtype=np.int64)[..., None] // powers % p


@dataclass(frozen=True)
class GradedElement:
    """Homogeneous element: degree, F_p coordinates over that degree's
    basis, and an optional group lift (element index)."""
    degree: int
    coords: tuple
    lift: int | None = None

    def is_zero(self):
        return all(c == 0 for c in self.coords)


class GradedLieRing:
    """The graded ring sum of D_i/D_{i+1} over F_p.

    Basis representatives per degree are chosen greedily in D_i's
    breadth-first order (``D_i.indices()``): each member not yet in the
    span of D_{i+1} and the lifts before it is the next lift.  Structure
    constants are the coordinates of group commutators of the chosen
    lifts.  Immutable after construction.
    """

    def __init__(self, series, shift_transversal=False):
        self.series = series
        self.p = p = series.p
        terms = series.terms
        self.group = g = terms[0].parent
        self.degrees = c = series.length
        self.dims = []
        self.basis_lifts = []      # per degree: tuple of element indices
        # per degree: label of each element of the parent, -1 outside D_i
        self.coords_of = []

        for d_i, d_next in zip(terms, terms[1:]):
            quotient = d_i.order() // d_next.order()
            dim = 0
            while p ** dim < quotient:
                dim += 1
            if p ** dim != quotient:
                raise ValueError("quotient is not elementary abelian of "
                                 "exponent p")
            labels = np.full(g.order(), -1, dtype=np.int64)
            labels[list(d_next.indices())] = 0
            chosen = []
            for idx in d_i.indices():
                if len(chosen) == dim:
                    break
                if labels[idx] >= 0:
                    continue
                span = np.flatnonzero(labels >= 0)
                x, col = span, g.column(idx)
                for e in range(1, p):
                    x = col[x]
                    invariant(not (labels[x] >= 0).any(),
                              "coset labeling conflict")
                    labels[x] = labels[span] + e * p ** len(chosen)
                chosen.append(idx)
            invariant(np.count_nonzero(labels >= 0) == d_i.order(),
                      "coset labeling incomplete")
            lifts = chosen
            if shift_transversal and d_next.order() > 1:
                t = d_next.indices()[-1]
                lifts = [g.mul_idx(x, t) for x in chosen]
            self.dims.append(dim)
            self.basis_lifts.append(tuple(lifts))
            self.coords_of.append(labels)

        self.total_dim = sum(self.dims)
        self.offsets = []
        off = 0
        for d in self.dims:
            self.offsets.append(off)
            off += d

        # commutators[j - 1][b, x] = index([element_x, lift b of degree
        # j]), read-only; verify_lie_axioms reads them too
        self.commutators = comm = tuple(
            g.commutator_columns(lifts) for lifts in self.basis_lifts)
        for array in comm:
            array.setflags(write=False)
        self.constants = {}
        for i in range(1, c + 1):
            for j in range(1, c + 1 - i):
                labels = self.coords_of[i + j - 1][
                    comm[j - 1][:, list(self.basis_lifts[i - 1])].T]
                invariant((labels >= 0).all(), "[D_i, D_j] escaped D_{i+j}")
                self.constants[(i, j)] = _digits(labels, p,
                                                 self.dims[i + j - 1])

    # -- elements ---------------------------------------------------------

    def dim(self, degree):
        if 1 <= degree <= self.degrees:
            return self.dims[degree - 1]
        return 0

    def class_coords(self, degree, idx):
        """Coordinates of the class of group element ``idx`` in
        D_degree / D_degree+1 (zero vector if it falls into the next
        term)."""
        if self.dim(degree) == 0:
            return np.zeros(0, dtype=np.int64)
        label = self.coords_of[degree - 1][idx]
        if label < 0:
            raise ValueError(f"element is not in D_{degree}")
        return _digits(label, self.p, self.dim(degree))

    def basis_element(self, degree, t):
        coords = [0] * self.dim(degree)
        coords[t] = 1
        return GradedElement(degree, tuple(coords),
                             lift=self.basis_lifts[degree - 1][t])

    def basis(self):
        return [self.basis_element(i, t)
                for i in range(1, self.degrees + 1)
                for t in range(self.dim(i))]

    def homogeneous(self, degree, coords, lift=None):
        coords = tuple(int(x) % self.p for x in coords)
        if len(coords) != self.dim(degree):
            raise ValueError("coordinate length does not match the degree")
        return GradedElement(degree, coords, lift=lift)

    def zero(self, degree):
        return GradedElement(degree, (0,) * self.dim(degree))

    def bracket(self, u, v):
        """[u, v] for homogeneous u, v (bilinear over the structure
        constants)."""
        k = u.degree + v.degree
        if k > self.degrees or self.dim(k) == 0:
            return self.zero(min(k, self.degrees + 1))
        arr = self.constants[(u.degree, v.degree)]
        uu = np.array(u.coords, dtype=np.int64)
        vv = np.array(v.coords, dtype=np.int64)
        out = contract(vv, contract(uu, arr)) % self.p
        return GradedElement(k, tuple(int(x) for x in out))

    # -- adjoint maps -------------------------------------------------------

    def ad_matrix(self, elems):
        """Matrix of u |-> [u, a] in the full graded basis, where ``a``
        is a homogeneous element or a finite sum of them."""
        if isinstance(elems, GradedElement):
            elems = [elems]
        n = self.total_dim
        mat = np.zeros((n, n), dtype=np.int64)
        for v in elems:
            d = v.degree
            if self.dim(d) == 0:
                continue
            vv = np.array(v.coords, dtype=np.int64)
            for j in range(1, self.degrees + 1):
                k = j + d
                if k > self.degrees or self.dim(j) == 0 or self.dim(k) == 0:
                    continue
                # block[k, s] = sum_t v_t c[s, t, k]: (dim k, dim j)
                block = contract(vv, self.constants[(j, d)]
                                 .transpose(1, 2, 0))
                oj, ok = self.offsets[j - 1], self.offsets[k - 1]
                mat[ok:ok + self.dim(k), oj:oj + self.dim(j)] += block
        return mat % self.p


def lie_ring(series, shift_transversal=False):
    return GradedLieRing(series, shift_transversal=shift_transversal)


def ad_nilpotency_index(elem, ring):
    """Least n with (ad a)^n = 0 on the whole ring; None only if the
    adjoint fails to be nilpotent (impossible for valid graded input).
    """
    a = ring.ad_matrix(elem)
    m = a.copy()
    for n in range(1, ring.total_dim + 2):
        if not m.any():
            return n
        m = contract(m, a) % ring.p
    return None


def _bracket_span(ring, left, right, start=None):
    """Row-reduced bases over F_p, per target degree k, of the brackets
    [u, v] for every row u of ``left[i]`` and v of ``right[j]`` with
    i + j = k, together with the rows of ``start[k]``: all of a degree's
    rows are stacked and reduced once.  Degrees with a zero span are
    left out."""
    stacks = {k: [rows] for k, rows in (start or {}).items()}
    for (i, u), (j, v) in itertools.product(left.items(), right.items()):
        k = i + j
        if k <= ring.degrees and ring.dim(k):
            # w[a, b] = [u_a, v_b] = sum_s u[a, s] sum_t v[b, t] c[s, t]
            vc = contract(v, ring.constants[(i, j)].transpose(1, 0, 2))
            w = contract(u, vc.transpose(1, 0, 2))
            stacks.setdefault(k, []).append(w.reshape(-1, ring.dim(k)))
    spans = {k: rref_mod(np.vstack(rows), ring.p)[0]
             for k, rows in sorted(stacks.items())}
    return {k: b for k, b in spans.items() if len(b)}


def lie_nilpotency_class(ring):
    """Largest k with the k-th term of the ring's lower central series
    nonzero (0 for the zero ring, 1 for a nonzero abelian ring)."""
    if ring.total_dim == 0:
        return 0
    whole = {i: np.eye(ring.dim(i), dtype=np.int64)
             for i in range(1, ring.degrees + 1) if ring.dim(i)}
    term, k = whole, 1
    while True:
        term = _bracket_span(ring, term, whole)
        if not term:
            return k
        k += 1


@dataclass
class GradedSubspace:
    """Graded subspace given by per-degree row bases over F_p."""
    p: int
    bases: dict

    def dimension(self, degree):
        b = self.bases.get(degree)
        return 0 if b is None else len(b)

    def is_all_of(self, ring):
        return all(self.dimension(i) == ring.dim(i)
                   for i in range(1, ring.degrees + 1))


def subalgebra_Lp(ring):
    """Smallest bracket-closed graded subspace containing the full
    degree-1 component (the subalgebra written L_p(G))."""
    spans = {}
    if ring.degrees >= 1 and ring.dim(1):
        spans[1] = np.eye(ring.dim(1), dtype=np.int64)
    while True:
        grown = _bracket_span(ring, spans, spans, start=spans)
        if all(len(b) == len(spans.get(k, ())) for k, b in grown.items()):
            return GradedSubspace(p=ring.p, bases=grown)
        spans = grown


def verify_lie_axioms(ring):
    """Antisymmetry, alternation, Jacobi on all basis triples, and
    group-level additivity of the induced bracket."""
    p = ring.p
    g = ring.group
    c = ring.degrees
    const = ring.constants
    checks = []

    ok = not any(((arr + const[(j, i)].transpose(1, 0, 2)) % p).any()
                 for (i, j), arr in const.items())
    checks.append(Check("antisymmetry [u,v] = -[v,u]", ok, {}))

    ok = not any(const[(i, i)].diagonal().any()
                 for i in range(1, c // 2 + 1))
    checks.append(Check("alternation [u,u] = 0", ok, {}))

    # [[u,v],w] + [[v,w],u] + [[w,u],v] for u, v, w of degrees a, b, d;
    # the second and third terms come out indexed (v, w, u) and (w, u, v)
    ok = not any(
        ((contract(const[(a, b)], const[(a + b, d)])
          + contract(const[(b, d)], const[(b + d, a)]).transpose(2, 0, 1, 3)
          + contract(const[(d, a)], const[(d + a, b)]).transpose(1, 2, 0, 3))
         % p).any()
        for a in range(1, c + 1) for b in range(1, c + 1 - a)
        for d in range(1, c + 1 - a - b))
    checks.append(Check("Jacobi identity on basis triples", ok,
                        {"triples": ring.total_dim ** 3}))

    # [x_a x_b, y] = [x_a, y] + [x_b, y] in D_{i+j} / D_{i+j+1}, over
    # every ordered pair of degree-i lifts and degree-j lift y; a label
    # of -1 is a commutator outside D_{i+j}, from a lift outside D_i
    ok = True
    comm = ring.commutators
    for i in range(1, c + 1):
        lifts = list(ring.basis_lifts[i - 1])
        prods = g.right_columns(lifts)[:, lifts].T    # x_a x_b at [a, b]
        for j in range(1, c + 1 - i):
            labels = ring.coords_of[i + j - 1]
            lhs = labels[comm[j - 1][:, prods]]
            single = labels[comm[j - 1][:, lifts]]
            dk = ring.dim(i + j)
            parts = _digits(single, p, dk)
            if (lhs < 0).any() or (single < 0).any() or not np.array_equal(
                    _digits(lhs, p, dk),
                    (parts[:, :, None] + parts[:, None]) % p):
                ok = False
    checks.append(Check("bracket is additive over lift products", ok, {}))
    return VerificationReport(name="lie-axioms", checks=checks)


def verify_lazard(ring, q):
    """Compare (ad x~)^q with ad of the class of x^q for every basis
    lift x, and the ad-nilpotency bound when x^q = 1.

    For x of degree i, (ad x~)^q has degree q*i, so x^q is taken at
    degree q*i: its class there is zero when x^q lies deeper.  The
    identity is claimed only for q a power of p; any other q raises
    ValueError."""
    if q < 1:
        raise ValueError("q must be positive")
    g = ring.group
    p = ring.p
    s = 0
    qq = q
    while qq % p == 0:
        qq //= p
        s += 1
    if qq != 1:
        raise ValueError(f"q = {q} is not a power of p = {p}")
    checks = []
    for i in range(1, ring.degrees + 1):
        for t in range(ring.dim(i)):
            e = ring.basis_element(i, t)
            if e.lift is None:
                raise ValueError("basis element is missing its group lift")
            lhs = mat_pow_mod(ring.ad_matrix(e), q, p)
            y = g.pow_idx(e.lift, q)
            if y == 0:
                idx = ad_nilpotency_index(e, ring)
                checks.append(Check(
                    f"ad-nilpotency bound at degree {i} basis {t}",
                    idx is not None and idx <= p ** s,
                    {"index": idx, "bound": p ** s}))
            d = ring.series.depth_of(y)
            if d is None or d > q * i:
                rhs = np.zeros_like(lhs)
            else:
                rhs = ring.ad_matrix(
                    ring.homogeneous(d, ring.class_coords(d, y), lift=y))
            checks.append(Check(
                f"(ad x~)^q = ad((x^q)~) at degree {i} basis {t}",
                bool(np.array_equal(lhs, rhs)),
                {"q": q, "power_trivial": y == 0}))
    return VerificationReport(name="lazard-identity", checks=checks)
