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

Only the bracket structure is realized here (no p-power operation on
the ring); adjoint maps are matrices over F_p in the full graded basis.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import invariant
from .linalg import extend_basis, mat_pow_mod, rref_mod
from .verify import Check, VerificationReport
from .perm import SeriesReport, commutator_sweep


def _check_p_group(group, p):
    if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
        raise ValueError("p must be prime")
    if not group.is_p_group(p):
        raise ValueError(f"group of order {group.order()} is not a {p}-group")


@dataclass(frozen=True)
class PGroupSeries:
    """Descending central series D_1 = G >= D_2 >= ... with the final
    trivial term included."""
    p: int
    terms: tuple
    gamma: SeriesReport

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
    gamma = group.lower_central_series()
    gamma_terms = gamma.terms
    exponent = group.exponent()
    kmax = 0
    while p ** kmax < exponent:
        kmax += 1
    terms = []
    i = 1
    while True:
        gens = {}
        for j, gterm in enumerate(gamma_terms, start=1):
            if gterm.order() == 1:
                continue
            for k in range(kmax + 1):
                if j * p ** k >= i:
                    q = p ** k
                    for idx in gterm.indices():
                        gens.setdefault(group.pow_idx(idx, q))
        d_i = group.subgroup(gens)
        terms.append(d_i)
        if d_i.order() == 1:
            break
        i += 1
    invariant(len(terms) > 1 or terms[0].order() == 1,
              "series failed to reach the identity")
    return PGroupSeries(p=p, terms=tuple(terms), gamma=gamma)


def jennings_recursion(group, p):
    """Independent oracle: D_1 = G, D_i = [D_{i-1}, G] * (D_ceil(i/p))^p,
    with commutators taken exhaustively over element pairs."""
    _check_p_group(group, p)
    gamma = group.lower_central_series()
    terms = [group.full_subgroup()]
    if group.order() == 1:
        return PGroupSeries(p=p, terms=tuple(terms), gamma=gamma)
    i = 2
    while True:
        prev = terms[-1]
        half = terms[math.ceil(i / p) - 1]
        gens = dict.fromkeys(commutator_sweep(group, prev.indices()))
        for d in half.indices():
            gens.setdefault(group.pow_idx(d, p))
        d_i = group.subgroup(gens)
        terms.append(d_i)
        if d_i.order() == 1:
            break
        i += 1
    return PGroupSeries(p=p, terms=tuple(terms), gamma=gamma)


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

    Basis representatives per degree are chosen greedily in the parent
    group's deterministic element order; structure constants are the
    coordinates of group commutators of the chosen lifts.  Immutable
    after construction.
    """

    def __init__(self, series, shift_transversal=False):
        self.series = series
        self.p = series.p
        terms = series.terms
        self.group = terms[0].parent
        g = self.group
        p = self.p
        c = series.length
        self.degrees = c
        self.dims = []
        self.basis_lifts = []      # per degree: tuple of element indices
        self.coords_of = []        # per degree: dict element index -> tuple

        for i in range(1, c + 1):
            d_i, d_next = terms[i - 1], terms[i]
            quotient = d_i.order() // d_next.order()
            dim = 0
            while p ** dim < quotient:
                dim += 1
            if p ** dim != quotient:
                raise ValueError("quotient is not elementary abelian of "
                                 "exponent p")
            span = set(d_next.index_set())
            chosen = []
            for idx in d_i.indices():
                if len(chosen) == dim:
                    break
                if idx in span:
                    continue
                chosen.append(idx)
                powers = [g.pow_idx(idx, e) for e in range(p)]
                span = {g.mul_idx(s, pe) for s in span for pe in powers}
            invariant(len(chosen) == dim and len(span) == d_i.order(),
                      "transversal selection failed")
            lifts = list(chosen)
            if shift_transversal and d_next.order() > 1:
                t = d_next.indices()[-1]
                lifts = [g.mul_idx(x, t) for x in chosen]
            coords = {}
            for vec in itertools.product(range(p), repeat=dim):
                rep = 0
                for t, e in zip(lifts, vec):
                    rep = g.mul_idx(rep, g.pow_idx(t, e))
                for dn in d_next.indices():
                    member = g.mul_idx(rep, dn)
                    invariant(coords.setdefault(member, vec) == vec,
                              "coset labeling conflict")
            invariant(len(coords) == d_i.order(), "coset labeling incomplete")
            self.dims.append(dim)
            self.basis_lifts.append(tuple(lifts))
            self.coords_of.append(coords)

        self.total_dim = sum(self.dims)
        self.offsets = []
        off = 0
        for d in self.dims:
            self.offsets.append(off)
            off += d

        self.constants = {}
        for i in range(1, c + 1):
            for j in range(1, c + 1):
                if i + j > c:
                    continue
                di, dj, dk = self.dims[i - 1], self.dims[j - 1], \
                    self.dims[i + j - 1]
                arr = np.zeros((di, dj, dk), dtype=np.int64)
                for a, xa in enumerate(self.basis_lifts[i - 1]):
                    for b, yb in enumerate(self.basis_lifts[j - 1]):
                        z = g.comm_idx(xa, yb)
                        invariant(terms[i + j - 1].contains_index(z),
                                  "[D_i, D_j] escaped D_{i+j}")
                        arr[a, b, :] = self.class_coords(i + j, z)
                self.constants[(i, j)] = arr

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
        return np.array(self.coords_of[degree - 1][idx], dtype=np.int64)

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
        out = np.einsum("abk,a,b->k", arr, uu, vv) % self.p
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
                block = np.tensordot(self.constants[(j, d)], vv,
                                     axes=([1], [0]))  # (dim j, dim k)
                oj, ok = self.offsets[j - 1], self.offsets[k - 1]
                mat[ok:ok + self.dim(k), oj:oj + self.dim(j)] += block.T
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
        m = (m @ a) % ring.p
    return None


def lie_nilpotency_class(ring):
    """Largest k with the k-th term of the ring's lower central series
    nonzero (0 for the zero ring, 1 for a nonzero abelian ring)."""
    if ring.total_dim == 0:
        return 0
    current = {i: np.eye(ring.dim(i), dtype=np.int64)
               for i in range(1, ring.degrees + 1) if ring.dim(i)}
    k = 1
    while True:
        nxt = {}
        for i, rows in current.items():
            for d in range(1, ring.degrees + 1):
                tgt = i + d
                if tgt > ring.degrees or ring.dim(d) == 0 \
                        or ring.dim(tgt) == 0:
                    continue
                arr = ring.constants[(i, d)]
                for row in rows:
                    # rows of vecs: coords of [row, basis_b] per b
                    vecs = np.tensordot(row, arr, axes=([0], [0])) % ring.p
                    basis = nxt.get(tgt, np.zeros((0, ring.dim(tgt)),
                                                  dtype=np.int64))
                    for vec in vecs:
                        basis, _ = extend_basis(basis, vec, ring.p)
                    nxt[tgt] = basis
        nxt = {d: b for d, b in nxt.items() if len(b)}
        if not nxt:
            return k
        current = nxt
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


def subalgebra_generated_by_degree_one(ring):
    """Smallest bracket-closed graded subspace containing the full
    degree-1 component (the subalgebra written L_p(G))."""
    spans = {}
    if ring.degrees >= 1 and ring.dim(1):
        spans[1] = np.eye(ring.dim(1), dtype=np.int64)
    changed = True
    while changed:
        changed = False
        items = sorted(spans.items())
        for (i, bi), (j, bj) in itertools.product(items, items):
            tgt = i + j
            if tgt > ring.degrees or ring.dim(tgt) == 0:
                continue
            arr = ring.constants[(i, j)]
            for u in bi:
                vecs = np.tensordot(u, arr, axes=([0], [0]))  # (dj, dk)
                for v in bj:
                    w = (v @ vecs) % ring.p
                    basis = spans.get(tgt, np.zeros((0, ring.dim(tgt)),
                                                    dtype=np.int64))
                    basis, added = extend_basis(basis, w, ring.p)
                    if added:
                        spans[tgt] = basis
                        changed = True
    spans = {d: rref_mod(b, ring.p)[0] for d, b in spans.items() if len(b)}
    return GradedSubspace(p=ring.p, bases=spans)


subalgebra_Lp = subalgebra_generated_by_degree_one


def verify_lie_axioms(ring):
    """Antisymmetry, alternation, Jacobi on all basis triples, and
    group-level additivity of the induced bracket."""
    p = ring.p
    g = ring.group
    checks = []

    ok = True
    for (i, j), arr in ring.constants.items():
        rev = ring.constants[(j, i)]
        if not np.array_equal(arr % p,
                              (-rev.transpose(1, 0, 2)) % p):
            ok = False
    checks.append(Check("antisymmetry [u,v] = -[v,u]", ok, {}))

    ok = True
    for i in range(1, ring.degrees + 1):
        arr = ring.constants.get((i, i))
        if arr is None:
            continue
        for a in range(ring.dim(i)):
            if arr[a, a].any():
                ok = False
    checks.append(Check("alternation [u,u] = 0", ok, {}))

    basis = ring.basis()
    ok = True
    for u, v, w in itertools.product(basis, repeat=3):
        s1 = ring.bracket(ring.bracket(u, v), w)
        s2 = ring.bracket(ring.bracket(v, w), u)
        s3 = ring.bracket(ring.bracket(w, u), v)
        deg = u.degree + v.degree + w.degree
        if deg > ring.degrees:
            continue
        total = (np.array(s1.coords) + np.array(s2.coords)
                 + np.array(s3.coords)) % p
        if total.any():
            ok = False
            break
    checks.append(Check("Jacobi identity on basis triples", ok,
                        {"triples": len(basis) ** 3}))

    ok = True
    for i in range(1, ring.degrees + 1):
        for j in range(1, ring.degrees + 1):
            if i + j > ring.degrees:
                continue
            for xa, xb in itertools.product(ring.basis_lifts[i - 1],
                                            repeat=2):
                prod = g.mul_idx(xa, xb)
                ca = ring.class_coords(i, xa)
                cb = ring.class_coords(i, xb)
                for yb in ring.basis_lifts[j - 1]:
                    lhs = ring.class_coords(i + j, g.comm_idx(prod, yb))
                    za = ring.class_coords(i + j, g.comm_idx(xa, yb))
                    zb = ring.class_coords(i + j, g.comm_idx(xb, yb))
                    if not np.array_equal(lhs % p, (za + zb) % p):
                        ok = False
    checks.append(Check("bracket is additive over lift products", ok, {}))
    return VerificationReport(name="lie-axioms", checks=checks)


def verify_lazard(ring, q):
    """Compare (ad x~)^q with ad of the class of x^q for every basis
    lift x, and the ad-nilpotency bound when x^q = 1.

    For x of degree i, (ad x~)^q has degree q*i, so x^q is taken at
    degree q*i: its class there is zero when x^q lies deeper."""
    if q < 1:
        raise ValueError("q must be positive")
    g = ring.group
    p = ring.p
    s = 0
    qq = q
    while qq % p == 0:
        qq //= p
        s += 1
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
