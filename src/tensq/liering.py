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
Structure constants are the labels of the lifts' commutators.

Only the bracket structure is realized here (no p-power operation on
the ring); adjoint maps are matrices over F_p in the full graded basis.
What is read off a built ring (its bracket spans, nilpotency class and
L_p(G)) and its checks are in ``tensq.liecheck``, which this module
imports and re-exports, so a ``lie`` run compiles two modules of under
2,000 AST nodes each rather than one of 3,529.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closure import commutator_sweep
from .errors import invariant
# _digits decodes the ring's labels; cli and the package (tensq.__init__)
# read the rest from here, and perfbench's tracer wraps the checks here
from .liecheck import (_digits, ad_nilpotency_index, lie_nilpotency_class,
                       subalgebra_Lp, verify_lazard, verify_lie_axioms)
from .linalg import contract


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
