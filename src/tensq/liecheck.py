"""What is read off a graded Lie ring built by ``tensq.liering``, and
its checks.

The adjoint nilpotency index, the ring's lower central series
(``lie_nilpotency_class``) and the subalgebra L_p(G) generated by
degree 1 are read from bracket spans: each stacks every bracket into a
target degree and row-reduces them once.  ``verify_lie_axioms`` checks
the Lie axioms on the structure constants and the additivity of the
bracket over lift products, and ``verify_lazard`` the identity
(ad x~)^q = ad((x^q)~).  ``_digits`` decodes the ring's coset labels
for both halves.

``liering`` imports every name here back, so each stays reachable
there; this module imports nothing from ``liering``, so running either
half never meets the other half-built.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .linalg import contract, mat_pow_mod, rref_mod
from .report import Check, VerificationReport


def _digits(labels, p, dim):
    """F_p coordinates of coset labels sum v_k p^k, on a new last axis.
    The powers p^k are Python integers: a numpy ``**`` would map a
    kernel nothing else in a run calls."""
    powers = np.array([p ** k for k in range(dim)], dtype=np.int64)
    return np.asarray(labels, dtype=np.int64)[..., None] // powers % p


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
