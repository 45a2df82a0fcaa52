"""Abelian invariants and mod-p linear algebra used by structure
identification.

An abelian subgroup's invariant factors are read from its p-power
torsion counts, in its parent's index space; mod-p routines use small
numpy arrays.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import invariant
from .closure import bfs_levels


def _prime_factors(n):
    """``{p: e}`` with n = prod(p^e) over the primes p dividing n."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def invariant_factors_from_cyclic(orders):
    """Invariant factors of a direct sum of cyclic groups of the given
    orders."""
    # collect prime powers per prime, sorted descending
    powers = {}
    for n in orders:
        for p, e in _prime_factors(int(n)).items():
            powers.setdefault(p, []).append(p ** e)
    for p in powers:
        powers[p].sort(reverse=True)
    k = max((len(v) for v in powers.values()), default=0)
    factors = []
    for i in range(k):
        f = 1
        for p, v in powers.items():
            if i < len(v):
                f *= v[i]
        factors.append(f)
    factors.sort()
    return factors


def abelian_invariants(sub):
    """Invariant-factor decomposition d_1 | d_2 | ... of an abelian
    subgroup A, with prod(d_i) == |A|, from its p-power torsion.

    For a prime p, x |-> x^p is an endomorphism of A, and the
    p^k-torsion {x : x^(p^k) = 1} is p^(r_k) times larger than the
    p^(k-1)-torsion, where r_k counts the cyclic p-factors of A of order
    at least p^k; so r_k - r_(k+1) of them have order exactly p^k.  The
    p-th power of every member is one sweep along A's breadth-first
    levels, since (y g)^p = y^p g^p, with g^p as p gathers through the
    column of generator g, which the closure of A has already read; the
    p^k-th powers compose that map.
    """
    if not sub.is_abelian():
        raise ValueError("subgroup is not abelian")
    parent = sub.parent
    right = parent.right_columns(sub.generators)
    levels = tuple(bfs_levels(right))
    members = np.asarray(sub.indices())
    cyclic = []
    for p, e in _prime_factors(sub.order()).items():
        power = np.zeros(parent.order(), dtype=np.int32)
        for src, gen, new in levels:
            x = power[src]
            for _ in range(p):
                x = right[gen, x]
            power[new] = x
        # torsion[k] = |{x : x^(p^k) = 1}|; the p-part of A has exponent
        # at most p^e, so k = e reaches all of it
        torsion = [1]
        x = members
        for _ in range(e):
            x = power[x]
            torsion.append(int(np.count_nonzero(x == 0)))
        ranks = [_prime_factors(b // a).get(p, 0)
                 for a, b in zip(torsion, torsion[1:])] + [0]
        for k in range(1, e + 1):
            cyclic += [p ** k] * (ranks[k - 1] - ranks[k])
    factors = invariant_factors_from_cyclic(cyclic)
    invariant(math.prod(factors) == sub.order(),
              "invariant factors do not multiply to the subgroup order")
    return factors


# -- mod-p linear algebra ---------------------------------------------------


def rref_mod(matrix, p):
    """Row-reduced echelon form of an integer matrix mod p.

    Returns (reduced matrix, pivot column list); zero rows are dropped.
    """
    m = np.array(matrix, dtype=np.int64) % p
    if m.ndim == 1:
        m = m.reshape(1, -1)
    nrows, ncols = m.shape
    pivots = []
    r = 0
    for c in range(ncols):
        sel = None
        for i in range(r, nrows):
            if m[i, c] % p:
                sel = i
                break
        if sel is None:
            continue
        m[[r, sel]] = m[[sel, r]]
        m[r] = (m[r] * pow(int(m[r, c]), -1, p)) % p
        for i in range(nrows):
            if i != r and m[i, c]:
                m[i] = (m[i] - m[i, c] * m[r]) % p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m[:r], pivots


def contract(a, b):
    """Sum over the last axis of ``a`` and the first of ``b``:
    ``c[..., j] = sum_m a[..., m] * b[m, j]`` for any trailing axes j of
    ``b``, as ``np.tensordot(a, b, 1)`` gives.  It is one broadcast
    product and one sum over the shared axis, kernels the group closure
    already maps, so the Lie ring's contractions fault in no numpy code
    of their own (``einsum``, ``tensordot`` and ``matmul`` map 64 kB
    blocks each).  Shapes are explicit, so a zero-length axis is fine."""
    spread = a.reshape(a.shape + (1,) * (b.ndim - 1))
    return (spread * b).sum(axis=a.ndim - 1)


def mat_pow_mod(m, k, p):
    """k-th power of a square matrix mod p (k >= 0)."""
    n = m.shape[0]
    result = np.eye(n, dtype=np.int64)
    base = np.array(m, dtype=np.int64) % p
    while k:
        if k & 1:
            result = contract(result, base) % p
        base = contract(base, base) % p
        k >>= 1
    return result
