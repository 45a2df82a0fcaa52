"""Integer and mod-p linear algebra used by structure identification.

The Smith normal form runs on plain Python ints (no overflow concerns at
desk scale); mod-p routines use small numpy arrays.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import invariant


def smith_normal_form(rows, ncols):
    """Diagonal of the Smith normal form of an integer matrix.

    ``rows`` is a list of length-``ncols`` integer rows.  Returns the
    full diagonal d_1 | d_2 | ... | d_ncols (zeros for the free part),
    each entry non-negative.
    """
    m = [list(r) for r in rows]
    n = ncols
    diag = []
    top = 0
    while top < n:
        # find a pivot: smallest nonzero absolute value at or below top
        pivot = None
        for i in range(top, len(m)):
            for j in range(top, n):
                v = m[i][j]
                if v != 0 and (pivot is None or abs(v) < abs(pivot[2])):
                    pivot = (i, j, v)
        if pivot is None:
            diag.extend([0] * (n - top))
            break
        pi, pj, _ = pivot
        m[top], m[pi] = m[pi], m[top]
        for row in m:
            row[top], row[pj] = row[pj], row[top]
        while True:
            # clear the pivot column
            dirty = False
            a = m[top][top]
            for i in range(top + 1, len(m)):
                if m[i][top] != 0:
                    q = m[i][top] // a
                    m[i] = [x - q * y for x, y in zip(m[i], m[top])]
                    if m[i][top] != 0:
                        m[top], m[i] = m[i], m[top]
                        dirty = True
                        break
            if dirty:
                continue
            # clear the pivot row
            a = m[top][top]
            for j in range(top + 1, n):
                if m[top][j] != 0:
                    q = m[top][j] // a
                    for row in m:
                        row[j] -= q * row[top]
                    if m[top][j] != 0:
                        for row in m:
                            row[top], row[j] = row[j], row[top]
                        dirty = True
                        break
            if not dirty:
                break
        diag.append(abs(m[top][top]))
        top += 1
    # enforce the divisibility chain
    d = [x for x in diag]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            a, b = d[i], d[j]
            if a == 0 and b == 0:
                continue
            g = math.gcd(a, b)
            l = 0 if (a == 0 or b == 0) else a * b // g
            d[i], d[j] = g, l
    return d


def invariant_factors_from_relations(rows, ngens):
    """Invariant factors d_1 | d_2 | ... of Z^ngens modulo the row lattice.

    The lattice must have full rank (finite quotient); raises otherwise.
    """
    diag = smith_normal_form(rows, ngens)
    if any(x == 0 for x in diag):
        raise ValueError("relation lattice does not have full rank")
    return [d for d in diag if d > 1]


def invariant_factors_from_cyclic(orders):
    """Invariant factors of a direct sum of cyclic groups of the given
    orders."""
    # collect prime powers per prime, sorted descending
    powers = {}
    for n in orders:
        n = int(n)
        d = 2
        while d * d <= n:
            e = 0
            while n % d == 0:
                e += 1
                n //= d
            if e:
                powers.setdefault(d, []).append(d ** e)
            d += 1
        if n > 1:
            powers.setdefault(n, []).append(n)
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
    subgroup, with prod(d_i) == |H|.

    Works by collecting the relation lattice of a reduced generating set
    (exponent-vector BFS over the subgroup) and diagonalizing it.
    """
    if not sub.is_abelian():
        raise ValueError("subgroup is not abelian")
    parent = sub.parent
    # reduced generating set: drop generators inside the span of the others
    gens = []
    span = parent.trivial_subgroup()
    for g in sub.generators:
        if not span.contains_index(g):
            gens.append(g)
            span = parent.subgroup(gens)
    if not gens:
        return []
    k = len(gens)
    vec_of = {0: (0,) * k}
    queue = [0]
    relations = set()
    qi = 0
    while qi < len(queue):
        e = queue[qi]
        qi += 1
        v = vec_of[e]
        for t, gi in enumerate(gens):
            f = parent.mul_idx(e, gi)
            w = v[:t] + (v[t] + 1,) + v[t + 1:]
            if f in vec_of:
                rel = tuple(a - b for a, b in zip(w, vec_of[f]))
                if any(rel):
                    relations.add(rel)
            else:
                vec_of[f] = w
                queue.append(f)
    invariant(len(vec_of) == sub.order(),
              "the generator sweep missed elements of the subgroup")
    factors = invariant_factors_from_relations(sorted(relations), k)
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


def in_row_space(vec, basis, p):
    """Whether ``vec`` lies in the mod-p row space spanned by ``basis``."""
    if len(basis) == 0:
        return not np.any(np.asarray(vec) % p)
    stacked = np.vstack([basis, np.asarray(vec).reshape(1, -1)])
    return rref_mod(stacked, p)[0].shape[0] == rref_mod(basis, p)[0].shape[0]


def extend_basis(basis, vec, p):
    """Add ``vec`` to a row basis if independent; returns (basis, added)."""
    v = np.asarray(vec, dtype=np.int64) % p
    if not np.any(v):
        return basis, False
    if len(basis) == 0:
        return v.reshape(1, -1), True
    if in_row_space(v, basis, p):
        return basis, False
    return np.vstack([basis, v]), True


def mat_pow_mod(m, k, p):
    """k-th power of a square matrix mod p (k >= 0)."""
    n = m.shape[0]
    result = np.eye(n, dtype=np.int64)
    base = np.array(m, dtype=np.int64) % p
    while k:
        if k & 1:
            result = (result @ base) % p
        base = (base @ base) % p
        k >>= 1
    return result
