"""Finite permutation groups at desk scale.

Groups enumerate their elements by breadth-first closure from the
identity with generators in declared order, so element indices are
deterministic and stable across runs.  Everything is immutable after
construction; internal caches are filled idempotently (compute fully,
then assign), which keeps concurrent reads safe.

Every group, regular or generic, is held in index space by the same
three things, all from one closure: its generators' right-multiplication
columns, the breadth-first levels ``(sources, generators, new)`` and
the parents.  A regular group's columns are its generators' images, and
one ``tensq.closure.bfs_levels`` sweep over them gives the levels.  A
generic group closes once, level by level, in
``tensq.closure.close_images``: each product is looked up by its image
bytes, each element is stored once, as its key, and each new element's
source and generator are recorded as it is found; its permutations are
built only when ``elements`` is asked for.  A map out of the group is
fixed by its value at the identity and its step along each generator,
so ``FiniteGroup.sweep`` builds it one gather per level, as element
p * g follows its parent p; every module maps out of a group that way.
The maps here: left multiplication by each generator's inverse, since
left and right multiplication commute; the inverses, (p * g)^-1 =
g^-1 * p^-1; the conjugates x^-1 a x of a fixed a, g^-1 (p^-1 a p) g,
read from the generators' conjugation map, which is built once per
group; and from these the commutators with a over every x, which drive
the Engel iterations and ``commutator_sweep``.  A single product reads
one cached column, element j's right multiplication, composed from
generator columns along j's word.  For a regular group (degree equal to
order, identity at point 0, as coset enumeration over the trivial
subgroup produces) that column is element j's image array, since
index(e_i * e_j) = e_j(i), so a regular group never stores its
elements.

Subgroups (``tensq.closure.Subgroup``) are closed tuples of element
indices.  Permutations (``tensq.permutation``) appear only at the API
edge: a group's ``generators``, ``element``, ``elements`` and
``index_of``, and ``as_index`` for a caller's argument.  No kernel
builds an N x N Cayley table; ``table()`` builds one on request, up to
``TABLE_CAP``.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .closure import (SeriesReport, Subgroup, _sweep_table, bfs_levels,
                      close_images, commutator_sweep, sweep_rows)
from .errors import AmbientMismatchError
from .permutation import Permutation, parse_cycles

DEFAULT_MAX_ORDER = 100_000

# Largest group whose Cayley table ``table()`` builds.
TABLE_CAP = 20_000
# Entries one group's column cache holds; past it a column is composed
# anew each time, so no sweep over a large group caches an N x N table.
COLUMN_CACHE_ENTRIES = 1 << 24


def _from_key(key):
    """The permutation whose image bytes are ``key``, its images a view
    of the key, so that it stores no second copy of them."""
    p = Permutation._raw(np.frombuffer(key, dtype=np.int32))
    p._key = key
    return p


def _along_rows(rows, idx):
    """``rows[t, idx[t, i]]``: ``np.take_along_axis(rows, idx, axis=1)``
    as one gather, without its index-building calls."""
    return rows[np.arange(len(rows))[:, None], idx]


def parse_perm_group(text, *, name=None):
    """Parse the permutation-group file format.

    Line 1 is ``degree N``; each further non-empty line is one generator
    in cycle notation.  ``#`` starts a comment.  A file with no
    generator line presents the trivial group, as one ``()`` line does.
    """
    degree = None
    gens = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if degree is None:
            m = re.fullmatch(r"degree\s+(\d+)", line)
            if not m:
                raise ValueError("first line must be 'degree N'")
            degree = int(m.group(1))
            if degree <= 0:
                raise ValueError("degree must be positive")
            continue
        gens.append(parse_cycles(line, degree))
    if degree is None:
        raise ValueError("missing 'degree N' line")
    return FiniteGroup(gens or [Permutation.identity(degree)], name=name)


def format_perm_group(group):
    lines = [f"degree {group.degree}"]
    lines += [g.cycle_string() for g in group.generators]
    return "\n".join(lines) + "\n"


class FiniteGroup:
    """A finite group given by permutation generators of equal degree.

    ``regular=True`` marks a regular action with the identity at point 0
    (element index of a member is then its image of 0); coset
    enumeration produces groups of this kind.  ``max_order`` caps a
    generic group's closure; a regular group's order is its degree.
    """

    def __init__(self, generators, *, name=None, max_order=DEFAULT_MAX_ORDER,
                 regular=False):
        gens = tuple(g if isinstance(g, Permutation) else Permutation(g)
                     for g in generators)
        if not gens:
            raise ValueError("generators must be non-empty "
                             "(use the identity for the trivial group)")
        degree = gens[0].degree
        for g in gens[1:]:
            if g.degree != degree:
                raise AmbientMismatchError("generators have mixed degrees")
        self.generators = gens
        self.name = name
        self.max_order = max_order
        self._degree = degree
        self._regular = bool(regular)
        # caches (idempotent fill); _parents is assigned last by a closure
        self._elements = None       # every element, in order, on request
        self._index = None          # generic: image bytes -> index
        self._parents = None        # (n, 2): breadth-first parent, generator
        self._right = None          # (k, n): index(element_i * generator_t)
        self._levels = None         # breadth-first (sources, gens, new)
        self._left_inv = None       # (k, n): index(generator_t^-1 * e_i)
        self._conj = None           # (k, n): the generators' conjugation map
        self._inv_idx = None
        self._table = None
        self._orders_idx = None
        self._full = None
        self._columns = {}          # j -> index(element_i * element_j)
        self._words = {}

    # -- basics -----------------------------------------------------------

    @property
    def degree(self):
        return self._degree

    @property
    def identity(self):
        return Permutation.identity(self._degree)

    def __repr__(self):
        label = self.name or f"degree-{self._degree} group"
        if self._parents is not None:
            return f"FiniteGroup({label}, order={self.order()})"
        return f"FiniteGroup({label})"

    # -- enumeration ------------------------------------------------------

    def _close(self):
        """The generators' right-multiplication columns, the
        breadth-first levels and the parents.  A generic group's come
        from its one level-wise closure; a regular group's columns are
        its generators' images, one ``bfs_levels`` sweep over them gives
        the levels, and it reaches every point only if the group acts
        transitively."""
        if self._parents is not None:
            return
        right = np.stack([g.images for g in self.generators])
        if self._regular:
            levels = tuple(bfs_levels(right))
        else:
            self._index, right, levels = close_images(right, self.max_order)
        n = right.shape[1]
        parents = np.full((n, 2), -1, dtype=np.int32)
        for src, gen, new in levels:
            parents[new, 0] = src
            parents[new, 1] = gen
        if 1 + sum(new.size for _, _, new in levels) != n:
            raise ValueError("action is not transitive; not a regular group")
        self._right = right
        self._levels = levels
        self._parents = parents

    def order(self):
        if self._parents is None:
            self._close()
        return len(self._parents)

    def elements(self):
        """All elements in deterministic breadth-first order, built on
        the first call."""
        if self._elements is None:
            if self._regular:
                els = tuple(self.element(i) for i in range(self.order()))
            else:
                self._close()
                els = tuple(map(_from_key, self._index))
            self._elements = els
        return self._elements

    def element(self, i):
        """Element number ``i`` of the deterministic order."""
        if self._regular:
            return Permutation._raw(self.column(i))
        return self.elements()[self.as_index(i)]

    def index_of(self, perm):
        """Index of ``perm`` in the deterministic order."""
        if perm.degree != self._degree:
            raise AmbientMismatchError("degree mismatch with ambient group")
        if self._regular:
            # regular action with the identity at point 0: the element
            # index is its image of 0
            i = perm(0)
            if np.array_equal(self.column(i), perm.images):
                return i
            raise KeyError("permutation is not a member of this group")
        self._close()
        try:
            return self._index[perm.key]
        except KeyError:
            raise KeyError("permutation is not a member of this group") \
                from None

    def as_index(self, x):
        """Element index of ``x``, an index in [0, order) or a member
        permutation."""
        if isinstance(x, (int, np.integer)):
            i = int(x)
            if not 0 <= i < self.order():
                raise IndexError("element index out of range")
            return i
        return self.index_of(x)

    def generator_indices(self):
        """Element indices of the generators, in declared order."""
        self._close()
        return tuple(self._right[:, 0].tolist())

    def __contains__(self, perm):
        try:
            self.index_of(perm)
            return True
        except (KeyError, AmbientMismatchError):
            return False

    def word(self, i):
        """Generator-index word for element ``i`` (left-to-right product)."""
        w = self._words.get(i)
        if w is None:
            self._close()
            i = self.as_index(i)
            chain = []
            j = i
            while True:
                pj, gj = self._parents[j].tolist()
                if pj < 0:
                    break
                chain.append(gj)
                j = pj
            w = tuple(reversed(chain))
            self._words[i] = w
        return w

    # -- index-space operations --------------------------------------------

    def levels(self):
        """Breadth-first levels ``(sources, generators, new)`` of the
        closure, as ``bfs_levels`` yields them over the generators'
        right-multiplication columns."""
        self._close()
        return self._levels

    def _left_inverses(self):
        """Left multiplication by each generator's inverse, one row per
        generator: ``l[t, i] = index(generator_t^-1 * element_i)``."""
        if self._left_inv is None:
            self._close()
            right = self._right
            # generator t's inverse is the element it maps to 1, the
            # place of 0 in its row; then a * (p * g) = (a * p) * g
            left = self.sweep(np.flatnonzero(right.ravel() == 0)
                              % right.shape[1],
                              lambda v, g: right[g[:, None], v]).T
            left.setflags(write=False)
            self._left_inv = left
        return self._left_inv

    def is_regular(self):
        """Whether a group built with ``regular=True`` really acts
        regularly.  Coset enumeration guarantees it; an action assembled
        any other way needs this certificate.  Left multiplication by
        each generator's inverse, as the sweep along the levels builds
        it, must commute with every generator on every point, and those
        left maps must reach every point from 0.  They then lie in the
        centraliser of the transitive group the generators make, and act
        transitively, so that group is semiregular, hence regular."""
        try:
            left = self._left_inverses()
        except ValueError:              # the closure found no single orbit
            return False
        if not all(np.array_equal(left[:, r], r[left]) for r in self._right):
            return False
        return 1 + sum(new.size for _, _, new in bfs_levels(left)) == \
            self.order()

    def generator_conjugates(self, idx):
        """``c[t, i] = index(generator_t^-1 * element_idx[i] *
        generator_t)``: one left and one right gather per generator."""
        left = self._left_inverses()
        idx = np.asarray(idx, dtype=np.intp)
        return _along_rows(self._right, left[:, idx])

    def sweep(self, first, step):
        """The int32 map f with f[0] = ``first`` (a value or a row) and
        f[p * g] = ``step(f[p], g)``, g a generator's position: one call
        per breadth-first level, on its sources' values and generators.
        Each element lies on a level after its parent, so any map out of
        the group that a value at the identity and a step per generator
        fix (the inverses, a homomorphism's images) is one sweep."""
        first = np.asarray(first, dtype=np.int32)
        out = np.empty((self.order(), *first.shape), dtype=np.int32)
        out[0] = first
        for src, gen, new in self.levels():
            out[new] = step(out[src], gen)
        return out

    def conjugation_map(self):
        """``generator_conjugates`` of every element, built once a
        ``sweep_rows(k)`` block of points at a time, so that no gather
        of the k left maps over every point is held beside it:
        ``c[t, i] = index(generator_t^-1 * element_i * generator_t)``."""
        if self._conj is None:
            right, left = self._right, self._left_inverses()
            conj = np.empty_like(right)
            step = sweep_rows(len(right))
            for lo in range(0, conj.shape[1], step):
                conj[:, lo:lo + step] = _along_rows(right,
                                                    left[:, lo:lo + step])
            conj.setflags(write=False)
            self._conj = conj
        return self._conj

    def inverse_indices(self):
        """``inv[i] = index(element_i^-1)``, by one sweep along the
        levels: (p * g)^-1 = g^-1 * p^-1."""
        if self._inv_idx is None:
            left = self._left_inverses()
            inv = self.sweep(0, lambda v, g: left[g, v])
            inv.setflags(write=False)
            self._inv_idx = inv
        return self._inv_idx

    def commutator_columns(self, idx):
        """``c[t, x] = index([element_x, a])`` for a = element idx[t] and
        every x.  [x, a] is the conjugate x^-1 a^-1 x times a; for
        x = p * g that conjugate is g^-1 (p^-1 a^-1 p) g, so the
        conjugates are one sweep, one row per x, and the product is one
        gather through a's column."""
        a = np.asarray(idx, dtype=np.intp)
        n = self.order()
        # generator g's row of the conjugation map starts at g * n
        flat = self.conjugation_map().ravel()
        conj = self.sweep(self.inverse_indices()[a],
                          lambda v, g: flat[v + (g * n)[:, None]])
        return _along_rows(self.right_columns(a.tolist()), conj.T)

    def column(self, j):
        """Right multiplication by element j: ``c[i] = index(element_i *
        element_j)``, cached up to ``COLUMN_CACHE_ENTRIES``.  It is
        composed from the generators' columns along the word of j,
        starting from the nearest ancestor on j's breadth-first chain
        whose column is cached.  A regular group's column j is element
        j's image array."""
        c = self._columns.get(j)
        if c is None:
            if not 0 <= j < self.order():
                raise IndexError("element index out of range")
            self._close()
            letters, k = [], j
            while k and k not in self._columns:
                k, g = self._parents[k].tolist()
                letters.append(g)
            c = self._columns.get(k, np.arange(self.order(), dtype=np.int32))
            for g in reversed(letters):
                c = self._right[g][c]
            c.setflags(write=False)
            if len(self._columns) * c.size < COLUMN_CACHE_ENTRIES:
                self._columns[j] = c
        return c

    def right_columns(self, idx):
        """Right multiplication by the elements ``idx``, one row each:
        ``r[t, i] = index(element_i * element_idx[t])``."""
        return np.array([self.column(j) for j in idx],
                        dtype=np.int32).reshape(len(idx), self.order())

    def table(self):
        """Cayley table ``t[i, j] = index(element_i * element_j)``,
        or None above ``TABLE_CAP``.  Built on the first call, for tests
        and benchmarks that want every product; no kernel reads it."""
        if self._table is None:
            if self.order() > TABLE_CAP:
                return None
            levels = self.levels()
            self._table = _sweep_table(self._right, levels)
        return self._table

    # Each scalar operation rejects a negative index with one comparison;
    # ``column`` checks j on a cache miss, and ``item`` the upper bound.
    # ``pow_idx`` checks both bounds, since it reads i only for n != 0.

    def mul_idx(self, i, j):
        if i < 0:
            raise IndexError("element index out of range")
        c = self._columns.get(j)
        if c is None:
            c = self.column(j)
        return c.item(i)

    def inv_idx(self, i):
        if i < 0:
            raise IndexError("element index out of range")
        return self.inverse_indices().item(i)

    def conj_idx(self, i, j):
        """index of element_i ^ element_j."""
        return self.mul_idx(self.mul_idx(self.inv_idx(j), i), j)

    def comm_idx(self, i, j):
        """index of [element_i, element_j] = i^-1 j^-1 i j, multiplied
        left to right: it reads only the columns of j^-1, i and j,
        never that of a product."""
        mul = self.mul_idx
        return mul(mul(mul(self.inv_idx(i), self.inv_idx(j)), i), j)

    def pow_idx(self, i, n):
        if not 0 <= i < self.order():
            raise IndexError("element index out of range")
        if n < 0:
            return self.pow_idx(self.inv_idx(i), -n)
        acc = 0
        base = i
        while n:
            if n & 1:
                acc = self.mul_idx(acc, base)
            n >>= 1
            if n:
                base = self.mul_idx(base, base)
        return acc

    def order_of_idx(self, i):
        if self._orders_idx is None:
            self._orders_idx = {}
        o = self._orders_idx.get(i)
        if o is None:
            o = 1
            j = i
            while j != 0:
                j = self.mul_idx(j, i)
                o += 1
            self._orders_idx[i] = o
        return o

    def exponent(self):
        return math.lcm(*(self.order_of_idx(i) for i in range(self.order())))

    # -- subgroup machinery -------------------------------------------------

    def subgroup(self, gens):
        """Smallest subgroup containing ``gens`` (deterministic closure)."""
        return Subgroup(self, gens)

    def trivial_subgroup(self):
        return Subgroup(self, ())

    def full_subgroup(self):
        """The whole group as a subgroup of itself, built once."""
        if self._full is None:
            self._full = Subgroup(self, self.generator_indices())
        return self._full

    def normal_closure(self, gens):
        """Smallest normal subgroup of this group containing ``gens``:
        close the seeds, conjugate the newest seeds by the generators
        (seed-major, generator-minor), add the conjugates outside the
        closure, and repeat until none is."""
        seeds = list(dict.fromkeys(self.as_index(g) for g in gens))
        fresh = seeds
        while True:
            sub = Subgroup(self, seeds)
            conj = self.generator_conjugates(fresh).T.ravel().tolist()
            fresh = [c for c in dict.fromkeys(conj)
                     if not sub.contains_index(c)]
            if not fresh:
                return sub
            seeds += fresh

    def derived_subgroup(self):
        gens = self.generator_indices()
        return self.normal_closure(commutator_sweep(self, gens, gens))

    def lower_central_series(self):
        """The full subgroup's lower central series, computed once per
        group."""
        return self.full_subgroup().lower_central_series()

    def derived_series(self):
        """Terms H > [H, H] > ..., each generated by the commutators of
        every pair of members of the term before."""
        terms = [self.full_subgroup()]
        while True:
            prev = terms[-1]
            nxt = Subgroup(self, commutator_sweep(self, prev.indices(),
                                                  prev.indices()))
            if nxt == prev:
                break
            terms.append(nxt)
            if nxt.order() == 1:
                break
        return SeriesReport(kind="derived", terms=tuple(terms))

    def center(self):
        """The elements every generator's conjugation map fixes."""
        fixed = (self.conjugation_map() == np.arange(self.order())).all(axis=0)
        return Subgroup(self, np.flatnonzero(fixed).tolist())

    def is_abelian(self):
        return self.full_subgroup().is_abelian()

    def is_nilpotent(self):
        return self.full_subgroup().is_nilpotent()

    def nilpotency_class(self):
        return self.full_subgroup().nilpotency_class()

    def is_p_group(self, p):
        """Whether |G| is a power of the prime ``p``."""
        if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
            raise ValueError("p must be prime")
        n = self.order()
        while n % p == 0:
            n //= p
        return n == 1
