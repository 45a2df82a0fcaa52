"""Finite permutation groups at desk scale.

Permutations act on 0-based points.  Composition is left-to-right:
``(f * g)(x) == g(f(x))`` -- apply ``f`` first, then ``g``.  This one
convention is used everywhere, including cycle-notation parsing,
conjugation ``a ^ b = b^-1 a b`` and commutators
``[a, b] = a^-1 b^-1 a b``.

Groups enumerate their elements by breadth-first closure from the
identity with generators in declared order, so element indices are
deterministic and stable across runs.  Everything is immutable after
construction; internal caches are filled idempotently (compute fully,
then assign), which keeps concurrent reads safe.

Every group, regular or generic, is held in index space by the same
three things: its generators' right-multiplication columns, the
breadth-first levels ``(sources, generators, new)`` of its closure, and
left multiplication by each generator's inverse, one sweep along the
levels since left and right multiplication commute.  Each whole-group
kernel is a sweep of that kind, one gather per level over O(N) columns:
the inverses, (p * g)^-1 = g^-1 * p^-1; the conjugates x^-1 a x of a
fixed a, g^-1 (p^-1 a p) g, read from each generator's conjugation map,
which is built once per group; and from these the commutators with a
over every x, which drive the Engel iterations and
``commutator_sweep``.  A single product reads one cached column,
element j's right multiplication, composed from generator columns
along j's word.  For a regular group (degree equal to order, identity
at point 0, as coset enumeration produces) that column is element j's
image array, since index(e_i * e_j) = e_j(i), so a regular group never
stores its elements; a generic group stores each one once.

Subgroup closure and the rho sweep of ``build_nu`` gather a whole
breadth-first level from right-multiplication columns at once and keep
first occurrences, which visits elements in exactly the order of a
scalar queue.  No kernel builds an N x N Cayley table; ``table()``
builds one on request, up to ``TABLE_CAP``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import AmbientMismatchError, CapacityError

DEFAULT_MAX_ORDER = 100_000

# Largest group whose Cayley table ``table()`` builds.
TABLE_CAP = 20_000
# Entries one group's column cache holds; past it a column is composed
# anew each time, so no sweep over a large group caches an N x N table.
COLUMN_CACHE_ENTRIES = 1 << 24

# Entries one step of an index-space sweep gathers: a breadth-first
# level is cut into chunks of about this many (element, generator)
# products, which keeps the temporaries small when a subgroup has
# hundreds of generators, and a sweep of whole-group rows (commutators,
# Engel steps) takes about this many entries' worth of rows at a time.
SWEEP_ENTRIES = 8192
# Mark of an element index that a sweep has not reached yet; larger
# than any position in a gathered chunk.
_UNSEEN = np.iinfo(np.intp).max


class Permutation:
    """A bijection of {0, ..., degree-1}, stored as an image array."""

    __slots__ = ("_images", "_key")

    def __init__(self, images):
        arr = np.asarray(images, dtype=np.int32)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("images must be a non-empty 1-d sequence")
        n = arr.size
        seen = np.zeros(n, dtype=bool)
        if arr.min() < 0 or arr.max() >= n:
            raise ValueError("images out of range")
        seen[arr] = True
        if not seen.all():
            raise ValueError("images is not a bijection")
        arr = arr.copy()
        arr.setflags(write=False)
        self._images = arr
        self._key = None

    @classmethod
    def _raw(cls, arr):
        # internal fast path: arr is a fresh int32 bijection
        p = object.__new__(cls)
        arr.setflags(write=False)
        p._images = arr
        p._key = None
        return p

    @classmethod
    def identity(cls, degree):
        return cls._raw(np.arange(degree, dtype=np.int32))

    @property
    def images(self):
        return self._images

    @property
    def degree(self):
        return self._images.size

    @property
    def key(self):
        """Hashable canonical form (image bytes)."""
        k = self._key
        if k is None:
            k = self._images.tobytes()
            self._key = k
        return k

    def __call__(self, point):
        return int(self._images[point])

    def __mul__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        if other.degree != self.degree:
            raise AmbientMismatchError(
                f"degree mismatch: {self.degree} vs {other.degree}")
        return Permutation._raw(other._images[self._images])

    def inverse(self):
        inv = np.empty(self.degree, dtype=np.int32)
        inv[self._images] = np.arange(self.degree, dtype=np.int32)
        return Permutation._raw(inv)

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = Permutation.identity(self.degree)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate_by(self, other):
        """self ^ other = other^-1 * self * other."""
        return other.inverse() * self * other

    def is_identity(self):
        return bool(np.all(self._images == np.arange(self.degree,
                                                     dtype=np.int32)))

    def order(self):
        return math.lcm(*(len(c) for c in self.cycles(fixed_points=True)))

    def cycles(self, fixed_points=False):
        """Disjoint cycles, each starting at its minimal point,
        ordered by that point."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            nxt = int(self._images[start])
            while nxt != start:
                cyc.append(nxt)
                seen[nxt] = True
                nxt = int(self._images[nxt])
            if len(cyc) > 1 or fixed_points:
                out.append(cyc)
        return out

    def cycle_string(self):
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(str(p) for p in c) + ")" for c in cycles)

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return (self._images.size == other._images.size
                and np.array_equal(self._images, other._images))

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"Permutation({self.cycle_string()!r}, degree={self.degree})"


def commutator(a, b):
    """[a, b] = a^-1 b^-1 a b."""
    if a.degree != b.degree:
        raise AmbientMismatchError(
            f"degree mismatch: {a.degree} vs {b.degree}")
    ai = a.inverse()._images
    bi = b.inverse()._images
    # word a^-1 b^-1 a b, applied left to right
    return Permutation._raw(b._images[a._images[bi[ai]]])


def iterated_commutator(x, y, n):
    """Left-normed [x, y, y, ..., y] with n copies of y; n >= 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    c = commutator(x, y)
    for _ in range(n - 1):
        c = commutator(c, y)
    return c


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text, degree):
    """Parse cycle notation over 0-based points, e.g. ``(0 1)(2 3)``.

    ``()`` is the identity.  Overlapping cycles compose left to right.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty permutation string")
    stripped = _CYCLE_RE.sub("", text)
    if stripped.strip():
        raise ValueError(f"malformed cycle notation: {text!r}")
    perm = Permutation.identity(degree)
    for body in _CYCLE_RE.findall(text):
        points = [int(tok) for tok in body.replace(",", " ").split()]
        if not points:
            continue
        if len(set(points)) != len(points):
            raise ValueError(f"repeated point in cycle: ({body})")
        images = np.arange(degree, dtype=np.int32)
        for a, b in zip(points, points[1:] + points[:1]):
            if not 0 <= a < degree:
                raise ValueError(f"point {a} out of range for degree {degree}")
            images[a] = b
        perm = perm * Permutation(images)
    return perm


def parse_perm_group(text, *, name=None, max_order=DEFAULT_MAX_ORDER):
    """Parse the permutation-group file format.

    Line 1 is ``degree N``; each further non-empty line is one generator
    in cycle notation.  ``#`` starts a comment.
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
    if not gens:
        raise ValueError("no generators given")
    return FiniteGroup(gens, name=name, max_order=max_order)


def format_perm_group(group):
    lines = [f"degree {group.degree}"]
    lines += [g.cycle_string() for g in group.generators]
    return "\n".join(lines) + "\n"


def _sweep_table(right, levels):
    """Cayley table from right-multiplication columns: the column of
    element k = p * g is ``right[g]`` applied to the column of p, since
    x * (e_p * g) = (x * e_p) * g, written as one contiguous row of the
    table's transpose."""
    n = right.shape[1]
    dtype = np.int16 if n <= np.iinfo(np.int16).max else np.int32
    cols = np.empty((n, n), dtype=dtype)
    cols[0] = np.arange(n, dtype=dtype)
    for src, gen, new in levels:
        for p, g, k in zip(src.tolist(), gen.tolist(), new.tolist()):
            cols[k] = right[g][cols[p]]
    table = cols.T
    table.setflags(write=False)
    return table


def sweep_rows(width):
    """Rows of length ``width`` that one step of a 2-d sweep takes."""
    return max(1, SWEEP_ENTRIES // width)


def _first_new(values, marks):
    """Positions in ``values`` of the first occurrence of each entry not
    yet seen, in order.  ``marks`` holds -1 at seen element indices and
    ``_UNSEEN`` elsewhere; the entries found become seen."""
    pos = np.flatnonzero(marks[values] == _UNSEEN)
    new = values[pos]
    # each new entry's mark takes its least position, which picks out
    # the first occurrences without sorting
    np.minimum.at(marks, new, pos)
    pos = pos[marks[new] == pos]
    marks[new] = -1
    return pos


def bfs_levels(right):
    """Breadth-first sweep from the identity over right multiplication
    by k elements, given their right-multiplication columns:
    ``right[t][i]`` is the index of element i times element t of the k.
    Yields one ``(sources, column positions, new elements)`` per level:
    element ``new[i]`` is ``sources[i]`` times the element of column
    ``positions[i]``, and every source lies on an earlier level.  The
    new elements come in the order a scalar queue discovers them, since
    each chunk of a level is gathered row-major and keeps first
    occurrences."""
    k, n = right.shape
    if not k:
        return
    marks = np.full(n, _UNSEEN, dtype=np.intp)
    marks[0] = -1
    step = sweep_rows(k)
    frontier = np.zeros(1, dtype=np.intp)
    while True:
        level = []
        for lo in range(0, frontier.size, step):
            src = frontier[lo:lo + step]
            cand = right[:, src].T.ravel()
            pos = _first_new(cand, marks)
            if pos.size:
                level.append((src[pos // k], pos % k, cand[pos]))
        if not level:
            return
        src, gen, new = level[0] if len(level) == 1 else (
            np.concatenate(part) for part in zip(*level))
        yield src, gen, new
        frontier = new


def commutator_sweep(group, rows, cols=None):
    """Distinct commutators [r, g] over ``rows`` and every element g of
    ``group`` (or of ``cols``), in first-occurrence order of the
    row-major sweep."""
    rows = np.asarray(rows, dtype=np.intp)
    cols = slice(None) if cols is None else np.asarray(cols, dtype=np.intp)
    marks = np.full(group.order(), _UNSEEN, dtype=np.intp)
    out = []
    step = sweep_rows(group.order())
    inv = group.inverse_indices()
    for lo in range(0, rows.size, step):
        # [r, g] is the inverse of [g, r]
        c = inv[group.commutator_columns(rows[lo:lo + step])[:, cols]].ravel()
        out.extend(c[_first_new(c, marks)].tolist())
    return out


class FiniteGroup:
    """A finite group given by permutation generators of equal degree.

    ``regular=True`` marks a regular action with the identity at point 0
    (element index of a member is then its image of 0); coset
    enumeration produces groups of this kind.
    """

    def __init__(self, generators, *, name=None, max_order=DEFAULT_MAX_ORDER,
                 regular=False, order_hint=None):
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
        self._order_hint = order_hint
        # caches (idempotent fill); _parents is assigned last by a closure
        self._elements = None       # generic: every element, in order
        self._index = None          # generic: image bytes -> index
        self._parents = None        # (n, 2): breadth-first parent, generator
        self._right = None          # (k, n): index(element_i * generator_t)
        self._levels = None         # breadth-first (sources, gens, new)
        self._left_inv = None       # (k, n): index(generator_t^-1 * e_i)
        self._conj = None           # conjugation map and its level steps
        self._inv_idx = None
        self._table = None
        self._orders_idx = None
        self._lower_central = None
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

    def _close_generic(self):
        if self._parents is not None:
            return
        gens = self.generators
        els = [self.identity]
        index = {els[0].key: 0}
        parents = [(-1, -1)]
        # right[gi][i] = index(element_i * generator_gi)
        right = [[] for _ in gens]
        i = 0
        while i < len(els):
            e = els[i]
            for gi, g in enumerate(gens):
                k = (e * g).key
                j = index.get(k)
                if j is None:
                    if len(els) >= self.max_order:
                        raise CapacityError(
                            f"group exceeds element cap {self.max_order}")
                    j = index[k] = len(els)
                    # the element's images are a view of its key, so
                    # each element is stored once
                    f = Permutation._raw(np.frombuffer(k, dtype=np.int32))
                    f._key = k
                    els.append(f)
                    parents.append((i, gi))
                right[gi].append(j)
            i += 1
        self._elements = tuple(els)
        self._index = index
        self._right = np.array(right, dtype=np.int32)
        self._parents = np.array(parents, dtype=np.int32)

    def _close_regular(self):
        if self._parents is not None:
            return
        n = self._order_hint if self._order_hint is not None else self._degree
        if n != self._degree:
            raise ValueError("regular group must have degree == order")
        if n > self.max_order:
            raise CapacityError(f"group exceeds element cap {self.max_order}")
        # generator t maps point i to index(element_i * generator_t)
        right = np.stack([g.images for g in self.generators])
        parents = np.full((n, 2), -1, dtype=np.int32)
        levels = tuple(bfs_levels(right))
        for src, gen, new in levels:
            parents[new, 0] = src
            parents[new, 1] = gen
        if 1 + sum(new.size for _, _, new in levels) != n:
            raise ValueError("action is not transitive; not a regular group")
        self._right = right
        self._levels = levels
        self._order_hint = n
        self._parents = parents

    def _close(self):
        if self._regular:
            self._close_regular()
        else:
            self._close_generic()

    def order(self):
        if self._order_hint is None:
            self._close()
            self._order_hint = len(self._parents)
        return self._order_hint

    def elements(self):
        """All elements in deterministic breadth-first order."""
        if self._elements is None:
            self._close()
            if self._elements is None:       # regular
                self._elements = tuple(self.element(i)
                                       for i in range(self.order()))
        return self._elements

    def element(self, i):
        """Element number ``i`` of the deterministic order."""
        if self._regular:
            return Permutation._raw(self.column(i))
        return self.elements()[i]

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
        if self._levels is None:
            self._close()
            if self._levels is None:         # generic
                self._levels = tuple(bfs_levels(self._right))
        return self._levels

    def _left_inverses(self):
        """Left multiplication by each generator's inverse, one row per
        generator: ``l[t, i] = index(generator_t^-1 * element_i)``."""
        if self._left_inv is None:
            levels = self.levels()
            right = self._right
            left = np.empty_like(right)
            # generator t's inverse is the element it maps to 1, the
            # least entry; then a * (p * g) = (a * p) * g
            left[:, 0] = right.argmin(axis=1)
            for src, gen, new in levels:
                left[:, new] = right[gen, left[:, src]]
            left.setflags(write=False)
            self._left_inv = left
        return self._left_inv

    def generator_conjugates(self, idx):
        """``c[t, i] = index(generator_t^-1 * element_idx[i] *
        generator_t)``: one left and one right gather per generator."""
        left = self._left_inverses()
        idx = np.asarray(idx, dtype=np.intp)
        return np.take_along_axis(self._right, left[:, idx], axis=1)

    def _conjugation_sweep(self):
        """The generators' conjugation map, and the breadth-first levels
        with each generator replaced by the offset of its row in the
        flattened map, so that one level of a sweep is one flat gather.
        Built once per group."""
        if self._conj is None:
            n = self.order()
            conj = self.generator_conjugates(np.arange(n))
            conj.setflags(write=False)
            steps = tuple((src, (gen * n)[:, None], new)
                          for src, gen, new in self.levels())
            self._conj = (conj, steps)
        return self._conj

    def conjugation_map(self):
        """``generator_conjugates`` of every element, built once:
        ``c[t, i] = index(generator_t^-1 * element_i * generator_t)``."""
        return self._conjugation_sweep()[0]

    def inverse_indices(self):
        """``inv[i] = index(element_i^-1)``, by one sweep along the
        levels: (p * g)^-1 = g^-1 * p^-1."""
        if self._inv_idx is None:
            left = self._left_inverses()
            inv = np.zeros(self.order(), dtype=np.int32)
            for src, gen, new in self.levels():
                inv[new] = left[gen, inv[src]]
            inv.setflags(write=False)
            self._inv_idx = inv
        return self._inv_idx

    def commutator_columns(self, idx):
        """``c[t, x] = index([element_x, a])`` for a = element idx[t] and
        every x.  [x, a] is the conjugate x^-1 a^-1 x times a; for
        x = p * g that conjugate is g^-1 (p^-1 a^-1 p) g, so the
        conjugates are one gather per breadth-first level, and the
        product is one gather through a's column."""
        a = np.asarray(idx, dtype=np.intp)
        n = self.order()
        by_gen, steps = self._conjugation_sweep()
        by_gen = by_gen.ravel()
        # one row per x, so each level gathers whole rows of its sources
        conj = np.empty((n, a.size), dtype=np.int32)
        conj[0] = self.inverse_indices()[a]
        for src, offset, new in steps:
            conj[new] = by_gen[conj[src] + offset]
        return np.take_along_axis(self.right_columns(a.tolist()), conj.T,
                                  axis=1)

    def column(self, j):
        """Right multiplication by element j: ``c[i] = index(element_i *
        element_j)``, cached up to ``COLUMN_CACHE_ENTRIES``.  It is
        composed from the generators' columns along the word of j,
        starting from the nearest ancestor on j's breadth-first chain
        whose column is cached.  A regular group's column j is element
        j's image array."""
        c = self._columns.get(j)
        if c is None:
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

    def mul_idx(self, i, j):
        c = self._columns.get(j)
        if c is None:
            c = self.column(j)
        return c.item(i)

    def inv_idx(self, i):
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
        return Subgroup(self, self.generators)

    def normal_closure(self, gens):
        """Smallest normal subgroup of this group containing ``gens``."""
        seed = [g if isinstance(g, Permutation) else Permutation(g)
                for g in gens]
        seeds = []
        seen = set()
        for g in seed:
            if g.key not in seen:
                seen.add(g.key)
                seeds.append(g)
        while True:
            sub = Subgroup(self, seeds)
            new = []
            for s in seeds:
                for g in self.generators:
                    c = s.conjugate_by(g)
                    if c not in sub and c.key not in seen:
                        seen.add(c.key)
                        new.append(c)
            if not new:
                return sub
            seeds.extend(new)

    def derived_subgroup(self):
        gens = self.generators
        seeds = [commutator(a, b) for a in gens for b in gens]
        return self.normal_closure(seeds)

    def lower_central_series(self):
        """Terms gamma_1 > gamma_2 > ... down to the first repeated term,
        computed once per group."""
        if self._lower_central is None:
            terms = [self.full_subgroup()]
            while True:
                prev = terms[-1]
                seeds = [commutator(h, g)
                         for h in prev.generators for g in self.generators]
                nxt = self.normal_closure(seeds)
                if nxt == prev:
                    break
                terms.append(nxt)
                if nxt.order() == 1:
                    break
            self._lower_central = SeriesReport(
                kind="lower-central", terms=tuple(terms), stabilized=True)
        return self._lower_central

    def derived_series(self):
        terms = [self.full_subgroup()]
        while True:
            prev = terms[-1]
            sub = prev.as_group().derived_subgroup()
            nxt = Subgroup(self, sub.elements())
            if nxt == prev:
                break
            terms.append(nxt)
            if nxt.order() == 1:
                break
        return SeriesReport(kind="derived", terms=tuple(terms),
                            stabilized=True)

    def center(self):
        gens = self.generators
        members = [e for e in self.elements()
                   if all(e * g == g * e for g in gens)]
        return Subgroup(self, members)

    def is_abelian(self):
        gens = self.generators
        return all(commutator(a, b).is_identity()
                   for a in gens for b in gens)

    def is_nilpotent(self):
        return self.lower_central_series().terms[-1].order() == 1

    def nilpotency_class(self):
        series = self.lower_central_series()
        if series.terms[-1].order() != 1:
            raise ValueError("group is not nilpotent")
        return len(series.terms) - 1

    def is_p_group(self, p):
        n = self.order()
        while n % p == 0:
            n //= p
        return n == 1

    def quotient_action(self, normal):
        """Permutation action of the generators on the cosets of ``normal``.

        ``normal`` must be a normal subgroup; the result has order
        |G| / |N| and acts on coset points numbered by first appearance
        in element order.
        """
        if normal.parent is not self:
            raise ValueError("subgroup has a different parent group")
        if not normal.is_normal():
            raise ValueError("subgroup is not normal")
        n = self.order()
        sub_idx = normal.indices()
        coset_id = [-1] * n
        reps = []
        for i in range(n):
            if coset_id[i] >= 0:
                continue
            c = len(reps)
            reps.append(i)
            for t in sub_idx:
                coset_id[self.mul_idx(t, i)] = c
        k = len(reps)
        gen_images = []
        for g in self.generators:
            gi = self.index_of(g)
            images = np.fromiter(
                (coset_id[self.mul_idx(rep, gi)] for rep in reps),
                dtype=np.int32, count=k)
            gen_images.append(Permutation(images))
        name = f"{self.name}/N" if self.name else None
        return FiniteGroup(gen_images, name=name, max_order=self.max_order)


class Subgroup:
    """Subgroup of a FiniteGroup, realized as a closed set of element
    indices of the parent.  Equality is element-set equality."""

    def __init__(self, parent, generators):
        self.parent = parent
        gens = tuple(g if isinstance(g, Permutation) else Permutation(g)
                     for g in generators)
        for g in gens:
            if g.degree != parent.degree:
                raise AmbientMismatchError(
                    "subgroup generator degree differs from parent")
        self._generators = gens
        gen_idx = [parent.index_of(g) for g in gens]
        self._indices = self._close_indices(gen_idx)
        self._index_set = frozenset(self._indices)
        self._as_group = None

    def _close_indices(self, gen_idx):
        cap = self.parent.max_order
        order = [0]
        for _, _, new in bfs_levels(self.parent.right_columns(gen_idx)):
            order.extend(new.tolist())
            if len(order) > cap:
                raise CapacityError(f"subgroup exceeds element cap {cap}")
        return tuple(order)

    @classmethod
    def _from_indices(cls, parent, indices):
        """Internal: wrap an already-closed index set (generators lazily)."""
        sub = object.__new__(cls)
        sub.parent = parent
        sub._generators = None
        sub._indices = tuple(indices)
        sub._index_set = frozenset(indices)
        sub._as_group = None
        return sub

    @property
    def generators(self):
        if self._generators is None:
            parent = self.parent
            self._generators = tuple(
                parent.element(i) for i in self._indices if i != 0) \
                or (parent.identity,)
        return self._generators

    def indices(self):
        return self._indices

    def index_set(self):
        return self._index_set

    def order(self):
        return len(self._indices)

    def elements(self):
        return tuple(self.parent.element(i) for i in self._indices)

    def __contains__(self, perm):
        try:
            return self.parent.index_of(perm) in self._index_set
        except (KeyError, AmbientMismatchError):
            return False

    def contains_index(self, i):
        return i in self._index_set

    def __eq__(self, other):
        if not isinstance(other, Subgroup):
            return NotImplemented
        return (self.parent is other.parent
                and self._index_set == other._index_set)

    def __hash__(self):
        return hash((id(self.parent), self._index_set))

    def __repr__(self):
        return f"Subgroup(order={self.order()} of {self.parent!r})"

    def is_normal(self):
        conj = self.parent.generator_conjugates(self._indices)
        return bool(np.isin(conj, self._indices).all())

    def as_group(self):
        """The subgroup as a standalone FiniteGroup on the same points."""
        if self._as_group is None:
            gens = self.generators if any(
                not g.is_identity() for g in self.generators) \
                else (self.parent.identity,)
            g = FiniteGroup(gens, max_order=self.parent.max_order,
                            order_hint=None)
            self._as_group = g
        return self._as_group

    def is_abelian(self):
        gens = self.generators
        return all(commutator(a, b).is_identity()
                   for a in gens for b in gens)


@dataclass(frozen=True)
class SeriesReport:
    """A descending subgroup series with its stabilization flag."""
    kind: str
    terms: tuple
    stabilized: bool


def power_subgroup(sub, k):
    """Subgroup generated by the k-th powers of all members of ``sub``."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    parent = sub.parent
    gens = []
    seen = set()
    for i in sub.indices():
        j = parent.pow_idx(i, k)
        if j not in seen:
            seen.add(j)
            gens.append(parent.element(j))
    return Subgroup(parent, gens)
