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
three things, all from one closure: its generators' right-multiplication
columns (a regular group's generator images, or a generic group's from
a scalar queue that stores each element once), and the breadth-first
levels ``(sources, generators, new)`` and parents that one sweep over
them gives.  A map out of the group is fixed by its value at the
identity and its step along each generator, so ``FiniteGroup.sweep``
builds it one gather per level, as element p * g follows its parent p;
every module maps out of a group that way.  The maps here: left
multiplication by each generator's inverse, since left and right
multiplication commute; the inverses, (p * g)^-1 = g^-1 * p^-1; the
conjugates x^-1 a x of a fixed a, g^-1 (p^-1 a p) g, read from the
generators' conjugation map, which is built once per group; and from
these the commutators with a over every x, which drive the Engel
iterations and ``commutator_sweep``.  A single product reads one
cached column, element j's right multiplication, composed from
generator columns along j's word.  For a regular group (degree equal to
order, identity at point 0, as coset enumeration over the trivial
subgroup produces) that column is element j's image array, since
index(e_i * e_j) = e_j(i), so a regular group never stores its
elements.

A subgroup is a closed tuple of its parent's element indices,
generated by a tuple of element indices, and every subgroup operation
(closure, normal closure, the derived and lower central series, the
centre, power subgroups) works on those indices; a subgroup never
leaves its parent.  The lower central series has one body,
``Subgroup.lower_central_series`` of a normal subgroup, and a group's
series, nilpotency test and class are those of its full subgroup.
Permutations appear only at the API edge: a group's ``generators``,
``element``, ``elements`` and ``index_of``, and ``as_index`` for a
caller's argument.

A closure gathers a whole breadth-first level from right-multiplication
columns at once and keeps first occurrences, which visits elements in
exactly the order of a scalar queue.  No kernel builds an N x N Cayley
table; ``table()`` builds one on request, up to ``TABLE_CAP``.
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
        arr = np.asarray(images)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("images must be a non-empty 1-d sequence")
        # checked before the int32 cast, which would truncate a float
        # and wrap a large integer into range
        if arr.dtype.kind not in "iu":
            raise ValueError("images must be integers")
        n = arr.size
        if arr.min() < 0 or arr.max() >= n:
            raise ValueError("images out of range")
        seen = np.zeros(n, dtype=bool)
        seen[arr] = True
        if not seen.all():
            raise ValueError("images is not a bijection")
        arr = arr.astype(np.int32)
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


def parse_perm_group(text, *, name=None):
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
    return FiniteGroup(gens, name=name)


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


def least_positions(marks, values, positions):
    """Set ``marks[v]`` to the least ``positions[i]`` with
    ``values[i] == v``, for each v in ``values``, where every such mark
    starts above every position: ``np.minimum.at(marks, values,
    positions)`` without the kernel of its own that ``ufunc.at`` maps.
    The scatter runs in reverse, so that numpy's in-order writes leave
    the least of ascending positions; the loop then lowers every mark
    still above a position of its value, which makes the result exact
    whatever the order of the positions or of the writes."""
    marks[values[::-1]] = positions[::-1]
    while True:
        lower = positions < marks[values]
        if not lower.any():
            return
        marks[values[lower]] = positions[lower]


def _first_new(values, marks):
    """Positions in ``values`` of the first occurrence of each entry not
    yet seen, in order.  ``marks`` holds -1 at seen element indices and
    ``_UNSEEN`` elsewhere; the entries found become seen."""
    pos = np.flatnonzero(marks[values] == _UNSEEN)
    new = values[pos]
    # each new entry's mark takes its least position, which picks out
    # the first occurrences without sorting
    least_positions(marks, new, pos)
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
        self._elements = None       # generic: every element, in order
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

    def _close_generic(self):
        """Store every element, found by a scalar queue, and the index
        of each; return the generators' right-multiplication columns."""
        gens = self.generators
        els = [self.identity]
        index = {els[0].key: 0}
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
                right[gi].append(j)
            i += 1
        self._elements = tuple(els)
        self._index = index
        return np.array(right, dtype=np.int32)

    def _close(self):
        """The generators' right-multiplication columns, then one
        breadth-first sweep over them for the levels and the parents.
        A regular group's columns are its generators' images, and the
        sweep reaches every point only if it acts transitively."""
        if self._parents is not None:
            return
        right = np.stack([g.images for g in self.generators]) \
            if self._regular else self._close_generic()
        n = right.shape[1]
        parents = np.full((n, 2), -1, dtype=np.int32)
        levels = tuple(bfs_levels(right))
        for src, gen, new in levels:
            parents[new, 0] = src
            parents[new, 1] = gen
        if 1 + sum(new.size for _, _, new in levels) != n:
            raise ValueError("action is not transitive; not a regular group")
        self._right = right
        self._levels = levels
        self._parents = parents

    def order(self):
        self._close()
        return len(self._parents)

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
        return np.take_along_axis(self._right, left[:, idx], axis=1)

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
        """``generator_conjugates`` of every element, built once:
        ``c[t, i] = index(generator_t^-1 * element_i * generator_t)``."""
        if self._conj is None:
            conj = self.generator_conjugates(np.arange(self.order()))
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


class Subgroup:
    """Subgroup of a FiniteGroup, realized as a closed tuple of element
    indices of the parent, generated by a tuple of element indices.
    Equality is element-set equality."""

    def __init__(self, parent, generators):
        self.parent = parent
        self._generators = tuple(parent.as_index(g) for g in generators)
        self._indices = self._close_indices(self._generators)
        self._index_set = frozenset(self._indices)
        self._lower_central = None

    def _close_indices(self, gen_idx):
        order = [0]
        for _, _, new in bfs_levels(self.parent.right_columns(gen_idx)):
            order.extend(new.tolist())
        return tuple(order)

    @classmethod
    def _from_indices(cls, parent, indices):
        """Internal: wrap an already-closed index set, generated by its
        non-identity members."""
        sub = object.__new__(cls)
        sub.parent = parent
        sub._indices = tuple(indices)
        sub._generators = tuple(i for i in sub._indices if i)
        sub._index_set = frozenset(sub._indices)
        sub._lower_central = None
        return sub

    @property
    def generators(self):
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
        """Whether every generator of the parent conjugates each member
        into the subgroup, read through a membership mask."""
        member = np.zeros(self.parent.order(), dtype=bool)
        member[list(self._indices)] = True
        conj = self.parent.generator_conjugates(self._indices)
        return bool(member[conj].all())

    def is_abelian(self):
        """Whether the generators commute pairwise: the products g * h,
        read from the generators' columns, form a symmetric matrix."""
        gens = list(self._generators)
        prods = np.array([self.parent.column(g)[gens] for g in gens],
                         dtype=np.int32).reshape(len(gens), len(gens))
        return bool((prods == prods.T).all())

    def lower_central_series(self):
        """gamma_1 = N > gamma_2 > ... for N normal in the parent, down to
        the first repeated or trivial term, computed once: gamma_{i+1} =
        [gamma_i, N] is normal in the parent, so it is the normal closure
        of the commutators of gamma_i's generators with N's."""
        if self._lower_central is None:
            if not self.is_normal():
                raise ValueError("subgroup is not normal in its parent")
            parent = self.parent
            terms = [self]
            while terms[-1].order() > 1:
                nxt = parent.normal_closure(commutator_sweep(
                    parent, terms[-1].generators, self._generators))
                if nxt == terms[-1]:
                    break
                terms.append(nxt)
            self._lower_central = SeriesReport(kind="lower-central",
                                               terms=tuple(terms))
        return self._lower_central

    def is_nilpotent(self):
        return self.lower_central_series().terms[-1].order() == 1

    def nilpotency_class(self):
        series = self.lower_central_series()
        if series.terms[-1].order() != 1:
            raise ValueError("subgroup is not nilpotent")
        return len(series.terms) - 1


@dataclass(frozen=True)
class SeriesReport:
    """A descending subgroup series."""
    kind: str
    terms: tuple


def power_subgroup(sub, k):
    """Subgroup generated by the k-th powers of all members of ``sub``."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    parent = sub.parent
    return Subgroup(parent, dict.fromkeys(parent.pow_idx(i, k)
                                          for i in sub.indices()))
