"""Breadth-first closure in index space, and subgroups as index sets.

A closure expands each breadth-first level at the cost of its own
size, and visits elements in exactly the order of a scalar queue.  A
small level, of at most ``QUEUE_ENTRIES`` (element, generator)
products, is a scalar queue over memoryviews of the right-multiplication
columns and of the marks; a larger one gathers the columns a chunk of
``SWEEP_ENTRIES`` products at a time and keeps first occurrences.  One
closure switches between the two from level to level as its frontier
grows and shrinks.  A group given by permutations, which has no
columns yet, closes once, level by level, in ``close_images``: it
gathers its products' images ``CLOSE_ENTRIES`` entries at a time, looks
each up by its bytes, and records each new element's source and
generator as it finds it, which gives the columns and the levels
together.

A subgroup is a closed tuple of its parent's element indices,
generated by a tuple of element indices, and every subgroup operation
(closure, normal closure, the derived and lower central series, the
centre, power subgroups) works on those indices; a subgroup never
leaves its parent.  The lower central series has one body,
``Subgroup.lower_central_series`` of a normal subgroup, and a group's
series, nilpotency test and class are those of its full subgroup.
The parent is a ``tensq.perm.FiniteGroup``, used only through its
index-space methods, so this module imports neither it nor
``tensq.permutation``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AmbientMismatchError, CapacityError

# Entries one step of an index-space sweep gathers: a breadth-first
# level is cut into chunks of about this many (element, generator)
# products, which keeps the temporaries small when a subgroup has
# hundreds of generators, and a sweep of whole-group rows (commutators,
# Engel steps) takes about this many entries' worth of rows at a time.
SWEEP_ENTRIES = 8192
# Image entries of products one step of ``close_images`` gathers.  Its
# transients (the sources' images, the gather's intp index, the
# products and their bytes) take about 20 bytes an entry: a step of
# SWEEP_ENTRIES held about 100 kB at once, and a ``lie`` run on an
# order-243 group ended with about 60 kB more resident than at this
# size, which is as fast.
CLOSE_ENTRIES = 1024
# Products up to which a breadth-first level is expanded by a scalar
# queue: below about this many, numpy's overhead per call (a gather, a
# search for first occurrences) costs more than the products do.
QUEUE_ENTRIES = 128
# Mark of an element index that a sweep has not reached yet; larger
# than any position in a gathered chunk.
_UNSEEN = np.iinfo(np.intp).max


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
    new elements come in the order a scalar queue discovers them: a
    level of at most ``QUEUE_ENTRIES`` products is one, over
    memoryviews of the columns and the marks, and a larger level is
    gathered row-major, a chunk at a time, keeping first occurrences."""
    k, n = right.shape
    if not k:
        return
    marks = np.full(n, _UNSEEN, dtype=np.intp)
    marks[0] = -1
    seen = memoryview(marks)
    cols = memoryview(right)
    step = sweep_rows(k)
    frontier = np.zeros(1, dtype=np.intp)
    while True:
        level = []
        if frontier.size * k <= QUEUE_ENTRIES:
            src, gen, new = [], [], []
            for p in frontier.tolist():
                for t in range(k):
                    v = cols[t, p]
                    if seen[v] > 0:
                        seen[v] = -1
                        src.append(p)
                        gen.append(t)
                        new.append(v)
            if new:
                level.append((np.array(src), np.array(gen), np.array(new)))
        else:
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


def close_images(gens, cap):
    """Close the permutations whose images are the rows of ``gens`` and
    store each element once, as its key (its int32 image bytes).  The
    elements found so far are expanded in order, ``CLOSE_ENTRIES``
    image entries of products at a time, source-major and
    generator-minor, and each product is looked up by its bytes, so
    elements are numbered in the order of a scalar queue, and each new
    element's source and generator are recorded as it is found.
    Returns the index (key -> element index), the generators'
    right-multiplication columns and the breadth-first levels, as
    ``bfs_levels`` would yield them over those columns.  Raises
    CapacityError past ``cap`` elements."""
    k, d = gens.shape
    width = 4 * d
    keys = [np.arange(d, dtype=np.int32).tobytes()]
    index = {keys[0]: 0}
    # right[i * k + t] = index(element_i * generator_t); element j > 0
    # is sources[j - 1] times generator gen[j - 1]; level i starts at
    # element starts[i]
    right, sources, gen, starts = [], [], [], [0]
    step = max(1, CLOSE_ENTRIES // (k * d))
    a = 0
    while a < len(keys):
        b = min(a + step, len(keys))
        images = np.frombuffer(b"".join(keys[a:b]), dtype=np.int32)
        buf = gens[:, images.reshape(b - a, d)].swapaxes(0, 1).tobytes()
        for i in range((b - a) * k):
            key = buf[i * width:(i + 1) * width]
            j = index.get(key)
            if j is None:
                j = len(keys)
                if j >= cap:
                    raise CapacityError(f"group exceeds element cap {cap}")
                index[key] = j
                keys.append(key)
                if a + i // k >= starts[-1]:
                    starts.append(j)
                sources.append(a + i // k)
                gen.append(i % k)
            right.append(j)
        a = b
    n = len(keys)
    sources = np.array(sources, dtype=np.int32)
    gen = np.array(gen)
    new = np.arange(n, dtype=np.int32)
    levels = tuple((sources[a - 1:b - 1], gen[a - 1:b - 1], new[a:b])
                   for a, b in zip(starts[1:], starts[2:] + [n]))
    right = np.array(right, dtype=np.int32).reshape(n, k)
    return index, right.T.copy(), levels


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
        """Whether every generator of the parent conjugates the
        subgroup's generators, whose words are its members, into it."""
        member = np.zeros(self.parent.order(), dtype=bool)
        member[list(self._indices)] = True
        conj = self.parent.generator_conjugates(self._generators)
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
