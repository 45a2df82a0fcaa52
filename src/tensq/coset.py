"""Todd-Coxeter coset enumeration.

HLT enumeration with a lookahead-and-compact pass.  Coincidences are
handled with the standard union-find over coset representatives and
full deduction replay.  Relators are scanned in declaration order, each
distinct reduced row once, where it first appears, and new cosets fill
the first undefined entry in row-major order, so identical inputs
produce identical tables.

Skipping a repeated row changes nothing where its first copy's scan
completes: that scan leaves the relator closed at the coset, and a
closed scan stays closed (see the pre-check below), so every later copy
would have scanned to closure and made no deduction.  A one-letter scan
always completes, in a deduction, a coincidence or a closed scan, and
in a pass that may define cosets in every column so does every scan.
The one place a skip could differ is a longer repeat in a pass along
``spanning`` alone, where a scan can stop at a gap; the presentations
tensq builds repeat only one-letter rows (nu(G)'s multiplication-table
presentation repeats x_e = 1 and x_e' = 1), so there the tables are
those of scanning every copy.  ``verify`` still checks every row.

Cosets are those of the trivial subgroup, so a closed table is the
regular representation of the presented group: row 0 is the identity,
and entry [i, x] is element i times letter x.  Relators are rows of
letters, which are also the table's columns: 2g is generator g, 2g + 1
its inverse (``x ^ 1`` flips direction) and -1 padding.  Each relator
is reduced here, freely and cyclically.

With ``spanning``, generators that generate the presented group, HLT
makes two passes.  The first defines new cosets only in the columns of
those generators: in the row fill, and in a relator scan, which stops
at a gap in any other column and leaves that entry to a deduction.  On
a presentation where most generators are products of a few (the
multiplication-table presentation of nu(G)) it defines a fraction of
the cosets a single pass would.  The second pass is ordinary HLT over
every column.  It fills each live coset's row and scans every relator
from it to closure, as a single pass would; the pre-check skips what
the first pass already closed.  So the closed table is a complete coset
table whatever ``spanning`` is, even one that does not generate, and
the coset, time and memory limits bound both passes.  ``to_perm_group``
builds the group on the ``spanning`` columns alone, so there they must
generate.

The second pass runs only when the first leaves it work.  If no live
coset's row has an undefined entry, the table is compacted and closed,
and its closing ``verify`` decides: every entry came from a definition,
a deduction or a coincidence, so a complete table on which every
relator closes is the coset table, and the second pass would change no
entry of it.  Only if ``verify`` rejects the table (a relator scan the
first pass left open hides a coincidence) does the second pass run, on
the compacted table: compaction keeps every entry and the live cosets
in order, so the pass scans the same cosets in the same order.  On the
all route's presentation of nu(G), the first pass left the table
complete and closed on all 16 nu-capable catalog groups, in catalog
and in seeded numberings.

The table is one ``int32`` array, reserved once at 1 GiB of memory
whose pages stay virtual until written, so the enumeration holds only
the rows it reaches.  0 marks an undefined entry: cosets are numbered
from 1, and row 0, all 0, is where a gather from one lands.  Past the
reservation's last row the enumeration stops with
``EnumerationLimitError``, like the coset and time limits.  Scan,
define and coincidence read and write single entries through one 1-D
memoryview per column, strided slices of one flat view of it
(``tensq.cosetrows``).  Before HLT scans a block of cosets, one numpy
gather per relator letter finds every (coset, relator) pair that
already scans to closure, and only the rest are scanned.  Skipping
them changes nothing: a closed scan makes no deduction, and it stays
closed under later definitions and coincidences, which only fill
entries and merge cosets.  Compaction relabels the table in place and
hands the pages of the rows it frees back.  Closing copies out the
live cosets, 0-based, and releases the reservation once ``verify`` has
re-checked the copy with whole-column gathers.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from .cosetrows import CosetRows
from .errors import EnumerationLimits, StateError
from .perm import FiniteGroup
from .permutation import Permutation

# Bytes reserved for a coset table: its memory limit.
_MAX_TABLE_BYTES = 1 << 30
# Rows in use at which HLT first runs a lookahead; the threshold then
# at least doubles after each one.
_LOOKAHEAD_THRESHOLD = 400_000
# (coset, relator) pairs per closed-relator pre-check: a block is this
# many divided by the relator count, and at least one coset.
_PRECHECK_PAIRS = 4096
# Letters the pre-check walks between tests of the time limit and of
# whether every path still walking has stopped at an undefined entry.
# Most relators are shorter, so their walks pay for neither test.
_WALK_CHECK_LETTERS = 16


@dataclass(frozen=True)
class LetterPresentation:
    """``ngens`` generators and ``relators``, rows of letters."""
    ngens: int
    relators: tuple


def inverse_row(row):
    """The inverse of the word ``row``, as a tuple of letters."""
    return tuple(x ^ 1 for x in reversed(row))


def _reduced(row, ncols):
    """``row`` less padding, freely and cyclically reduced; ValueError
    on a letter outside [0, ncols)."""
    out = []
    for x in row:
        if x == -1:
            continue
        if not 0 <= x < ncols:
            raise ValueError(f"letter {x} is outside [0, {ncols}): "
                             "no such generator")
        if out and out[-1] == x ^ 1:
            out.pop()
        else:
            out.append(x)
    i, j = 0, len(out) - 1
    while i < j and out[i] == out[j] ^ 1:
        i += 1
        j -= 1
    return tuple(out[i:j + 1])


class CosetTable(CosetRows):
    """Mutable state of one enumeration; closed tables are immutable in
    practice (nothing mutates them after ``close`` succeeds).  The rows
    and the operations on them are ``tensq.cosetrows.CosetRows``'s; this
    class sets them up and drives the HLT passes."""

    def __init__(self, presentation, limits=EnumerationLimits(),
                 spanning=None):
        self.ngens = presentation.ngens
        self.ncols = 2 * self.ngens
        # per HLT pass, a flag per column: whether the pass may define a
        # new coset there (see the module docstring)
        self._fills = [(True,) * self.ncols]
        # kept in order: ``to_perm_group`` builds the group on these
        self.spanning = None if spanning is None else tuple(spanning)
        if spanning is not None:
            spanning = set(spanning)
            if not spanning <= set(range(self.ngens)):
                raise ValueError(
                    f"spanning generators {sorted(spanning)} are not all "
                    f"in range({self.ngens})")
            self._fills.insert(0, tuple(x >> 1 in spanning
                                        for x in range(self.ncols)))
        # the lookahead defines none
        self._no_fill = (False,) * self.ncols
        self.relators = tuple(_reduced(r, self.ncols)
                              for r in presentation.relators)
        # each distinct row once, in order of first appearance: the
        # pre-check and the HLT passes walk these (see the module
        # docstring), ``verify`` every row
        self._distinct = tuple(dict.fromkeys(self.relators))
        self.limits = limits
        self._reserve(_MAX_TABLE_BYTES)
        # coset 1 is the subgroup's; p[0] = 0 stands for row 0
        self._n = 1
        self.p = [0, 1]
        self.alive = 1
        self.defined = 1
        # HLT passes run so far
        self.passes = 0
        self.status = "in-progress"
        self._start = None
        self._deadline = None
        self._ticker = 0
        # The pre-check walks relators longest first, so the relators
        # still walking at letter i are a prefix of that order, and
        # _letters[i] holds their i-th letters: a slice of one column
        # of the relators padded to a common length.
        lengths = [len(w) for w in self._distinct]
        walk = sorted(range(len(lengths)), key=lengths.__getitem__,
                      reverse=True)
        self._rank = np.empty(len(walk), dtype=np.intp)
        self._rank[walk] = np.arange(len(walk))
        held = (np.array([lengths[r] for r in walk], dtype=np.intp)[:, None]
                > np.arange(max(lengths, default=0)))
        padded = np.full(held.shape, -1, dtype=np.intp, order="F")
        padded[held] = np.fromiter(
            itertools.chain.from_iterable(self._distinct[r] for r in walk),
            dtype=np.intp, count=sum(lengths))
        self._letters = [padded[:k, i, None]
                         for i, k in enumerate(held.sum(axis=0).tolist())]

    # -- the closed-relator pre-check --------------------------------------

    def _open_relators(self, cosets):
        """Boolean (cosets, distinct relators) array: True where the
        relator does not yet scan to closure from the coset (an entry on
        its path is undefined or it ends elsewhere)."""
        start = np.array(cosets, dtype=np.intp)
        f = np.empty((len(self._distinct), len(start)), dtype=np.intp)
        f[:] = start
        flat = self._rows.reshape(-1)
        # an undefined entry (0) indexes row 0, all 0
        for i, letters in enumerate(self._letters, 1):
            step = f[:len(letters)]
            step *= self.ncols
            step += letters
            step[:] = flat[step]
            if i % _WALK_CHECK_LETTERS == 0:
                # every path still walking is undefined: all stay open
                if not step.any():
                    break
                self._check_time()
        return (f != start)[self._rank].T

    def _precheck_from(self, a):
        """Pre-check the next block of live cosets from ``a`` on.  Returns
        the end of the block and, for each of its live cosets, the
        indices of its open distinct relators, ascending."""
        block = max(1, _PRECHECK_PAIRS // max(1, len(self._distinct)))
        live = []
        c = a
        while c <= self._n and len(live) < block:
            if self.p[c] == c:
                live.append(c)
            c += 1
        # row-major, so each coset's indices are one ascending run
        which, relators = np.nonzero(self._open_relators(live))
        ends = np.bincount(which, minlength=len(live)).cumsum().tolist()
        relators = relators.tolist()
        return c, {coset: relators[lo:hi] for coset, lo, hi
                   in zip(live, [0, *ends], ends)}

    # -- HLT ---------------------------------------------------------------

    def _lookahead(self):
        hi = 1
        while hi <= self._n:
            hi, open_ = self._precheck_from(hi)
            for c, relators in open_.items():
                if self.p[c] == c:
                    self._scan_rows(c, relators, self._no_fill)
            self._check_time()

    def _hlt_pass(self, fill):
        """One HLT pass over the live cosets, in order, that defines new
        cosets only in the columns ``fill`` flags."""
        self.passes += 1
        fill_cols = [x for x in range(self.ncols) if fill[x]]
        a = hi = 1
        while a <= self._n:
            if a >= hi:
                hi, open_ = self._precheck_from(a)
            if self.p[a] == a:
                self._scan_rows(a, open_[a], fill)
                if self.p[a] == a:
                    for x in fill_cols:
                        if not self._cols[x][a]:
                            self._define(a, x)
            a += 1
            if self._n >= self._lookahead_at:
                self._lookahead()
                if self.alive < self._n // 2:
                    # a's new label: 1 and the live cosets before it,
                    # and p[0] == 0 counts the 1
                    a = sum(1 for c in range(a) if self.p[c] == c)
                    self._compact()
                # a compaction renumbers the cosets of the block
                hi = a
                self._lookahead_at = max(self._lookahead_at * 2,
                                         self._n + self._lookahead_at)
            self._check_time()

    def _close(self):
        self._compact()
        self._table = self._rows[1:self._n + 1] - 1
        self.status = "closed"
        self.verify()
        # the last references to the reservation: dropped, it is unmapped
        del self._map, self._rows, self._cols, self._pairs

    def _closes_early(self):
        """Close the table if no live coset's row has an undefined entry
        and ``verify`` accepts it; otherwise leave it open, compacted if
        ``verify`` rejected it."""
        live = np.array(self.p[1:]) == np.arange(1, self._n + 1)
        if not self._rows[1:self._n + 1].all(axis=1)[live].all():
            return False
        try:
            self._close()
        except StateError:
            self.status = "in-progress"
            del self._table
            return False
        return True

    # -- public ------------------------------------------------------------

    def run(self):
        self._start = time.monotonic()
        self._deadline = self._start + self.limits.time_limit
        self._lookahead_at = _LOOKAHEAD_THRESHOLD
        *first, last = self._fills
        for fill in first:
            self._hlt_pass(fill)
            if self._closes_early():
                return self
        self._hlt_pass(last)
        self._close()
        return self


def tc_enumerate(presentation, limits=None, spanning=None):
    """Enumerate the cosets of the trivial subgroup in the group
    ``presentation`` presents (a ``LetterPresentation``); returns a
    closed, compacted, verified table.  ``spanning`` names generators
    that generate the group: a first pass then defines new cosets only
    along them (see the module docstring)."""
    table = CosetTable(presentation, limits or EnumerationLimits(),
                       spanning)
    return table.run()


def to_perm_group(table, *, name=None):
    """The regular permutation group of the closed table, generated by
    its ``spanning`` generators in order, or by every generator if it
    has none: generator g acts as column 2g.  The group is closed here,
    so a ``spanning`` that does not generate raises ValueError (the
    action is not transitive) instead of giving a group whose order is
    the coset count and whose levels miss cosets."""
    if not table.is_closed():
        raise StateError("table is not closed")
    gens = range(table.ngens) if table.spanning is None else table.spanning
    group = points_group(table.table[:, [2 * g for g in gens]].T,
                         table.coset_count, name=name)
    group.order()               # the closure raises on a missed coset
    return group


def points_group(columns, points, *, name=None):
    """The regular group generated by the permutations ``columns`` of
    ``points`` points, with point 0 as its identity, so its order is
    ``points``.  No columns, as in the closed table of a presentation
    with no generators, give the group of the identity alone."""
    columns = list(columns) or [Permutation.identity(points)]
    return FiniteGroup(columns, name=name, regular=True)


def multiplication_table_presentation(group):
    """One generator x_i per element i of ``group``, x_0 = 1 (the
    identity), and x_i x_j x_ij^-1 for every pair in row-major order."""
    n = group.order()
    mul = group.right_columns(range(n)).T.tolist()
    return LetterPresentation(n, ((0,), *((2 * i, 2 * j, 2 * k + 1)
                                          for i, row in enumerate(mul)
                                          for j, k in enumerate(row))))
