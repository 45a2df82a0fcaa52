"""The rows of a coset table and the operations HLT enumeration is
built from (``tensq.coset``): union-find over coset labels, coincidence
processing, the reservation, definition, relator scans, the limits,
compaction and the closing ``verify``.

The scans from one coset are one loop, ``_scan_rows``, over the
indices of the distinct relators the pre-check left open, with no call
per scan: HLT spends most of its time there.  ``coset`` passes it each
distinct relator once; ``verify`` checks every row.  Every single entry
is read and written through ``_cols``, one 1-D memoryview per column:
``_cols[x][c]`` indexes one dimension, where a 2-D view builds a tuple
and takes the multi-dimensional subscript path on every access.  The
views are strided slices of one flat view of the array, which costs no
ndarray per column, and the array never moves, so they stay valid
until the table closes.

``tensq.coset.CosetTable`` is the one subclass.  It sets up the rows'
state (``__init__``) and drives the passes.  The class is split across
the two modules so that each compiles in a small transient: ``coset``
is deferred, and a module compiled after the imports keeps most of its
compile transient resident for the command that ran it
(``tensq.cli``).
"""

from __future__ import annotations

import mmap
import time

import numpy as np

from .errors import EnumerationLimitError, StateError


class CosetRows:
    """The table array, ``_rows``, its column views ``_cols`` (entry
    [c, x] is ``_cols[x][c]``), the cosets 1 to ``_n`` and the
    union-find list ``p``, with the operations on them.  0 marks an
    undefined entry, and row 0, all 0, is no coset: a gather from an
    undefined entry reads it, so an undefined entry stays undefined
    along a path."""

    @property
    def table(self):
        """Coset table, 0-based: entry [c, x] is the coset c.x, or -1 if
        undefined."""
        if self.status == "closed":
            return self._table
        return self._rows[1:self._n + 1] - 1

    # -- union-find over coset labels --------------------------------------

    def _rep(self, k):
        p = self.p
        r = k
        while p[r] != r:
            r = p[r]
        while p[k] != r:
            p[k], k = r, p[k]
        return r

    def _merge(self, k, lam, queue):
        k = self._rep(k)
        lam = self._rep(lam)
        if k != lam:
            lo, hi = (k, lam) if k < lam else (lam, k)
            self.p[hi] = lo
            self.alive -= 1
            queue.append(hi)

    def _coincidence(self, a, b):
        queue = []
        self._merge(a, b, queue)
        qi = 0
        while qi < len(queue):
            g = queue[qi]
            qi += 1
            for col, inv in self._pairs:
                d = col[g]
                if d:
                    inv[d] = 0
                    mu = self._rep(g)
                    nu = self._rep(d)
                    if col[mu]:
                        self._merge(nu, col[mu], queue)
                    elif inv[nu]:
                        self._merge(mu, inv[nu], queue)
                    else:
                        col[mu] = nu
                        inv[nu] = mu

    # -- definition and scanning -------------------------------------------

    def _define(self, a, x):
        if self.alive >= self.limits.max_cosets:
            raise self._limit_error(
                f"coset limit {self.limits.max_cosets} exceeded")
        self._ticker += 1
        if self._ticker >= 4096:
            self._ticker = 0
            self._check_time()
        b = self._n + 1
        if b == len(self._rows):
            raise self._limit_error(
                f"table memory limit {len(self._map)} bytes exceeded")
        self._n = b
        self.p.append(b)
        self.alive += 1
        self.defined += 1
        self._cols[x][a] = b
        self._cols[x ^ 1][b] = a
        return b

    def _reserve(self, nbytes):
        """Reserve ``nbytes`` of anonymous memory, all 0, as ``_rows``;
        point ``_cols`` at its columns and ``_pairs`` at (column x,
        column x ^ 1), for the coincidence.  Not np.zeros: numpy advises
        huge pages for an array this size, which makes a small table
        resident 2 MiB at a time.  ``count`` and ``reshape(-1)`` serve a
        table with no columns, which ``cast`` would refuse."""
        self._map = mmap.mmap(-1, nbytes,
                              flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
        rows = nbytes // (4 * max(1, self.ncols))
        self._rows = np.frombuffer(
            self._map, dtype=np.int32,
            count=rows * self.ncols).reshape(rows, self.ncols)
        flat = memoryview(self._rows.reshape(-1))
        cols = self._cols = [flat[x::self.ncols] for x in range(self.ncols)]
        self._pairs = [(cols[x], cols[x ^ 1]) for x in range(self.ncols)]

    def _scan_rows(self, a, relators, fill):
        """Scan the distinct relators ``relators`` (indices into
        ``_distinct``, ascending) from live coset ``a``, in order, until
        one kills ``a``.  A scan that stops at an undefined entry defines
        a new coset there if ``fill`` flags its column, and otherwise
        leaves the entry to a deduction."""
        p = self.p
        words = self._distinct
        cols = self._cols
        for r in relators:
            word = words[r]
            i, j = 0, len(word) - 1
            f = b = a
            while True:
                while i <= j:
                    d = cols[word[i]][f]
                    if not d:
                        break
                    f = d
                    i += 1
                if i > j:
                    if f != b:
                        self._coincidence(f, b)
                    break
                while j >= i:
                    d = cols[word[j] ^ 1][b]
                    if not d:
                        break
                    b = d
                    j -= 1
                if j < i:
                    self._coincidence(f, b)
                    break
                if j == i:
                    cols[word[i]][f] = b
                    cols[word[i] ^ 1][b] = f
                    break
                if not fill[word[i]]:
                    break
                self._define(f, word[i])
            if p[a] != a:
                return

    # -- limits ------------------------------------------------------------

    def _check_time(self):
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise self._limit_error(
                f"time limit {self.limits.time_limit}s exceeded")

    def _limit_error(self, what):
        elapsed = time.monotonic() - self._start
        return EnumerationLimitError(
            f"{what} ({self.alive} live cosets, {self.defined} cosets "
            f"defined, {elapsed:.2f}s elapsed)", table=self)

    # -- compaction and the closed table -----------------------------------

    def _compact(self):
        """Renumber live cosets 1 to k in discovery order, in place."""
        n = self._n
        rep = np.array(self.p, dtype=np.intp)
        while not np.array_equal(rep[rep], rep):
            rep = rep[rep]
        # row 0 is its own representative, so it keeps label 0 and an
        # undefined entry stays undefined
        live = np.flatnonzero(rep == np.arange(n + 1))
        k = len(live) - 1
        # each coset's new label is its representative's
        relabel = np.empty(n + 1, dtype=np.int32)
        relabel[live] = np.arange(k + 1, dtype=np.int32)
        relabel = relabel[rep]
        del rep
        # live[i] >= i, and each column is gathered before it is written
        for x in range(self.ncols):
            self._rows[:k + 1, x] = relabel[self._rows[live, x]]
        self._rows[k + 1:n + 1] = 0
        # and hand their whole pages back, so that they are not resident
        # beside a closing copy of the live rows
        start = -(-(k + 1) * 4 * self.ncols // mmap.PAGESIZE) * mmap.PAGESIZE
        end = (n + 1) * 4 * self.ncols
        if start < end:
            self._map.madvise(mmap.MADV_DONTNEED, start, end - start)
        self._n = k
        self.p = list(range(k + 1))

    @property
    def coset_count(self):
        if self.status == "closed":
            return len(self.table)
        return self.alive

    def is_closed(self):
        return self.status == "closed"

    def verify(self):
        """Re-check the closed table independently of the deduction path:
        every relator scans to closure everywhere, and the columns are
        mutually inverse bijections."""
        if self.status != "closed":
            raise StateError("table is not closed")
        table = self.table
        n = len(table)
        cosets = np.arange(n)
        if table.size and (table.min() < 0 or table.max() >= n):
            raise StateError("closed table has inconsistent columns")
        # cols[x] is column x of the table, an int32 view: no copy
        cols = list(table.T)
        for x in range(self.ncols):
            if not np.array_equal(cols[x ^ 1][cols[x]], cosets):
                raise StateError("closed table has inconsistent columns")
        # an intp index, as numpy takes it; an int32 one is cast per gather
        f = np.empty(n, dtype=np.intp)
        for word in self.relators:
            f[:] = cosets
            for x in word:
                f[:] = cols[x][f]
            if not np.array_equal(f, cosets):
                raise StateError("relator does not scan to closure")
        return True
