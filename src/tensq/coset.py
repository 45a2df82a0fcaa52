"""Todd-Coxeter coset enumeration.

HLT enumeration with a lookahead-and-compact pass.  Coincidences are
handled with the standard union-find over coset representatives and
full deduction replay.  Relator scan order is declaration order and new
cosets fill the first undefined entry in row-major order, so identical
inputs produce identical tables.

Columns come in pairs: column 2g is generator g, column 2g+1 its
inverse (``col ^ 1`` flips direction).  Row 0 is the subgroup coset.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import EnumerationLimitError, StateError
from .perm import FiniteGroup, Permutation
from .words import Presentation, Word


@dataclass(frozen=True)
class EnumerationLimits:
    max_cosets: int = 2_000_000
    time_limit: float = 60.0
    lookahead_threshold: int = 400_000


def _columns(word):
    return tuple(2 * g + (0 if e == 1 else 1) for g, e in word)


class CosetTable:
    """Mutable state of one enumeration; closed tables are immutable in
    practice (nothing mutates them after ``close`` succeeds)."""

    def __init__(self, presentation, subgroup_words=(),
                 limits=EnumerationLimits()):
        self.presentation = presentation
        self.ngens = presentation.ngens
        self.ncols = 2 * self.ngens
        self.relators = tuple(_columns(r) for r in presentation.relators)
        self.subgroup_words = tuple(_columns(w.free_reduce())
                                    for w in subgroup_words)
        self.limits = limits
        self.table = [[-1] * self.ncols]
        self.p = [0]
        self.alive = 1
        self.status = "in-progress"
        self._deadline = None
        self._ticker = 0

    # -- union-find over coset labels ------------------------------------

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
        table = self.table
        qi = 0
        while qi < len(queue):
            g = queue[qi]
            qi += 1
            row = table[g]
            for x in range(self.ncols):
                d = row[x]
                if d >= 0:
                    table[d][x ^ 1] = -1
                    mu = self._rep(g)
                    nu = self._rep(d)
                    if table[mu][x] >= 0:
                        self._merge(nu, table[mu][x], queue)
                    elif table[nu][x ^ 1] >= 0:
                        self._merge(mu, table[nu][x ^ 1], queue)
                    else:
                        table[mu][x] = nu
                        table[nu][x ^ 1] = mu

    # -- scanning ----------------------------------------------------------

    def _define(self, a, x):
        if self.alive >= self.limits.max_cosets:
            raise EnumerationLimitError(
                f"coset limit {self.limits.max_cosets} exceeded", table=self)
        self._ticker += 1
        if self._ticker >= 4096:
            self._ticker = 0
            self._check_time()
        b = len(self.table)
        self.table.append([-1] * self.ncols)
        self.p.append(b)
        self.alive += 1
        self.table[a][x] = b
        self.table[b][x ^ 1] = a
        return b

    def _scan(self, a, word, fill):
        table = self.table
        i, j = 0, len(word) - 1
        f = b = a
        while True:
            while i <= j:
                d = table[f][word[i]]
                if d < 0:
                    break
                f = d
                i += 1
            if i > j:
                if f != b:
                    self._coincidence(f, b)
                return
            while j >= i:
                d = table[b][word[j] ^ 1]
                if d < 0:
                    break
                b = d
                j -= 1
            if j < i:
                self._coincidence(f, b)
                return
            if j == i:
                table[f][word[i]] = b
                table[b][word[i] ^ 1] = f
                return
            if not fill:
                return
            self._define(f, word[i])

    def _check_time(self):
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise EnumerationLimitError(
                f"time limit {self.limits.time_limit}s exceeded", table=self)

    # -- HLT ---------------------------------------------------------------

    def _lookahead(self):
        for c in range(len(self.table)):
            if self.p[c] != c:
                continue
            for r in self.relators:
                self._scan(c, r, fill=False)
                if self.p[c] != c:
                    break
            self._check_time()

    def _compact(self):
        """Renumber live cosets in discovery order; returns old cursor
        remapper."""
        old_to_new = {}
        newtable = []
        for c in range(len(self.table)):
            if self.p[c] == c:
                old_to_new[c] = len(newtable)
                newtable.append(self.table[c])
        for row in newtable:
            for x in range(self.ncols):
                if row[x] >= 0:
                    row[x] = old_to_new[self._rep(row[x])]
        self.table = newtable
        self.p = list(range(len(newtable)))
        return old_to_new

    def _run_hlt(self):
        lookahead_at = self.limits.lookahead_threshold
        for w in self.subgroup_words:
            self._scan(0, w, fill=True)
        a = 0
        while a < len(self.table):
            if self.p[a] == a:
                for r in self.relators:
                    self._scan(a, r, fill=True)
                    if self.p[a] != a:
                        break
                if self.p[a] == a:
                    row = self.table[a]
                    for x in range(self.ncols):
                        if row[x] < 0:
                            self._define(a, x)
            a += 1
            if len(self.table) >= lookahead_at:
                self._lookahead()
                if self.alive < len(self.table) // 2:
                    live_before = sum(1 for c in range(a)
                                      if self.p[c] == c)
                    self._compact()
                    a = live_before
                lookahead_at = max(lookahead_at * 2,
                                   len(self.table) + lookahead_at)
            self._check_time()

    # -- public -----------------------------------------------------------

    def run(self):
        self._deadline = time.monotonic() + self.limits.time_limit
        self._run_hlt()
        self._compact()
        self.status = "closed"
        self.verify()
        return self

    @property
    def coset_count(self):
        if self.status == "closed":
            return len(self.table)
        return self.alive

    def is_closed(self):
        return self.status == "closed"

    def verify(self):
        """Re-check the closed table independently of the deduction path:
        every relator and subgroup word scans to closure everywhere, and
        the columns are mutually inverse bijections."""
        if self.status != "closed":
            raise StateError("table is not closed")
        n = len(self.table)
        for c, row in enumerate(self.table):
            for x in range(self.ncols):
                d = row[x]
                if d < 0 or self.table[d][x ^ 1] != c:
                    raise StateError("closed table has inconsistent columns")
        for word in self.relators:
            for c in range(n):
                f = c
                for x in word:
                    f = self.table[f][x]
                if f != c:
                    raise StateError("relator does not scan to closure")
        for word in self.subgroup_words:
            f = 0
            for x in word:
                f = self.table[f][x]
            if f != 0:
                raise StateError("subgroup word leaves the subgroup coset")
        return True

    def permutation(self, gen):
        """Action of generator ``gen`` on the cosets."""
        if self.status != "closed":
            raise StateError("table is not closed")
        col = 2 * gen
        return Permutation(
            np.fromiter((row[col] for row in self.table),
                        dtype=np.int32, count=len(self.table)))


def tc_enumerate(presentation, subgroup_words=(), limits=None):
    """Enumerate cosets of the subgroup generated by ``subgroup_words``
    in the presented group; returns a closed, compacted, verified
    table."""
    table = CosetTable(presentation, subgroup_words,
                       limits or EnumerationLimits())
    return table.run()


def to_perm_group(table, *, name=None, max_order=None):
    """Permutation group of the closed table's coset action.

    For an enumeration over the trivial subgroup this is the regular
    representation, and the group order equals the coset count.
    """
    if not table.is_closed():
        raise StateError("table is not closed")
    n = table.coset_count
    gens = [table.permutation(g) for g in range(table.ngens)]
    regular = not table.subgroup_words
    from .perm import DEFAULT_MAX_ORDER
    kwargs = {"name": name, "regular": regular}
    if regular:
        kwargs["order_hint"] = n
    kwargs["max_order"] = max_order if max_order is not None \
        else max(DEFAULT_MAX_ORDER, n)
    return FiniteGroup(gens, **kwargs)


@dataclass(frozen=True)
class TablePresentation:
    """Multiplication-table presentation: one generator per group
    element (generator i is element i of the deterministic order), with
    g_i g_j = g_{ij} relators for every pair and the identity generator
    killed."""
    presentation: Presentation
    group: object

    @property
    def order(self):
        return self.presentation.ngens


def multiplication_table_presentation(group):
    n = group.order()
    names = tuple(f"x{i}" for i in range(n))
    relators = [Word([(0, 1)])]
    for i in range(n):
        for j in range(n):
            k = group.mul_idx(i, j)
            relators.append(Word([(i, 1), (j, 1), (k, -1)]))
    pres = Presentation(names, tuple(relators))
    return TablePresentation(pres, group)
