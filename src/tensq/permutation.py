"""Permutations of 0-based points.

Composition is left-to-right: ``(f * g)(x) == g(f(x))`` -- apply ``f``
first, then ``g``.  This one convention is used everywhere, including
cycle-notation parsing, conjugation ``a ^ b = b^-1 a b`` and
commutators ``[a, b] = a^-1 b^-1 a b``.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .errors import AmbientMismatchError


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
