"""Free-group words over a named generator alphabet, and presentations.

A word is a tuple of (generator-index, exponent) letters with exponent
+1 or -1.  Free reduction cancels adjacent inverse pairs; relators are
kept cyclically reduced.  ``letters`` turns a word into the row of
integer letters that ``tensq.coset`` enumerates from.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .coset import LetterPresentation


class Word:
    """Freely reducible word; immutable."""

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        self.letters = tuple((int(g), int(e)) for g, e in letters)
        for g, e in self.letters:
            if e not in (1, -1):
                raise ValueError("letter exponents must be +1 or -1")
            if g < 0:
                raise ValueError("generator indices must be non-negative")

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __eq__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        return self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __mul__(self, other):
        return Word(self.letters + other.letters)

    def inverse(self):
        return Word(tuple((g, -e) for g, e in reversed(self.letters)))

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        return Word(self.letters * n)

    def free_reduce(self):
        """Cancel adjacent x x^-1 pairs until none remain; a word that
        is already reduced is returned as it is."""
        out = []
        for letter in self.letters:
            if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
                out.pop()
            else:
                out.append(letter)
        return self if len(out) == len(self.letters) else Word(out)

    def cyclic_reduce(self):
        """Freely reduce, then strip matching first/last inverse pairs."""
        word = self.free_reduce()
        letters = word.letters
        while (len(letters) >= 2 and letters[0][0] == letters[-1][0]
               and letters[0][1] == -letters[-1][1]):
            # interior may now expose new cancellations
            letters = Word(letters[1:-1]).free_reduce().letters
        return word if letters is word.letters else Word(letters)

    def evaluate(self, images, identity=None):
        """Multiply out the word over concrete images (left to right).

        ``images[g]`` must support ``*`` and ``.inverse()``;
        ``identity`` is required for the empty word.
        """
        acc = None
        for g, e in self.letters:
            v = images[g] if e == 1 else images[g].inverse()
            acc = v if acc is None else acc * v
        if acc is None:
            if identity is None:
                raise ValueError("empty word needs an explicit identity")
            return identity
        return acc

    def max_generator(self):
        return max((g for g, _ in self.letters), default=-1)

    def format(self, names):
        if not self.letters:
            return "1"
        parts = []
        i = 0
        while i < len(self.letters):
            g, e = self.letters[i]
            j = i
            while j + 1 < len(self.letters) and self.letters[j + 1] == (g, e):
                j += 1
            count = (j - i + 1) * e
            parts.append(names[g] if count == 1 else f"{names[g]}^{count}")
            i = j + 1
        return " ".join(parts)

    def __repr__(self):
        return f"Word({self.letters!r})"


def free_reduce(word):
    return word.free_reduce()


def letters(word):
    """``word`` as a row of letters: 2g for generator g, 2g + 1 for its
    inverse."""
    return tuple(2 * g + (e < 0) for g, e in word)


@dataclass(frozen=True)
class Presentation:
    """Generator names plus relator words (stored cyclically reduced)."""
    generator_names: tuple
    relators: tuple

    def __post_init__(self):
        names = self.generator_names
        if len(set(names)) != len(names):
            raise ValueError("generator names must be distinct")
        ngens = len(names)
        reduced = tuple(r.cyclic_reduce() for r in self.relators)
        for r in reduced:
            if r.max_generator() >= ngens:
                raise ValueError("relator uses an undeclared generator")
        object.__setattr__(self, "relators", reduced)

    @property
    def ngens(self):
        return len(self.generator_names)

    def letters(self):
        """The ``LetterPresentation`` that ``tc_enumerate`` reads."""
        return LetterPresentation(self.ngens,
                                  tuple(map(letters, self.relators)))

    def format(self):
        gens = "gens: " + " ".join(self.generator_names)
        rels = "rels: " + ", ".join(r.format(self.generator_names)
                                    for r in self.relators)
        return gens + "\n" + rels + "\n"


_TOKEN_RE = re.compile(r"\(|\)|\^-?\d+|,|[^\s()^,]+")


class _WordParser:
    def __init__(self, tokens, name_index):
        self.tokens = tokens
        self.pos = 0
        self.names = name_index

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse_word(self, stop=(")", ",")):
        word = Word()
        while True:
            tok = self.peek()
            if tok is None or tok in stop:
                return word
            word = word * self.parse_factor()

    def parse_factor(self):
        tok = self.take()
        if tok == "(":
            inner = self.parse_word(stop=(")",))
            if self.take() != ")":
                raise ValueError("unbalanced parenthesis in word")
            base = inner
        elif tok in (")", ","):
            raise ValueError(f"unexpected {tok!r} in word")
        elif tok.startswith("^"):
            raise ValueError("dangling exponent")
        else:
            if tok not in self.names:
                raise ValueError(f"unknown generator {tok!r}")
            base = Word([(self.names[tok], 1)])
        nxt = self.peek()
        if nxt is not None and nxt.startswith("^"):
            self.take()
            return base ** int(nxt[1:])
        return base


def parse_word(text, generator_names):
    """Parse one word: whitespace-separated letters, ^ powers, parens."""
    name_index = {n: i for i, n in enumerate(generator_names)}
    parser = _WordParser(_TOKEN_RE.findall(text), name_index)
    word = parser.parse_word(stop=())
    if parser.peek() is not None:
        raise ValueError(f"trailing input in word: {text!r}")
    return word


def parse_presentation(text):
    """Parse the presentation file format.

    ``gens: a b c`` declares generators; ``rels: a^2, b^2, (a b)^3``
    lists relators (may repeat over several lines); ``#`` comments.
    """
    names = None
    relator_chunks = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("gens:"):
            if names is not None:
                raise ValueError("duplicate gens: line")
            names = tuple(line[len("gens:"):].split())
            if not names:
                raise ValueError("empty generator list")
        elif line.startswith("rels:"):
            relator_chunks.append(line[len("rels:"):])
        else:
            raise ValueError(f"unrecognized line: {raw!r}")
    if names is None:
        raise ValueError("missing gens: line")
    name_index = {n: i for i, n in enumerate(names)}
    relators = []
    for chunk in relator_chunks:
        parser = _WordParser(_TOKEN_RE.findall(chunk), name_index)
        while True:
            word = parser.parse_word()
            if len(word.free_reduce()):
                relators.append(word)
            tok = parser.take()
            if tok is None:
                break
            if tok != ",":
                raise ValueError(f"expected ',' between relators, got {tok!r}")
    return Presentation(tuple(names), tuple(relators))
