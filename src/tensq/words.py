"""Presentations and the ``.pres`` file format, parsed to letter rows.

A word is a row of integer letters, the format ``tensq.coset``
enumerates from: 2g is generator g and 2g + 1 its inverse (``x ^ 1``
inverts a letter).  A power is the row repeated, or its inverse
repeated.  Each relator is reduced freely and cyclically, once, by the
enumerator's own reduction; a relator that reduces to nothing is
dropped.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .coset import LetterPresentation, _reduced, inverse_row


@dataclass(frozen=True)
class Presentation:
    """Generator names plus relators, rows of letters."""
    generator_names: tuple
    relators: tuple

    def __post_init__(self):
        names = self.generator_names
        if len(set(names)) != len(names):
            raise ValueError("generator names must be distinct")

    @property
    def ngens(self):
        return len(self.generator_names)

    def letters(self):
        """The ``LetterPresentation`` that ``tc_enumerate`` reads."""
        return LetterPresentation(self.ngens, self.relators)


# a ^ with no integer after it is a token too, so the parser rejects it
_TOKEN_RE = re.compile(r"\(|\)|\^-?\d*|,|[^\s()^,]+")


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
        row = ()
        while True:
            tok = self.peek()
            if tok is None or tok in stop:
                return row
            row += self.parse_factor()

    def parse_factor(self):
        tok = self.take()
        if tok == "(":
            base = self.parse_word(stop=(")",))
            if self.take() != ")":
                raise ValueError("unbalanced parenthesis in word")
        elif tok in (")", ","):
            raise ValueError(f"unexpected {tok!r} in word")
        elif tok.startswith("^"):
            raise ValueError("dangling exponent")
        else:
            if tok not in self.names:
                raise ValueError(f"unknown generator {tok!r}")
            base = (2 * self.names[tok],)
        nxt = self.peek()
        if nxt is not None and nxt.startswith("^"):
            self.take()
            if not nxt.lstrip("^-").isdigit():
                raise ValueError(f"exponent {nxt!r} is not an integer")
            n = int(nxt[1:])
            return (base if n >= 0 else inverse_row(base)) * abs(n)
        return base


def parse_word(text, generator_names):
    """Parse one word, whitespace-separated letters with ^ powers and
    parentheses, to its row of letters (unreduced)."""
    name_index = {n: i for i, n in enumerate(generator_names)}
    parser = _WordParser(_TOKEN_RE.findall(text), name_index)
    row = parser.parse_word(stop=())
    if parser.peek() is not None:
        raise ValueError(f"trailing input in word: {text!r}")
    return row


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
            row = _reduced(parser.parse_word(), 2 * len(names))
            if row:
                relators.append(row)
            tok = parser.take()
            if tok is None:
                break
            if tok != ",":
                raise ValueError(f"expected ',' between relators, got {tok!r}")
    return Presentation(names, tuple(relators))
