"""The ``.pres`` parser and the letter-row reduction it applies.

A word is a row of letters: 2g is generator g, 2g + 1 its inverse.
Every row is reduced the one way relators are, freely and cyclically.
"""

import functools
import itertools
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensq import (LetterPresentation, Permutation, catalog, get_presentation,
                   parse_presentation, parse_word)
from tensq.coset import _reduced, inverse_row

rows = st.lists(st.integers(0, 5), max_size=12).map(tuple)


def reduced(row):
    return _reduced(row, 6)


class TestFreeReduce:
    def test_empty(self):
        assert reduced(()) == ()

    def test_inverse_pair(self):
        assert reduced((0, 1)) == ()

    def test_cascading(self):
        # x y y^-1 x -> x x
        assert reduced((0, 2, 3, 0)) == (0, 0)

    @given(rows)
    @settings(max_examples=100)
    def test_idempotent(self, row):
        assert reduced(reduced(row)) == reduced(row)

    @given(rows)
    @settings(max_examples=100)
    def test_word_times_inverse_reduces_to_empty(self, row):
        assert reduced(row + inverse_row(row)) == ()

    @given(rows)
    @settings(max_examples=100)
    def test_reduction_conjugates_the_value(self, row):
        # evaluate over S3 generators and their inverses; the reduced
        # row's value is the row's value conjugated by the letters cut
        # from its ends
        gens = [Permutation([1, 0, 2]), Permutation([0, 2, 1]),
                Permutation([1, 2, 0])]
        images = [x for g in gens for x in (g, g.inverse())]
        s3 = [Permutation(p) for p in itertools.permutations(range(3))]

        def evaluate(r):
            return functools.reduce(operator.mul, (images[x] for x in r),
                                    Permutation.identity(3))
        value = evaluate(reduced(row))
        assert any(evaluate(row).conjugate_by(x) == value for x in s3)


class TestCyclicReduce:
    def test_conjugate_collapses(self):
        # a b a^-1 cyclically reduces to b
        assert reduced((0, 2, 1)) == (2,)

    def test_nested(self):
        assert reduced((0, 2, 2, 1)) == (2, 2)


class TestWordParsing:
    NAMES = ("a", "b")

    def test_plain_letters(self):
        assert parse_word("a b", self.NAMES) == (0, 2)

    def test_powers(self):
        assert parse_word("a^3", self.NAMES) == (0, 0, 0)
        assert parse_word("a^-2", self.NAMES) == (1, 1)

    def test_parenthesized_subwords(self):
        assert parse_word("(a b)^3", self.NAMES) == (0, 2) * 3

    def test_nested_parens(self):
        w = parse_word("((a b^-1)^2 a)^-1", self.NAMES)
        assert w == inverse_row((0, 3, 0, 3, 0))

    def test_unknown_generator(self):
        with pytest.raises(ValueError):
            parse_word("c", self.NAMES)

    def test_unbalanced(self):
        with pytest.raises(ValueError):
            parse_word("(a b", self.NAMES)


class TestPresentationParsing:
    TEXT = """# symmetric group of degree 3
gens: a b
rels: a^2, b^2, (a b)^3
"""

    def test_parse(self):
        pres = parse_presentation(self.TEXT)
        assert pres.generator_names == ("a", "b")
        assert pres.relators == ((0, 0), (2, 2), (0, 2) * 3)

    def test_relators_cyclically_reduced(self):
        pres = parse_presentation("gens: a b\nrels: a b a^-1\n")
        assert pres.relators == ((2,),)

    def test_multiple_rels_lines(self):
        pres = parse_presentation(
            "gens: a b\nrels: a^2\nrels: b^2, (a b)^3\n")
        assert len(pres.relators) == 3

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            parse_presentation("gens: a a\nrels: a^2\n")

    def test_undeclared_generator_rejected(self):
        with pytest.raises(ValueError):
            parse_presentation("gens: a\nrels: b^2\n")

    def test_missing_gens_line(self):
        with pytest.raises(ValueError):
            parse_presentation("rels: a^2\n")


# Letter rows of the catalog presentations and of parser edge cases, as
# parse_presentation produced them when a presentation still held
# (generator, +-1) words; the parser must keep every row.
CATALOG_ROWS = {
    "C1": ((0,),),
    "C2": ((0, 0),),
    "C3": ((0, 0, 0),),
    "C4": ((0, 0, 0, 0),),
    "C2xC2": ((0, 0), (2, 2), (1, 3, 0, 2)),
    "C5": ((0,) * 5,),
    "C6": ((0,) * 6,),
    "S3": ((0, 0), (2, 2), (0, 2, 0, 2, 0, 2)),
    "C8": ((0,) * 8,),
    "C2xC4": ((0, 0), (2, 2, 2, 2), (1, 3, 0, 2)),
    "D4": ((0, 0, 0, 0), (2, 2), (0, 2, 0, 2)),
    "Q8": ((0, 0, 0, 0), (2, 2, 1, 1), (3, 0, 2, 0)),
    "C9": ((0,) * 9,),
    "C3xC3": ((0, 0, 0), (2, 2, 2), (1, 3, 0, 2)),
    "D5": ((0, 0, 0, 0, 0), (2, 2), (0, 2, 0, 2)),
    "A4": ((0, 0, 0), (2, 2), (0, 2, 0, 2, 0, 2)),
    "S4": ((0, 0, 0, 0), (2, 2), (0, 2, 0, 2, 0, 2)),
    "Heis3": ((0, 0, 0), (2, 2, 2), (3, 1, 2, 1, 3, 0, 2, 0),
              (1, 2, 0, 3, 1, 3, 0, 2)),
    "M27": ((0,) * 9, (2, 2, 2), (3, 0, 2, 1, 1, 1, 1)),
    "C27": ((0,) * 27,),
}


@pytest.mark.parametrize("name", sorted(CATALOG_ROWS))
def test_catalog_rows_are_recorded(name):
    assert get_presentation(name).letters().relators == CATALOG_ROWS[name]


def test_every_catalog_presentation_is_recorded():
    assert {n for n, e in catalog().items() if e.presentation_text} == \
        set(CATALOG_ROWS)


@pytest.mark.parametrize("text, rows", [
    # nested parentheses: the inverse of a b^-1 a b^-1 a, then b
    ("gens: a b\nrels: ((a b^-1)^2 a)^-1 b\n", ((1, 2, 1, 2, 1, 2),)),
    # negative powers, and ^0 as the empty word; b^0 alone is dropped
    ("gens: a b\nrels: a^-3, b^0 a^2, (a b)^-2, b^0\n",
     ((1, 1, 1), (0, 0), (3, 1, 3, 1))),
    # a b b^-1 a^-1 reduces to nothing and is dropped; rels: over two
    # lines; b a b^-1 cyclically reduces to a
    ("gens: a b\nrels: a b b^-1 a^-1, a^2\nrels: b a b^-1, (a b)^3\n",
     ((0, 0), (0,), (0, 2, 0, 2, 0, 2))),
])
def test_edge_case_rows_are_recorded(text, rows):
    pres = parse_presentation(text)
    assert pres.letters() == LetterPresentation(2, rows)


@pytest.mark.parametrize("text, message", [
    ("gens: a\nrels: c\n", "unknown generator 'c'"),
    ("gens: a\nrels: ^2\n", "dangling exponent"),
    ("gens: a\nrels: a ^2 ^3\n", "dangling exponent"),
])
def test_parse_error_messages_are_recorded(text, message):
    with pytest.raises(ValueError) as info:
        parse_presentation(text)
    assert str(info.value) == message


@pytest.mark.parametrize("text", ["a^b", "a^", "(a b)^-", "b a^ b"])
def test_caret_without_an_integer_is_rejected(text):
    # a^b is not read as a b, nor a^ as a
    with pytest.raises(ValueError, match=r"^exponent '\^-?' is not an "
                                         r"integer$"):
        parse_presentation(f"gens: a b\nrels: {text}\n")
