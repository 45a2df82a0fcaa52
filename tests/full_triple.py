"""Oracles for the Todd-Coxeter routes to nu(G), built from words of
(generator, +-1) letters with their own few helpers: nu(G) presented
over G's multiplication table, with the compatibility relators imposed
over the triples the all route's proof needs (``word_nu_presentation``)
or over all |G|^3 element triples (``full_triple_nu_presentation``),
and over the generator triples of a presentation of G
(``word_gens_nu_presentation``).  Each is returned as the
``LetterPresentation`` the enumerator reads, its words turned into
unreduced rows only at the end.

``nu_presentation`` builds its letter rows by index arithmetic; once
reduced they must be these oracles' relators, in order, and the all
route's enumeration must close at the coset count of the full triples.
"""

from tensq.coset import LetterPresentation
from tensq.symbol import group_arrays


def inverse(word):
    return tuple((g, -e) for g, e in reversed(word))


def commutator_word(a, b):
    """[a, b] = a^-1 b^-1 a b as a word."""
    return inverse(a) + inverse(b) + a + b


def conjugate_word(a, by):
    return inverse(by) + a + by


def _gen(i):
    return ((i, 1),)


def _primed(word, n):
    return tuple((g + n, e) for g, e in word)


def _row(word):
    """``word`` as a row of letters: 2g for generator g, 2g + 1 for its
    inverse."""
    return tuple(2 * g + (e < 0) for g, e in word)


def _doubled(ngens, relators, triples):
    """``relators`` over ``ngens`` generators and their primed copies,
    then [g1, g2']^g3 = [g1^g3, (g2^g3)'] = [g1, g2']^(g3') for each
    (g1, g2, g3, g1^g3, g2^g3) of ``triples``, the conjugates as
    words."""
    n = ngens
    out = list(relators) + [_primed(r, n) for r in relators]
    for g1, g2, g3, a, b in triples:
        c = commutator_word(_gen(g1), _gen(g2 + n))
        rhs_inv = inverse(commutator_word(a, _primed(b, n)))
        out.append(conjugate_word(c, _gen(g3)) + rhs_inv)
        out.append(conjugate_word(c, _gen(g3 + n)) + rhs_inv)
    return LetterPresentation(2 * n, tuple(map(_row, out)))


def _table_doubled(group, pairs, conjugators):
    """The multiplication-table presentation of G, doubled over g1 and
    g2 in ``pairs`` and g3 in ``conjugators``, with conjugates read off
    G's conjugation array."""
    n = group.order()
    table = [((0, 1),)]
    for i in range(n):
        for j in range(n):
            table.append(((i, 1), (j, 1), (group.mul_idx(i, j), -1)))
    conj = group_arrays(group)[2].tolist()
    triples = ((g1, g2, g3, _gen(conj[g1][g3]), _gen(conj[g2][g3]))
               for g1 in pairs for g2 in pairs for g3 in conjugators)
    return _doubled(n, table, triples)


def word_nu_presentation(group):
    """The all route's presentation of nu(G): g1 and g2 over the
    non-identity elements, g3 over G's generators less the identity and
    repeats, 2(n^2 + 1) + 2(n - 1)^2 |S| relators for |G| = n."""
    conjugators = dict.fromkeys(s for s in group.generator_indices() if s)
    return _table_doubled(group, range(1, group.order()), conjugators)


def full_triple_nu_presentation(group):
    """The 2(n^2 + 1) + 2n^3 relators of nu(G) over every element
    triple, for |G| = n."""
    n = group.order()
    return _table_doubled(group, range(n), range(n))


def word_gens_nu_presentation(pres):
    """The gens route's presentation of nu(G) from the presentation
    ``pres`` of G, its relators rows of letters: every generator
    triple, conjugation written literally."""
    gens = range(pres.ngens)
    relators = [tuple((x >> 1, 1 - 2 * (x & 1)) for x in r)
                for r in pres.relators]
    triples = ((g1, g2, g3, conjugate_word(_gen(g1), _gen(g3)),
                conjugate_word(_gen(g2), _gen(g3)))
               for g1 in gens for g2 in gens for g3 in gens)
    return _doubled(pres.ngens, relators, triples)
