"""Oracles for the Todd-Coxeter routes to nu(G), built from
``tensq.words`` words: nu(G) presented over G's multiplication table,
with the compatibility relators imposed over the triples the all
route's proof needs (``word_nu_presentation``) or over all |G|^3
element triples (``full_triple_nu_presentation``), and over the
generator triples of a presentation of G (``word_gens_nu_presentation``).

``nu_presentation`` builds its letter rows by index arithmetic; once
reduced they must be these oracles' relators, in order, and the all
route's enumeration must close at the coset count of the full triples.
"""

from tensq.symbol import group_arrays
from tensq.words import Presentation, Word


def commutator_word(a, b):
    """[a, b] = a^-1 b^-1 a b as a word."""
    return a.inverse() * b.inverse() * a * b


def conjugate_word(a, by):
    return by.inverse() * a * by


def _gen(i):
    return Word([(i, 1)])


def _primed(word, n):
    return Word([(g + n, e) for g, e in word])


def _doubled(names, relators, triples):
    """``relators`` over the generators ``names`` and their primed
    copies, then [g1, g2']^g3 = [g1^g3, (g2^g3)'] = [g1, g2']^(g3') for
    each (g1, g2, g3, g1^g3, g2^g3) of ``triples``, the conjugates as
    words."""
    n = len(names)
    out = list(relators) + [_primed(r, n) for r in relators]
    for g1, g2, g3, a, b in triples:
        c = commutator_word(_gen(g1), _gen(g2 + n))
        rhs_inv = commutator_word(a, _primed(b, n)).inverse()
        out.append(conjugate_word(c, _gen(g3)) * rhs_inv)
        out.append(conjugate_word(c, _gen(g3 + n)) * rhs_inv)
    return Presentation(names + tuple(s + "'" for s in names), tuple(out))


def _table_doubled(group, pairs, conjugators):
    """The multiplication-table presentation of G, doubled over g1 and
    g2 in ``pairs`` and g3 in ``conjugators``, with conjugates read off
    G's conjugation array."""
    n = group.order()
    table = [Word([(0, 1)])]
    for i in range(n):
        for j in range(n):
            table.append(Word([(i, 1), (j, 1), (group.mul_idx(i, j), -1)]))
    conj = group_arrays(group)[2].tolist()
    triples = ((g1, g2, g3, _gen(conj[g1][g3]), _gen(conj[g2][g3]))
               for g1 in pairs for g2 in pairs for g3 in conjugators)
    return _doubled(tuple(f"x{i}" for i in range(n)), table, triples)


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
    ``pres`` of G: every generator triple, conjugation written
    literally."""
    gens = range(pres.ngens)
    triples = ((g1, g2, g3, conjugate_word(_gen(g1), _gen(g3)),
                conjugate_word(_gen(g2), _gen(g3)))
               for g1 in gens for g2 in gens for g3 in gens)
    return _doubled(pres.generator_names, pres.relators, triples)
