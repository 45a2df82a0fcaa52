"""An oracle for the all route: nu(G) presented with the compatibility
relators imposed over all |G|^3 element triples.

``nu_presentation(tp, "all")`` keeps only the triples its proof needs;
this presentation must close at the same coset count.
"""

from tensq.symbol import group_arrays
from tensq.words import Presentation, Word, commutator_word, conjugate_word


def full_triple_nu_presentation(tp):
    """Double the multiplication-table presentation ``tp`` of G into the
    2(n^2 + 1) + 2n^3 relators of nu(G), for |G| = n: for every triple,
    [g1, g2']^g3 = [g1^g3, (g2^g3)'] = [g1, g2']^(g3'), with conjugates
    read off G's conjugation array."""
    pres = tp.presentation
    n = pres.ngens
    names = tuple(pres.generator_names) + tuple(
        s + "'" for s in pres.generator_names)
    shift = tuple(Word([(g + n, e) for g, e in r]) for r in pres.relators)
    relators = list(pres.relators) + list(shift)
    conj = group_arrays(tp.group)[2].tolist()

    def gen(i):
        return Word([(i, 1)])

    for g1 in range(n):
        for g2 in range(n):
            c = commutator_word(gen(g1), gen(g2 + n))
            for g3 in range(n):
                rhs_inv = commutator_word(
                    gen(conj[g1][g3]), gen(conj[g2][g3] + n)).inverse()
                relators.append(conjugate_word(c, gen(g3)) * rhs_inv)
                relators.append(conjugate_word(c, gen(g3 + n)) * rhs_inv)
    return Presentation(names, tuple(relators))
