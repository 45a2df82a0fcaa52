"""The crossed module (T, phi, lambda) of G (x) G, with no nu(G) built.

By Rocco (Bol. Soc. Brasil. Mat. 22, 1991), nu(G) = T . G^phi . G with
T = [G, G'] = G (x) G normal in it.  Conjugation by g and by g' acts on
T in the same way, as phi_g(a (x) b) = a^g (x) b^g, since the defining
relations read [a, b']^g = [a^g, (b^g)'] = [a, b']^(g'); and the
derived map rho of nu(G) restricts to lambda(a (x) b) = [a, b] on T,
whose kernel is mu.  So what ``tensq tensor``, ``tensq engel`` and the
relation families (i)-(v) of ``tensq verify`` ask of nu(G) is answered
on T's |G (x) G| points, against the n^2 |T| of nu(G).

T is the regular group of the reduced symbol enumeration
(``tensq.symbol.tensor_symbols``), certified there by the replay and
the 2n^3 relators, and it carries the n^2 symbol columns.  lambda and
each phi_s, for s in G's generating set, are swept along T's
breadth-first levels and certified on every (point, symbol) edge:

    lambda(p (a (x) b)) = lambda(p) [a, b],
    phi_s(p (a (x) b)) = phi_s(p) (a^s (x) b^s).

The symbols generate T, so lambda is then the homomorphism T -> G with
lambda(a (x) b) = [a, b], and phi_s the endomorphism of T that permutes
the symbols as s does, hence an automorphism.  The tensor subgroup is
generated as in nu(G): the normal closure of the generators' tensors
s (x) t, here under T's inner automorphisms and the phi_s, and the order
law says it is all of T.

``tensq nu``, the checks of ``tensq verify`` about nu(G) itself
(``closed``, ``decomp`` and ``rho``) and ``tensq tensor`` of a
one-generator presentation up to C5 assemble nu(G)
(``tensq.nu.build_nu``), under its cap on |G|.  ``verify`` assembles
it on the symbol route, on every group, from the symbol columns of the
module it already built, with no second enumeration.  The crossed
module takes no cap, as ``tensq.symbol`` bounds T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closure import Subgroup
from .coset import points_group
from .errors import invariant
from .perm import FiniteGroup
from .symbol import tensor_symbols


@dataclass
class CrossedModule:
    """G (x) G with G's action and the commutator map; immutable after
    construction.  ``tensor_report`` reads it as it reads a ``NuGroup``."""
    group: FiniteGroup
    tgroup: FiniteGroup       # T = G (x) G, regular; generated by symbols
    symbols: np.ndarray       # (|T|, n^2): right multiplication by a (x) b
    tensors: np.ndarray       # (a, b) -> T index of a (x) b
    lam: np.ndarray           # T index -> G index of lambda(t)
    phi: np.ndarray           # (k, |T|): phi of G's generator j, row j
    tensor: Subgroup          # all of T, generated as in nu(G)
    mu: Subgroup              # ker lambda
    mode: str = "symbol"

    def order(self):
        """|nu(G)| = |G|^2 |G (x) G|."""
        return self.group.order() ** 2 * self.tgroup.order()


def crossed_module(group, arrays, limits):
    """The certified crossed module of G (x) G (see the module
    docstring), from G's multiplication, inverse and conjugation
    ``arrays`` (``tensq.symbol.symbol_route_arrays``)."""
    mul, inv, conj = arrays
    n = len(mul)
    symbols, kept = tensor_symbols(arrays, limits)
    name = group.name or "G"
    tgroup = points_group(symbols[:, kept].T, len(symbols),
                          name=f"{name} (x) {name}")

    # comm[a n + b] = [a, b] = a^-1 b^-1 a b
    comm = mul[mul[inv[:, None], inv[None, :]], mul].ravel()
    lam = tgroup.sweep(0, lambda v, g: mul[v, comm[kept[g]]])
    invariant(np.array_equal(lam[symbols], mul[lam[:, None], comm]),
              "lambda is not a homomorphism: lambda(t (a (x) b)) != "
              "lambda(t) [a, b] on some edge of T")

    gens = list(group.generator_indices())
    phi = np.empty((len(gens), len(symbols)), dtype=np.int32)
    for j, s in enumerate(gens):
        # sigma[a n + b] = a^s n + b^s
        sigma = (conj[:, s][:, None] * n + conj[:, s][None, :]).ravel()
        phi[j] = tgroup.sweep(0, lambda v, g: symbols[v, sigma[kept[g]]])
        invariant(np.array_equal(phi[j][symbols],
                                 symbols[phi[j][:, None], sigma]),
                  f"phi of generator {j} is not an endomorphism: "
                  "phi(t (a (x) b)) != phi(t) (a^s (x) b^s) on some edge "
                  "of T")

    tensors = symbols[0].reshape(n, n)
    tensor = _tensor_closure(tgroup, phi, tensors[np.ix_(gens, gens)])
    invariant(tensor.order() == len(symbols),
              f"order law fails: {n * n * len(symbols)} != "
              f"{tensor.order()} * {n}^2")
    members = np.asarray(tensor.indices())
    mu = Subgroup._from_indices(tgroup,
                                members[lam[members] == 0].tolist())

    for array in (symbols, tensors, lam, phi):
        array.setflags(write=False)
    return CrossedModule(group=group, tgroup=tgroup, symbols=symbols,
                         tensors=tensors, lam=lam, phi=phi, tensor=tensor,
                         mu=mu)


def _tensor_closure(tgroup, phi, generator_tensors):
    """The normal closure of the ``generator_tensors`` in T under its
    inner automorphisms and the ``phi`` rows: the normal closure in T of
    their orbit under the phi rows, which the phi rows permute, so that
    they map the closure onto itself."""
    seeds = dict.fromkeys(generator_tensors.ravel().tolist())
    fresh = list(seeds)
    while fresh:
        fresh = [t for t in dict.fromkeys(phi[:, fresh].T.ravel().tolist())
                 if t not in seeds]
        seeds.update(dict.fromkeys(fresh))
    return tgroup.normal_closure(list(seeds))
