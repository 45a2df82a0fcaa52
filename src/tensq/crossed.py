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
breadth-first levels and certified on every (point, symbol) edge,
``closure.sweep_rows(n^2)`` points at a time:

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

The command line keeps the certified symbol columns and kept symbols in
its result cache, one entry per multiplication table of G
(``encode_symbols``), so that ``tensq tensor``, ``tensq verify`` and
``tensq engel`` enumerate G (x) G once between them.  An entry read back
(``decode_symbols``) stands in for the enumeration only once all 2n^3
relators hold on its columns again, which makes T a quotient of
G (x) G; that it is no proper one, which the replay showed when the
entry was written, is trusted, as a cached report is.  An entry that
does not decode or fails a relator is recomputed, with a warning.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np

# deferred: only a lookup of a symbols entry runs it
from . import cache
from .closure import Subgroup, sweep_rows
from .coset import points_group
from .errors import invariant
from .perm import FiniteGroup
from .symbol import symbol_relators, tensor_symbols
from .tietzecert import check_relators

# a symbols entry is little-endian int32 words throughout
_WORD = np.dtype("<i4")


@dataclass
class CrossedModule:
    """G (x) G with G's action and the commutator map; immutable after
    construction.  ``tensor_report`` reads it as it reads a ``NuGroup``."""
    group: FiniteGroup
    tgroup: FiniteGroup       # T = G (x) G, regular; generated by symbols
    symbols: np.ndarray       # (|T|, n^2): right multiplication by a (x) b
    kept: np.ndarray          # the symbols whose columns generate T
    tensors: np.ndarray       # (a, b) -> T index of a (x) b
    lam: np.ndarray           # T index -> G index of lambda(t)
    phi: np.ndarray           # (k, |T|): phi of G's generator j, row j
    tensor: Subgroup          # all of T, generated as in nu(G)
    mu: Subgroup              # ker lambda
    loaded: bool              # symbols and kept read back, not enumerated
    mode: str = "symbol"

    def order(self):
        """|nu(G)| = |G|^2 |G (x) G|."""
        return self.group.order() ** 2 * self.tgroup.order()


def crossed_module(group, arrays, limits, loaded=None):
    """The certified crossed module of G (x) G (see the module
    docstring), from G's multiplication, inverse and conjugation
    ``arrays`` (``tensq.symbol.symbol_route_arrays``).  The symbol
    columns and kept symbols ``loaded`` by ``decode_symbols``, if any,
    stand in for ``tensor_symbols`` once every relator holds on them."""
    mul, inv, conj = arrays
    n = len(mul)
    if loaded is not None and not check_relators(
            symbol_relators(arrays), loaded[0],
            time.monotonic() + limits.time_limit):
        warnings.warn("recomputing a cached G (x) G that fails a relator "
                      "of the symbol presentation")
        loaded = None
    symbols, kept = loaded or tensor_symbols(arrays, limits)
    name = group.name or "G"
    tgroup = points_group(symbols[:, kept].T, len(symbols),
                          name=f"{name} (x) {name}")

    # comm[a n + b] = [a, b] = a^-1 b^-1 a b
    comm = mul[mul[inv[:, None], inv[None, :]], mul].ravel()
    lam = tgroup.sweep(0, lambda v, g: mul[v, comm[kept[g]]])
    step = sweep_rows(n * n)
    blocks = [slice(lo, lo + step) for lo in range(0, len(symbols), step)]
    invariant(all(np.array_equal(lam[symbols[b]], mul[lam[b, None], comm])
                  for b in blocks),
              "lambda is not a homomorphism: lambda(t (a (x) b)) != "
              "lambda(t) [a, b] on some edge of T")

    gens = list(group.generator_indices())
    phi = np.empty((len(gens), len(symbols)), dtype=np.int32)
    for j, s in enumerate(gens):
        # sigma[a n + b] = a^s n + b^s
        sigma = (conj[:, s][:, None] * n + conj[:, s][None, :]).ravel()
        phi[j] = tgroup.sweep(0, lambda v, g: symbols[v, sigma[kept[g]]])
        invariant(all(np.array_equal(phi[j][symbols[b]],
                                     symbols[phi[j][b, None], sigma])
                      for b in blocks),
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

    for array in (symbols, kept, tensors, lam, phi):
        array.setflags(write=False)
    return CrossedModule(group=group, tgroup=tgroup, symbols=symbols,
                         kept=kept, tensors=tensors, lam=lam, phi=phi,
                         tensor=tensor, mu=mu, loaded=loaded is not None)


def entry_payload(arrays):
    """What a symbols entry is keyed on (``tensq.cache.cache_key``): the
    SHA-256 of the multiplication table in G's ``arrays``, as
    little-endian int32, so that each numbering of G's elements has an
    entry of its own."""
    return {"symbols": cache.digest(arrays[0].astype(_WORD).tobytes())}


def encode_symbols(module):
    """The body of ``module``'s symbols entry: |T|, the number of kept
    symbols, the kept symbols and then T's symbol columns one after
    another, as little-endian int32 words."""
    head = np.array([len(module.symbols), len(module.kept), *module.kept],
                    dtype=_WORD)
    columns = np.ascontiguousarray(module.symbols.T, dtype=_WORD)
    return b"".join([head.tobytes(), memoryview(columns)])


def decode_symbols(body, arrays):
    """The symbol columns, column-major as ``tensq.tietzecert``'s
    ``symbol_columns`` returns them, and the kept symbols of an entry
    ``body`` of ``encode_symbols`` for the G of ``arrays``, as read-only
    views of it; None, with a warning unless ``body`` is None, when it is
    not such an entry."""
    if body is None:
        return None
    nsym = len(arrays[0]) ** 2
    words = np.frombuffer(body, dtype=_WORD, count=len(body) // 4)
    points, k = words[:2].tolist() if len(words) > 2 else (0, 0)
    kept, by_symbol = words[2:2 + k], words[2 + k:]
    if 4 * len(words) == len(body) and points > 0 and 0 <= k <= nsym \
            and by_symbol.size == points * nsym and (words[2:] >= 0).all() \
            and (kept < nsym).all() and (by_symbol < points).all():
        return by_symbol.reshape(nsym, points).T, kept
    warnings.warn("recomputing a cached G (x) G of the wrong length or "
                  "shape")
    return None


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
