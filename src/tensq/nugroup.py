"""nu(G) as every route of ``tensq.nu`` builds it: ``NuGroup``, and
``certified_nu``, the tail every route ends in, which proves that the
route's ambient group is nu(G) (the argument is in ``tensq.nu``'s
docstring) and identifies its copies of G, its tensors, the tensor
subgroup and mu.  It is its own module so that ``nu``, which is
deferred, compiles in a small transient (``tensq.cli``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closure import Subgroup
from .errors import invariant
from .perm import FiniteGroup


@dataclass
class NuGroup:
    """nu(G), enumerated; immutable after construction."""
    group: FiniteGroup
    ambient: FiniteGroup
    mode: str
    left: np.ndarray          # G element index -> ambient index of g
    right: np.ndarray         # G element index -> ambient index of g'
    tensors: np.ndarray       # (a, b) -> ambient index of [a, b']
    tensor: Subgroup          # [G, G'] inside the ambient
    mu: Subgroup              # kernel of the derived map, inside the ambient
    rho: np.ndarray           # ambient index -> G element index

    def order(self):
        return self.ambient.order()

    def tensor_elem_idx(self, x, y):
        """Ambient index of the tensor [x, y'] for x, y in G."""
        return int(self.tensors[self.group.as_index(x),
                                self.group.as_index(y)])

    def all_tensor_indices(self):
        """Ambient indices of {[a, b'] : a, b in G}, deduplicated, with
        one (a, b) witness each, in lexicographic scan order."""
        out = {}
        n = self.group.order()
        for i, t in enumerate(self.tensors.ravel().tolist()):
            out.setdefault(t, divmod(i, n))
        return out


def certified_nu(group, arrays, ambient, mode):
    """The tail every route shares.  The ambient group is regular, and
    its generators are s for s in G's generating set S, in order, then
    s' for the same s.  Sweep the quotient map rho, read off both copies
    of G and every tensor [a, b'], prove the ambient group is nu(G) (see
    ``tensq.nu``), then identify the tensor subgroup and mu."""
    n = group.order()
    mul, inv, conj = arrays
    gsub = list(group.generator_indices())
    gen_idx = ambient.generator_indices()
    rho_gen = gsub * 2

    # rho: fold the quotient map nu(G) ->> G over a breadth-first sweep,
    # then certify it is a homomorphism on every edge of the Cayley graph.
    # R[t] is right multiplication by generator t of nu(G), and
    # gright[i, t] is G's element i times the image of generator t.
    N = ambient.order()
    R = ambient.right_columns(gen_idx)
    gright = mul[:, rho_gen]
    rho = ambient.sweep(0, lambda v, g: gright[v, g])
    for t in range(len(gen_idx)):
        invariant(np.array_equal(rho[R[t]], gright[rho, t]),
                  "rho is not a homomorphism; "
                  "enumeration is inconsistent")

    # both copies of G, swept over G: generator j of G is ambient
    # generator j, and j' is |S| places later
    by_left, by_right = R[:len(gsub)], R[len(gsub):]
    left = group.sweep(0, lambda v, g: by_left[g, v])
    right = group.sweep(0, lambda v, g: by_right[g, v])
    invariant(len(set(left.tolist())) == n,
              "the left copy of G is not injective")
    invariant(len(set(right.tolist())) == n,
              "the right copy of G is not injective")
    LC = ambient.right_columns(left)
    RC = ambient.right_columns(right)
    # LC[j, left[i]] = index(left(i) left(j)), which must be left(ij)
    invariant(np.array_equal(LC[:, left], left[mul.T]),
              "the left copy of G is not a homomorphism")
    invariant(np.array_equal(RC[:, right], right[mul.T]),
              "the right copy of G is not a homomorphism")
    invariant(np.array_equal(rho[left], np.arange(n))
              and np.array_equal(rho[right], np.arange(n)),
              "rho does not split the copies of G")
    invariant(np.array_equal(gen_idx, np.concatenate([left[gsub],
                                                      right[gsub]])),
              "the generators of nu(G) are not the copies of G's")

    # tensors[a, b] = [left(a), right(b)] = left(a)^-1 right(b)^-1 left(a)
    # right(b), one gather per factor; left(a)^-1 = left(a^-1), and so
    # for right
    step = RC[inv][:, left[inv]].T
    step = np.take_along_axis(LC, step, axis=1)
    tensors = RC[np.arange(n)[None, :], step]
    # the certificate: conjugation by each generator s and by s' sends
    # [a, b'] to [a^s, (b^s)'] for every pair
    by = conj[:, rho_gen].T
    want = tensors[by[:, :, None], by[:, None, :]]
    got = ambient.generator_conjugates(tensors.ravel()).reshape(want.shape)
    failed = int((got != want).any(axis=0).sum())
    invariant(not failed,
              f"nu(G) certificate fails: conjugation by a generator s or "
              f"s' does not send [a, b'] to [a^s, (b^s)'] for {failed} of "
              f"{n * n} pairs (a, b)")

    tensor = ambient.normal_closure(tensors[np.ix_(gsub, gsub)].ravel())
    mu_idx = [t for t in tensor.indices() if rho[t] == 0]
    mu = Subgroup._from_indices(ambient, tuple(mu_idx))
    invariant(N == tensor.order() * n * n,
              f"order law fails: {N} != {tensor.order()} * {n}^2")
    # mu is central: s^-1 m s = m for every generator s
    members = np.asarray(mu.indices())
    invariant(bool((ambient.generator_conjugates(members) == members).all()),
              "mu is not central")

    for array in (rho, left, right, tensors):
        array.setflags(write=False)
    return NuGroup(group=group, ambient=ambient, mode=mode, left=left,
                   right=right, tensors=tensors, tensor=tensor, mu=mu,
                   rho=rho)
