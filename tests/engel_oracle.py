"""The N-point Engel scan over nu(G), as an oracle.

``tensq.engel.engel_power_scan`` decides each tensor power in
T = G (x) G by orbits.  This is the scan it replaced: it reads the
assembled nu(G) and decides every candidate [x, y']^q over all
|nu(G)| elements x.
"""

import itertools

from tensq.engel import EngelScanResult, _left_engel_mask


def nu_engel_power_scan(nu, config):
    """For every pair (x, y) in G x G, the least divisor q of p^m
    (scanning 1, p, p^2, ...) making [x, y']^q left n-Engel in the
    ambient group of the ``NuGroup`` ``nu``."""
    amb = nu.ambient
    qs = [config.p ** j for j in range(config.m + 1)]
    powers = {}
    for x, y in itertools.product(range(nu.group.order()), repeat=2):
        t = nu.tensor_elem_idx(x, y)
        powers[(x, y)] = [amb.pow_idx(t, q) for q in qs]
    # every candidate power, decided in one batch
    cands = list(dict.fromkeys(itertools.chain(*powers.values())))
    hits = dict(zip(cands, _left_engel_mask(amb, cands, config.n)))
    result = EngelScanResult(config=config)
    for pair, tqs in powers.items():
        result.table[pair] = next(
            (q for q, tq in zip(qs, tqs) if hits[tq]), None)
    return result
