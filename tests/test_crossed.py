"""The crossed module (T, phi, lambda) of G (x) G against nu(G).

``tensq tensor`` on the symbol route and ``tensq engel`` read only
T = G (x) G, with G's action phi and the commutator map lambda
(``tensq.crossed``).  These tests compare what they report with what
the assembled nu(G) gives, and break lambda and phi in turn.
"""

import tracemalloc

import numpy as np
import pytest

import tensq.closure as closure
import tensq.crossed as crossed
import tensq.nu as nu_module
from tensq import (EngelScanConfig, FiniteGroup, InvariantError, build_nu,
                   engel_power_scan, get_group, tensor_module,
                   tensor_report)
from tensq.catalog import catalog
from tensq.cli import main as cli_main

from engel_oracle import nu_engel_power_scan

NU_CAPABLE = [n for n, e in catalog().items() if e.order <= 16]

# (group, p, m, n) of the scans compared with the oracle
ORACLE_SCANS = [(name, 2, 2, n) for name in ("S3", "D4", "Q8", "A4", "S4")
                for n in (1, 2, 3)] + [("M27", 3, 1, n) for n in (1, 2)]


@pytest.fixture(scope="module")
def big_nu():
    """nu(G) past the default cap, built once per name."""
    cache = {}

    def build(name):
        if name not in cache:
            group = get_group(name)
            cache[name] = build_nu(group, max_group_order=group.order())
        return cache[name]
    return build


@pytest.mark.parametrize("name,p,m,n", ORACLE_SCANS)
def test_scan_matches_the_nu_oracle(name, p, m, n, module_of, nu_of,
                                    big_nu):
    nu = nu_of(name) if get_group(name).order() <= 16 else big_nu(name)
    config = EngelScanConfig(p=p, m=m, n=n)
    assert engel_power_scan(module_of(name), config).table == \
        nu_engel_power_scan(nu, config).table


@pytest.mark.parametrize("name", NU_CAPABLE)
def test_report_equals_every_nu_route(name, module_of, nu_of):
    module = tensor_report(module_of(name)).to_dict()
    assert module.pop("mode") == "symbol"
    for mode in ("all", "gens", "symbol"):
        report = tensor_report(nu_of(name, mode)).to_dict()
        assert report.pop("mode") == mode
        assert report == module, mode


@pytest.mark.parametrize("name,tensor,mu", [("S4", 48, 4), ("M27", 81, 27),
                                            ("Heis3", 729, 243)])
def test_orders_past_the_default_cap(name, tensor, mu, module_of):
    module = module_of(name)
    n = module.group.order()
    assert (module.tensor.order(), module.mu.order()) == (tensor, mu)
    assert module.order() == n * n * tensor


def test_maps_are_the_commutator_and_the_action(module_of):
    module = module_of("A4")
    group = module.group
    n = group.order()
    for a in range(n):
        for b in range(n):
            t = int(module.tensors[a, b])
            assert module.lam[t] == group.comm_idx(a, b)
            for j, s in enumerate(group.generator_indices()):
                image = module.tensors[group.conj_idx(a, s),
                                       group.conj_idx(b, s)]
                assert module.phi[j][t] == image
    assert set(module.mu.indices()) == set(np.flatnonzero(module.lam == 0))


def _corrupting(monkeypatch, call, point=-1):
    """Make the ``call``-th sweep over T of each build (0 is lambda,
    j + 1 is phi of G's generator j) wrong at ``point``: 0 there
    becomes 1, and anything else 0."""
    make, sweep = crossed.points_group, FiniteGroup.sweep
    swept = {}                  # each build's T -> its sweeps so far

    def recording(*args, **kwargs):
        tgroup = make(*args, **kwargs)
        swept[tgroup] = 0
        return tgroup

    def corrupt(group, first, step):
        out = sweep(group, first, step)
        if group in swept:
            if swept[group] == call:
                out[point] = 0 if out[point] else 1
            swept[group] += 1
        return out
    monkeypatch.setattr(crossed, "points_group", recording)
    monkeypatch.setattr(FiniteGroup, "sweep", corrupt)


MATCHES = ["lambda is not a homomorphism",
           "phi of generator 0 is not an endomorphism",
           "phi of generator 1 is not an endomorphism"]


@pytest.mark.parametrize("call,match", enumerate(MATCHES))
def test_a_corrupted_map_raises(monkeypatch, tmp_path, capsys, call, match):
    _corrupting(monkeypatch, call)
    with pytest.raises(InvariantError, match=match):
        tensor_module(get_group("D4"))
    for argv in (["tensor", "D4", "--no-cache"],
                 ["engel", "D4", "-p", "2", "-m", "1", "-n", "1"]):
        out = tmp_path / "report.json"
        assert cli_main([*argv, "--json", str(out)]) == 1
        assert "invariant error: " in capsys.readouterr().err
        assert not out.exists()


# T(Heis3)'s 729 points are certified closure.sweep_rows(729) = 11 at a
# time, in 67 blocks: the first, a middle and the last point
@pytest.mark.parametrize("point", [0, 364, 728])
@pytest.mark.parametrize("call,match", enumerate(MATCHES))
def test_every_block_of_the_certificates_is_checked(monkeypatch, call, match,
                                                     point):
    assert closure.sweep_rows(27 * 27) == 11
    _corrupting(monkeypatch, call, point)
    with pytest.raises(InvariantError, match=match):
        tensor_module(get_group("Heis3"))


def test_the_certificates_allocate_a_block_at_a_time(monkeypatch):
    # the certificates run from crossed's first sweep_rows call up to the
    # tensor closure; what they allocate is measured between the two
    window = {}
    sweep_rows, closure_of = crossed.sweep_rows, crossed._tensor_closure

    def opening(width):
        tracemalloc.reset_peak()
        window["base"] = tracemalloc.get_traced_memory()[0]
        return sweep_rows(width)

    def closing(*args):
        window["peak"] = tracemalloc.get_traced_memory()[1]
        return closure_of(*args)

    monkeypatch.setattr(crossed, "sweep_rows", opening)
    monkeypatch.setattr(crossed, "_tensor_closure", closing)
    tracemalloc.start()
    try:
        module = tensor_module(get_group("Heis3"))
    finally:
        tracemalloc.stop()
    # one piece, lam[symbols] alone, is symbols.nbytes (2.1 MB)
    assert window["peak"] - window["base"] < module.symbols.nbytes / 4


def test_tensor_and_engel_build_no_nu(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("nu(G) assembled")

    monkeypatch.setattr(nu_module, "build_nu", refuse)
    for argv in (["tensor", "S3", "--no-cache"],
                 ["tensor", "C9", "--no-cache"],
                 ["engel", "C2", "-p", "2", "-m", "1", "-n", "1"]):
        assert cli_main(argv) == 0, argv
    # the gens route still builds nu(G)
    with pytest.raises(AssertionError, match="assembled"):
        cli_main(["tensor", "C2", "--no-cache"])
