import json
import math
import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import tensq.nu as nu_module
import tensq.symbol as symbol_module
from tensq import (FiniteGroup, InvariantError, LetterPresentation,
                   Permutation, build_nu, derived_map_check, get_group,
                   get_presentation, invariant_factors_from_cyclic,
                   nu_presentation, route_independence, tensor_order,
                   tensor_report, tensor_square, verify_decomposition,
                   verify_nu_relations, verify_tensor_set_closed)
from tensq.catalog import catalog, resolve_group
from tensq.coset import (CosetTable, EnumerationLimits,
                         multiplication_table_presentation, tc_enumerate,
                         to_perm_group)
from tensq.words import parse_presentation

from tensq.cli import main as cli_main

from full_triple import (full_triple_nu_presentation,
                         word_gens_nu_presentation, word_nu_presentation)


def abelian_tensor_order(invariants):
    return math.prod(math.gcd(a, b) for a in invariants for b in invariants)


class TestBuild:
    def test_trivial_group(self, nu_of):
        nu = nu_of("C1")
        assert nu.order() == 1
        assert nu.tensor.order() == 1
        assert nu.mu.order() == 1

    def test_c2(self, nu_of):
        nu = nu_of("C2")
        rep = tensor_report(nu)
        assert (rep.nu_order, rep.tensor_order, rep.mu_order) == (8, 2, 2)

    def test_c3(self, nu_of):
        rep = tensor_report(nu_of("C3"))
        assert (rep.nu_order, rep.tensor_order) == (27, 3)

    def test_order_law_is_validated_at_build(self, nu_of):
        for name in ("C2", "C4", "S3", "D4"):
            nu = nu_of(name)
            assert nu.order() == nu.tensor.order() * nu.group.order() ** 2

    def test_cap_rejects_large_groups(self):
        with pytest.raises(ValueError):
            build_nu(get_group("S4"))

    def test_gens_route_rejects_relators_g_does_not_satisfy(self):
        # S3's generators satisfy a^2 and b^2 but do not commute
        with pytest.raises(ValueError, match=r"do not satisfy relator "
                                             r"\(1, 3, 0, 2\)"):
            build_nu(get_group("S3"), get_presentation("C2xC2"), "gens")

    def test_gens_mode_needs_presentation(self):
        with pytest.raises(ValueError):
            build_nu(get_group("C2"), None, "gens")

    def test_gens_mode_validates_presentation(self):
        wrong = get_presentation("D4")
        with pytest.raises(ValueError):
            build_nu(get_group("Q8"), wrong, "gens")

    def test_all_mode_needs_table_presentation(self):
        with pytest.raises(ValueError):
            nu_presentation(get_presentation("S3"), "all")

    def test_embeddings_are_injective_homomorphisms(self, nu_of):
        nu = nu_of("S3")
        g, amb = nu.group, nu.ambient
        n = g.order()
        assert len({int(x) for x in nu.left}) == n
        assert len({int(x) for x in nu.right}) == n
        for i in range(n):
            for j in range(n):
                k = g.mul_idx(i, j)
                assert amb.mul_idx(int(nu.left[i]), int(nu.left[j])) == \
                    int(nu.left[k])
                assert amb.mul_idx(int(nu.right[i]), int(nu.right[j])) == \
                    int(nu.right[k])

    def test_rho_sections(self, nu_of):
        nu = nu_of("D4")
        for i in range(nu.group.order()):
            assert int(nu.rho[nu.left[i]]) == i
            assert int(nu.rho[nu.right[i]]) == i

    def test_mu_contained_in_center(self, nu_of):
        nu = nu_of("S3")
        amb = nu.ambient
        for m in nu.mu.indices():
            for g in amb.generators:
                assert amb.comm_idx(m, amb.index_of(g)) == 0

    def test_invariants_survive_optimize_flag(self):
        # under python -O, a wrong tensor subgroup must still be caught by
        # the order law |nu(G)| = |G (x) G| * |G|^2
        script = textwrap.dedent("""
            import sys
            from tensq import FiniteGroup, InvariantError, build_nu, get_group
            if __debug__:
                sys.exit("not running under -O")

            def trivial_closure(self, gens):
                return self.trivial_subgroup()

            FiniteGroup.normal_closure = trivial_closure
            try:
                build_nu(get_group("S3"))
            except InvariantError as exc:
                print(exc)
            else:
                sys.exit("build_nu accepted a trivial tensor subgroup")
        """)
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        path = os.pathsep.join(filter(None, [str(src),
                                             os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True, timeout=300,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0, proc.stderr
        assert "order law fails" in proc.stdout


class TestAbelianOracle:
    CASES = {
        "C2": [2], "C3": [3], "C4": [4], "C6": [6],
        "C2xC2": [2, 2], "C2xC4": [2, 4],
    }

    def test_tensor_order_matches_gcd_product(self, nu_of):
        for name, inv in self.CASES.items():
            rep = tensor_report(nu_of(name))
            assert rep.tensor_order == abelian_tensor_order(inv), name

    def test_invariant_factors_match_oracle(self, nu_of):
        for name, inv in self.CASES.items():
            rep = tensor_report(nu_of(name))
            gcds = [math.gcd(a, b) for a in inv for b in inv]
            assert list(rep.tensor_invariants) == \
                invariant_factors_from_cyclic(gcds), name


class TestTensorOrder:
    def test_identity_tensor_trivial(self, nu_of):
        nu = nu_of("S3")
        for y in range(6):
            order, _ = tensor_order(0, y, nu)
            assert order == 1

    def test_c2_generator_tensor(self, nu_of):
        nu = nu_of("C2")
        order, min_pow = tensor_order(1, 1, nu, p=2)
        assert order == 2 and min_pow == 2

    def test_d4_orders_are_two_powers(self, nu_of):
        nu = nu_of("D4")
        seen = set()
        for x in range(8):
            for y in range(8):
                order, min_pow = tensor_order(x, y, nu, p=2)
                seen.add(order)
                assert min_pow == order        # always a 2-power here
        assert seen <= {1, 2, 4}

    def test_non_p_power_returns_none(self, nu_of):
        nu = nu_of("C6")
        order, min_pow = tensor_order(1, 1, nu, p=2)
        assert order == 6 and min_pow is None

    def test_rejects_p_below_two(self, nu_of):
        # p = 1 would divide the order by 1 forever, p = 0 by zero
        nu = nu_of("C2")
        for p in (0, 1):
            with pytest.raises(ValueError):
                tensor_order(1, 1, nu, p=p)


class TestVerification:
    def test_s3_relations_exhaustive(self, module_of):
        report = verify_nu_relations(module_of("S3"))
        assert report.passed
        assert all(c.details["mode"] == "exhaustive" for c in report.checks)

    def test_d4_relation_iv_mirror(self, nu_of):
        # [g, [h,x]'] equals the inverse of [[h,x], g']
        nu = nu_of("D4")
        g_, amb = nu.group, nu.ambient
        for g in range(8):
            for h in range(8):
                for x in range(8):
                    c = g_.comm_idx(h, x)
                    lhs = nu.tensor_elem_idx(g, c)
                    rhs = amb.inv_idx(amb.comm_idx(int(nu.left[c]),
                                                   int(nu.right[g])))
                    assert lhs == rhs

    def test_tensor_set_closed_s3(self, nu_of):
        assert verify_tensor_set_closed(nu_of("S3")).passed

    def test_tensor_set_d4_members_are_2_elements(self, nu_of):
        nu = nu_of("D4")
        for t in nu.all_tensor_indices():
            order = nu.ambient.order_of_idx(t)
            assert order in (1, 2, 4)

    def test_decomposition_s3(self, nu_of):
        nu = nu_of("S3")
        report = verify_decomposition(nu)
        assert report.passed
        nu_prime = nu.ambient.derived_subgroup()
        assert nu_prime.order() == 54          # 6 * 3 * 3

    def test_decomposition_d4_order_law(self, nu_of):
        nu = nu_of("D4")
        nu_prime = nu.ambient.derived_subgroup()
        gp = nu.group.derived_subgroup()
        assert nu_prime.order() == nu.tensor.order() * gp.order() ** 2

    def test_derived_map_s3(self, nu_of):
        nu = nu_of("S3")
        report = derived_map_check(nu)
        assert report.passed
        assert nu.mu.order() == 2              # 6 / |A3|

    def test_abelian_case_mu_is_whole_tensor(self, nu_of):
        nu = nu_of("C4")
        assert nu.mu.order() == nu.tensor.order()
        assert derived_map_check(nu).passed


class TestRouteIndependence:
    def test_s3(self, nu_of):
        report, nus = route_independence(
            get_group("S3"), get_presentation("S3"))
        assert report.passed
        assert sorted(nus) == ["all", "gens", "symbol"]
        assert {nu.order() for nu in nus.values()} == {216}
        assert all(set(c.details) >= set(nus) for c in report.checks)

    def test_counterexample_surface(self, module_of):
        # a failing check must be visible in the report structure
        report = verify_nu_relations(module_of("S3"))
        as_dict = report.to_dict()
        assert as_dict["passed"] is True
        assert as_dict["counterexample"] is None
        assert len(as_dict["checks"]) == 5


NU_CAPABLE = [n for n, e in catalog().items() if e.order <= 16]


class TestSymbolRoute:
    @pytest.mark.parametrize("name", NU_CAPABLE)
    def test_report_equals_the_all_route(self, nu_of, name):
        symbol = tensor_report(nu_of(name, "symbol")).to_dict()
        every = tensor_report(nu_of(name, "all")).to_dict()
        assert symbol.pop("mode") == "symbol"
        every.pop("mode")
        assert symbol == every

    @pytest.mark.parametrize("mode", ["all", "gens", "symbol"])
    @pytest.mark.parametrize("name", ["S3", "Q8", "C2xC2"])
    def test_tensors_are_the_commutators(self, nu_of, name, mode):
        nu = nu_of(name, mode)
        amb, n = nu.ambient, nu.group.order()
        assert nu.tensors.shape == (n, n)
        assert not nu.tensors.flags.writeable
        assert [[amb.comm_idx(int(nu.left[a]), int(nu.right[b]))
                 for b in range(n)] for a in range(n)] == \
            nu.tensors.tolist()

    def test_certificate_rejects_a_presentation_short_of_nu(self,
                                                            monkeypatch):
        # S3's gens presentation without the relators conjugated by g3'
        # presents a group of 648 elements, not nu(S3) with 216; the
        # right copy of G still embeds, so the certificate must say so
        full = nu_module.nu_presentation

        def weakened(pres, mode):
            out = full(pres, mode)
            base = 2 * len(pres.relators)
            # the relators come in pairs: conjugated by g3, then by g3'
            return LetterPresentation(
                out.ngens, out.relators[:base] + out.relators[base::2])

        group, pres = get_group("S3"), get_presentation("S3")
        assert tc_enumerate(weakened(pres, "gens")).coset_count == 648
        monkeypatch.setattr(nu_module, "nu_presentation", weakened)
        with pytest.raises(InvariantError,
                           match=r"nu\(G\) certificate fails: .* for \d+ "
                                 r"of 36 pairs"):
            build_nu(group, pres, "gens")

    def test_mutated_assembly_raises_and_writes_no_report(self, monkeypatch,
                                                          tmp_path, capsys):
        # y in place of g y g^-1 in the column of y'
        def mutated(mul, inv, conj, y):
            n = len(mul)
            s = mul[:, y]
            s_inv = inv[s][:, None]
            a = conj[np.arange(n)[None, :], s_inv]
            b = conj[np.full((1, n), y), s_inv]
            return s, a * n + b

        monkeypatch.setattr(symbol_module, "_primed_step", mutated)
        with pytest.raises(InvariantError):
            build_nu(get_group("S3"), mode="symbol")
        # tensq tensor reads G (x) G alone; tensq nu assembles nu(G)
        out = tmp_path / "nu.json"
        assert cli_main(["nu", "D4", "--mode", "symbol", "--no-cache",
                         "--json", str(out)]) == 1
        assert "invariant error" in capsys.readouterr().err
        assert not out.exists()

    def test_regularity_certificate(self):
        # S3 on three points is transitive but not regular; C3 on three
        # points is regular; <(0 1)> on three points is not transitive
        s3 = FiniteGroup([Permutation([1, 2, 0]), Permutation([1, 0, 2])],
                         regular=True)
        c3 = FiniteGroup([Permutation([1, 2, 0])], regular=True)
        c2 = FiniteGroup([Permutation([1, 0, 2])], regular=True)
        assert (s3.is_regular(), c3.is_regular(), c2.is_regular()) == \
            (False, True, False)


# G's generating set with a trivial or a repeated generator: inputs
# where a remap of the ambient's generators onto G's could go wrong
DEGENERATE_PRES = {
    "b-trivial": "gens: a b\nrels: b, a^2\n",
    "b-repeats-a": "gens: a b\nrels: a^3, b a^-1\n",
    "D4-and-c": "gens: a b c\nrels: a^4, b^2, (a b)^2, c a^-1\n",
}


def _layout_input(label, directory):
    """A catalog group with its presentation, ``name/seed-k`` a seeded
    .perm file of it (no presentation), or a ``DEGENERATE_PRES`` file."""
    from test_perm import _seeded_perm_text
    name, _, kind = label.partition("/")
    if label in DEGENERATE_PRES:
        path = directory / f"{label}.pres"
        path.write_text(DEGENERATE_PRES[label])
    elif kind:
        path = directory / f"{name}.perm"
        path.write_text(_seeded_perm_text(name, int(kind[5:])))
    else:
        return get_group(name), get_presentation(name)
    return resolve_group(f"@{path}")[:2]


class TestAmbientLayout:
    """Every route hands the certification tail an ambient group
    generated by G's generating set S, in order, then by S'."""

    # a .perm file gives no presentation, so no gens route
    @pytest.mark.parametrize("label, mode", [
        *((label, mode) for label in (*NU_CAPABLE, *DEGENERATE_PRES)
          for mode in ("all", "gens", "symbol")),
        ("D4/seed-2", "all"), ("D4/seed-2", "symbol")])
    def test_generated_by_s_then_s_primed(self, nu_of, tmp_path, label,
                                          mode):
        if label in NU_CAPABLE:
            nu = nu_of(label, mode)
        else:
            nu = build_nu(*_layout_input(label, tmp_path), mode)
        gsub = list(nu.group.generator_indices())
        gens = nu.ambient.generator_indices()
        assert len(gens) == 2 * len(gsub)
        assert list(gens) == [*nu.left[gsub].tolist(),
                              *nu.right[gsub].tolist()]


def _all_routes_agree(group_order, nu_order, tensor_order, mu_order,
                      invariants):
    """The ``results`` of ``tensq nu @G.pres --json`` for an abelian
    G (x) G on which the all, gens and symbol routes agree."""
    def agree(label, value, **extra):
        return {"label": label, "passed": True,
                "details": {"all": value, "gens": value, "symbol": value,
                            **extra}}
    return {
        "group_order": group_order, "nu_order": nu_order,
        "tensor_order": tensor_order, "mu_order": mu_order,
        "tensor_abelian": True, "tensor_class": 1,
        "tensor_invariants": invariants, "mode": "all", "passed": True,
        "route_independence": {
            "name": "route-independence", "passed": True,
            "counterexample": None,
            "checks": [agree("nu orders agree", nu_order),
                       agree("tensor orders agree", tensor_order,
                             plain_equals_normal=True),
                       agree("tensor abelian invariants agree", invariants),
                       agree("tensor nilpotency classes agree", 1)]},
    }


# recorded while the all route's ambient was generated by every x_g and
# x_g' and the certification tail remapped G's generators onto them
@pytest.mark.parametrize("label, want", [
    ("b-trivial", _all_routes_agree(2, 8, 2, 2, [2])),
    ("b-repeats-a", _all_routes_agree(3, 27, 3, 3, [3])),
    ("D4-and-c", _all_routes_agree(8, 2048, 32, 16, [2, 2, 2, 4])),
])
def test_degenerate_generating_sets_report_as_recorded(tmp_path, capsys,
                                                       label, want):
    path = tmp_path / f"{label}.pres"
    path.write_text(DEGENERATE_PRES[label])
    out = tmp_path / "nu.json"
    assert cli_main(["nu", f"@{path}", "--no-cache", "--json",
                     str(out)]) == 0
    assert json.loads(out.read_text())["results"] == want
    assert capsys.readouterr().out == \
        f"nu @{path}: order {want['nu_order']} (route independence: ok)\n"


class TestTensorSquareWrapper:
    def test_one_call_report(self):
        rep = tensor_square(get_group("C4"), get_presentation("C4"))
        assert rep.tensor_order == 4 and rep.nu_order == 64
        assert rep.mode == "gens"

    def test_auto_route_follows_the_presentation(self):
        # gens for a presentation with one generator up to C5, symbol
        # for C6, for two generators and without a presentation
        c6 = parse_presentation("gens: a\nrels: a^6\n")
        cases = [(get_group(name), get_presentation(name), mode)
                 for name, mode in [("C2", "gens"), ("C5", "gens"),
                                    ("C9", "symbol"), ("C2xC2", "symbol"),
                                    ("S3", "symbol")]]
        cases += [(get_group("C5"), None, "symbol"),
                  (to_perm_group(tc_enumerate(c6.letters())), c6,
                   "symbol")]
        assert [tensor_square(g, p).mode for g, p, _ in cases] == \
            [mode for _, _, mode in cases]

    def test_all_mode(self):
        rep = tensor_report(build_nu(get_group("C2"), mode="all"))
        assert rep.nu_order == 8 and rep.mode == "all"


class TestTablePresentationParsing:
    def test_nu_presentation_from_table(self):
        # C2's table relators, then their primed copies: x' is x + 2
        tp = multiplication_table_presentation(get_group("C2"))
        pres = nu_presentation(get_group("C2"), "all")
        assert pres.ngens == 4
        assert pres.relators[:10] == tp.relators + tuple(
            tuple(x + 4 for x in r) for r in tp.relators)


class TestAllRouteRelators:
    @pytest.mark.parametrize(
        "name", [n for n, e in catalog().items() if e.order <= 9])
    def test_closes_like_the_full_triple_oracle(self, name):
        group = get_group(name)
        n = group.order()
        reduced = nu_presentation(group, "all")
        # the conjugators: G's generators, less the identity and repeats
        conjugators = set(group.generator_indices()) - {0}
        want = tc_enumerate(full_triple_nu_presentation(group))
        # a presentation of a larger group overruns the cap, not 2M cosets
        limits = EnumerationLimits(max_cosets=max(20_000,
                                                  8 * want.coset_count))
        assert tc_enumerate(reduced, limits).coset_count == \
            want.coset_count
        assert len(reduced.relators) == \
            2 * (n * n + 1) + 2 * (n - 1) ** 2 * len(conjugators)

    @pytest.mark.parametrize(
        "name", [n for n, e in catalog().items() if e.order <= 16])
    def test_rows_match_the_word_oracle(self, name):
        # reduced by the enumerator, the index-arithmetic rows are the
        # word-built doubling's relators, relator for relator
        group = get_group(name)
        rows = CosetTable(nu_presentation(group, "all")).relators
        assert rows == CosetTable(word_nu_presentation(group)).relators


@pytest.mark.parametrize(
    "name", [n for n in catalog() if get_presentation(n) is not None])
def test_gens_route_rows_match_the_word_oracle(name):
    pres = get_presentation(name)
    rows = CosetTable(nu_presentation(pres, "gens")).relators
    assert rows == CosetTable(word_gens_nu_presentation(pres)).relators
