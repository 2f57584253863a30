"""The full verification pipeline on the bundled and synthetic scenarios."""

import copy
import hashlib
import json
import os
from fractions import Fraction
from importlib import resources
from types import SimpleNamespace

import pytest

from bisetblocks.blocks import (block_idempotents, splitting_field_degree,
                                splitting_params)
from bisetblocks.broue import (BrouePipeline, PipelineError,
                               VirtualPPermBimodule, residue_of_fraction,
                               rickard_reduce, run_scenario)
from bisetblocks.characters import (external_character, inner_product,
                                    perm_character)
from bisetblocks.gf import fq_field
from bisetblocks.groups import (centralizer, group_from_permutations,
                                p_subgroups_up_to_conjugacy)
from bisetblocks.gsets import biset_coset
from bisetblocks.namedgroups import named_group
from bisetblocks.scenario import Scenario, bundled_scenario

from oracles import correspondent_iso_index, pair_stabilizer


def pipeline_for(S, **kw):
    return BrouePipeline(S.G, S.H, S.p, S.table_G, S.table_H,
                         S.block_G, S.block_H, **kw)


def gamma_of(S, pipe):
    return VirtualPPermBimodule(pipe.ambient, S.gamma_terms)


BAD_S3_DOC = {
    "kind": "broue-scenario", "name": "bad_s3",
    "group_G": "S3", "group_H": "S3", "prime": 3,
    "block_G": {"index": 0}, "block_H": {"index": 0},
    "gamma": [{"p_gens": ["(1 2 3)"], "q_gens": ["(1 2 3)"],
               "phi": ["(1 2 3)"], "coefficient": 1}],
}


def test_scenario_field_degrees():
    C6, C3, S3 = (named_group(n) for n in ("C6", "C3", "S3"))
    assert splitting_field_degree([C6, C3], 3) == 1
    assert splitting_field_degree([S3, S3], 3) == 1
    assert splitting_field_degree([S3, S3], 2) == 2


def test_residue_of_fraction():
    assert residue_of_fraction(Fraction(10, 7), 3) == 1
    assert residue_of_fraction(Fraction(-1), 3) == 2
    with pytest.raises(ValueError):
        residue_of_fraction(Fraction(3, 2), 3)
    with pytest.raises(ValueError):
        residue_of_fraction(Fraction(2, 3), 3)


def test_c6_c3_scenario_full_report():
    r = run_scenario(bundled_scenario("c6_c3"))
    assert r["verdict"] == {"beta_gamma": 2, "epsilon": 1, "beta_local": 2,
                            "product": 2, "holds": True}
    assert r["kappa"]["kept_pairs"] == [["chi1", "chi0", 1],
                                        ["chi3", "chi2", 1],
                                        ["chi5", "chi1", 1]]
    assert r["kappa"]["dropped_pairs"] == 3
    assert r["perfect"]["perfect"] and not r["perfect"]["violations"]
    assert [e["sign"] for e in r["isometry"]["map"]] == [1, 1, 1]
    assert r["broue_invariant"]["value"] == 2
    assert r["local_invariant"] == {"numerator": "2", "denominator": "1",
                                    "b_value": "2", "beta": 2}
    assert r["sign"]["epsilon"] == 1
    assert r["side_G"]["defect_order"] == 3
    assert r["side_H"]["defect_order"] == 3
    assert r["side_G"]["dim_simple"] == 1
    assert r["side_H"]["dim_simple"] == 1
    assert r["side_G"]["characters"] == ["chi1", "chi3", "chi5"]
    assert r["equivalence_axiom_checked"] is False
    assert [s["stage"] for s in r["stages"]] == [
        "kappa", "perfect", "isometry", "broue_invariant", "local_invariant",
        "sign", "congruences", "verdict"]
    assert all(s["ok"] for s in r["stages"])


def test_identity_s3_scenario():
    r = run_scenario(bundled_scenario("identity_s3"))
    assert r["verdict"]["holds"]
    assert r["verdict"]["beta_gamma"] == 1
    assert r["verdict"]["epsilon"] == 1
    assert r["verdict"]["beta_local"] == 1
    assert r["kappa"]["kept_pairs"] == [["chi0", "chi0", 1],
                                        ["chi1", "chi1", 1],
                                        ["chi2", "chi2", 1]]
    assert r["kappa"]["dropped_pairs"] == 0
    assert r["congruences"]["ok"]
    assert r["congruences"]["stabilizer_is_H"]
    for rec in r["congruences"]["per_character"]:
        assert rec["degree_congruence"] is True


def test_a4_c3_scenario_with_correspondent():
    r = run_scenario(bundled_scenario("a4_c3"))
    assert r["verdict"]["holds"]
    assert r["broue_invariant"]["value"] == 1
    # the underlying character ratios are 4, reducing to 1 mod 3
    assert {e["ratio"] for e in r["broue_invariant"]["ratios"]} == {"4"}
    assert r["correspondent"]["status"] == "confirmed"
    assert r["side_G"]["block_index"] == 1
    assert r["side_G"]["block_count"] == 2


def test_replications_agree_on_all_bundled_scenarios():
    for name in ("c6_c3", "identity_s3", "a4_c3"):
        r = run_scenario(bundled_scenario(name))
        reps = r["replications"]
        assert [e["variant"] for e in reps] == [
            "alternate-conventions", "field-degree-plus-one"]
        assert all(e["agrees"] for e in reps)


IDENTITY_A4_P2_DOC = {
    "kind": "broue-scenario", "name": "identity_a4_p2",
    "group_G": "A4", "group_H": "A4", "prime": 2,
    "block_G": {"index": 0}, "block_H": {"index": 0},
    "gamma": [{"p_gens": ["(1 2 3)", "(1 2)(3 4)"],
               "q_gens": ["(1 2 3)", "(1 2)(3 4)"],
               "phi": ["(1 2 3)", "(1 2)(3 4)"], "coefficient": 1}],
}


def test_replications_agree_over_a_non_prime_base_field():
    # A4 at p=2 splits only over F_4, so the larger field must contain F_4
    r = run_scenario(Scenario(dict(IDENTITY_A4_P2_DOC)))
    assert r["field_order"] == 4
    assert r["verdict"]["holds"]
    assert [e["variant"] for e in r["replications"]] == [
        "alternate-conventions", "field-degree-plus-one"]
    assert all(e["agrees"] for e in r["replications"])


def test_negation_flips_sign_and_invariant():
    S = bundled_scenario("identity_s3")
    pipe = pipeline_for(S)
    gamma = gamma_of(S, pipe)
    r = pipe.verify(gamma.negate(), replicate=False)
    assert r["verdict"]["holds"]
    assert r["verdict"]["beta_gamma"] == 2  # -1 mod 3
    assert r["verdict"]["epsilon"] == -1
    assert r["verdict"]["beta_local"] == 1
    assert [e["sign"] for e in r["isometry"]["map"]] == [-1, -1, -1]


def test_wrong_bimodule_fails_at_isometry():
    # delta(C3) inside S3 x S3 is not a stable equivalence bimodule:
    # the standard character maps to twice itself
    r = run_scenario(Scenario(dict(BAD_S3_DOC)))
    assert r["verdict"]["holds"] is False
    assert r["verdict"]["reason"] == "failed at isometry"
    assert r["error"]["stage"] == "isometry"
    assert "replications" not in r
    failures = {f["psi"]: f["image"] for f in r["isometry"]["failures"]}
    assert failures["chi2"] == [("chi2", 2)]


def test_alternate_conventions_change_nothing_essential():
    S = bundled_scenario("c6_c3")
    std = pipeline_for(S)
    alt = pipeline_for(S, conventions="alternate")
    g_std = gamma_of(S, std)
    r1 = std.verify(g_std, replicate=False)
    r2 = alt.verify(g_std, replicate=False)
    for key in ("beta_gamma", "epsilon", "beta_local", "holds"):
        assert r1["verdict"][key] == r2["verdict"][key]


def test_larger_field_changes_nothing_essential():
    S = bundled_scenario("c6_c3")
    base = pipeline_for(S)
    big = pipeline_for(S, field_degree=base.base_degree + 1)
    r1 = base.verify(gamma_of(S, base), replicate=False)
    r2 = big.verify(gamma_of(S, big), replicate=False)
    assert r2["field_order"] == 9
    for key in ("beta_gamma", "epsilon", "beta_local", "holds"):
        assert r1["verdict"][key] == r2["verdict"][key]


def test_bad_conventions_rejected():
    S = bundled_scenario("c6_c3")
    with pytest.raises(ValueError):
        pipeline_for(S, conventions="sideways")


def test_selector_styles_resolve_to_the_same_block():
    S = bundled_scenario("c6_c3")
    by_char = pipeline_for(S)
    explicit = BrouePipeline(S.G, S.H, S.p, S.table_G, S.table_H,
                             {"index": by_char.side_G.block_index},
                             {"index": by_char.side_H.block_index})
    assert explicit.side_G.block_index == by_char.side_G.block_index
    assert explicit.side_G.block == by_char.side_G.block
    with pytest.raises(ValueError):
        BrouePipeline(S.G, S.H, S.p, S.table_G, S.table_H,
                      {"index": 99}, S.block_H)
    with pytest.raises(ValueError):
        BrouePipeline(S.G, S.H, S.p, S.table_G, S.table_H,
                      {"contains_char": "nope"}, S.block_H)


def test_kappa_drops_out_of_block_pairs():
    S = bundled_scenario("c6_c3")
    pipe = pipeline_for(S)
    kres = pipe.kappa(gamma_of(S, pipe))
    kept_rows = {i for (i, _j) in kres["kept"]}
    assert kept_rows <= set(pipe.side_G.irr)
    assert kres["dropped_pairs"] == 3


# The classes of C6 and C3 by representative, and the pairs where the
# p-parts of g and h differ in order: the lists below were taken before
# check_perfect read its values off the rows of mu.
C6_REPS = ["()", "(1 2 3 4 5 6)", "(1 3 5)(2 4 6)", "(1 4)(2 5)(3 6)",
           "(1 5 3)(2 6 4)", "(1 6 5 4 3 2)"]
C3_REPS = ["()", "(1 2 3)", "(1 3 2)"]
PARITY_MISMATCHES = [
    ("()", "(1 2 3)"), ("()", "(1 3 2)"), ("(1 2 3 4 5 6)", "()"),
    ("(1 3 5)(2 4 6)", "()"), ("(1 4)(2 5)(3 6)", "(1 2 3)"),
    ("(1 4)(2 5)(3 6)", "(1 3 2)"), ("(1 5 3)(2 6 4)", "()"),
    ("(1 6 5 4 3 2)", "()")]


def _violations(integral_fails: bool) -> list:
    out = []
    for g in C6_REPS:
        for h in C3_REPS:
            if integral_fails:
                out += [(g, h, "value/|C_G(g)| integral"),
                        (g, h, "value/|C_H(h)| integral")]
            if (g, h) in PARITY_MISMATCHES:
                out.append((g, h, "p-part parity match"))
    return out


def test_check_perfect_flags_violations():
    # chi1 x psi0 is rational; chi2 x psi1 takes irrational values, such
    # as zeta_3 at ((1 2 3 4 5 6), (1 2 3)), whose numerator over 1 is 0
    S = bundled_scenario("c6_c3")
    pipe = pipeline_for(S)
    tG, tH = S.table_G.irreducibles, S.table_H.irreducibles
    rational = external_character(tG[1], tH[0])
    irrational = external_character(tG[2], tH[1])
    for mu, integral_fails in ((rational, True),
                               (irrational, True),
                               (irrational * Fraction(1, S.p), True),
                               (irrational * S.p, False)):
        res = pipe.check_perfect(mu)
        assert res["perfect"] is False
        assert [(v["g"], v["h"], v["condition"])
                for v in res["violations"]] == _violations(integral_fails)


def test_pair_projector_is_small_and_well_formed():
    S = bundled_scenario("c6_c3")
    pipe = pipeline_for(S)
    z = pipe._pair_projector()
    assert len(z) == 2
    for point, coeff in z.items():
        assert 0 <= point < pipe.ambient.order
        assert 1 <= coeff < pipe.field.q


def test_correspondent_check_skips_and_fails():
    # identity_s3 at p=3: C_S3(C3) = C3 while N_S3(C3) = S3
    pipe = pipeline_for(bundled_scenario("identity_s3"))
    assert pipe.correspondent_check() == {
        "status": "skipped",
        "reason": "centralizer and normalizer of D differ"}
    # c6_c3: C_C6(C3) = C6 is not isomorphic to H = C3
    pipe = pipeline_for(bundled_scenario("c6_c3"))
    assert pipe.correspondent_check() == {
        "status": "skipped",
        "reason": "local subgroup is not isomorphic to H"}
    # two different defect-zero blocks of S4 at p=3: D = 1, br_D(b) = b,
    # and no automorphism of S4 moves one central idempotent to another
    S = _scenario("identity_s4_p3")
    pipe = pipeline_for(S)
    assert pipe.correspondent_check() == {"status": "confirmed",
                                          "iso_index": 0}
    pipe = BrouePipeline(S.G, S.H, S.p, S.table_G, S.table_H,
                         {"index": 0}, {"index": 1})
    assert pipe.side_G.D.order == pipe.side_H.D.order == 1
    assert pipe.correspondent_check() == {
        "status": "failed",
        "reason": "no isomorphism matches br_D(b) with the H-block"}


def test_rickard_reduce_merges_degrees():
    S = bundled_scenario("c6_c3")
    pipe = pipeline_for(S)
    t = S.gamma_terms[0]
    red = rickard_reduce(pipe.ambient, [(0, [t]), (1, [t]), (2, [t])])
    assert not red["degenerate"]
    assert red["merged_classes"] == 1
    assert [x.coefficient for x in red["gamma"].terms] == [1]
    gone = rickard_reduce(pipe.ambient, [(0, [t]), (1, [t])])
    assert gone["degenerate"]
    assert gone["merged_classes"] == 1


def test_degenerate_complex_reports_without_running():
    doc = {k: v for k, v in BAD_S3_DOC.items() if k != "gamma"}
    doc["name"] = "degen"
    term = dict(BAD_S3_DOC["gamma"][0])
    doc["complex"] = [{"degree": 0, "terms": [term]},
                      {"degree": 1, "terms": [dict(term)]}]
    r = run_scenario(Scenario(doc))
    assert r["verdict"] == {"holds": False,
                            "reason": "complex reduces to zero"}
    assert r["complex"]["degenerate"]
    assert "stages" not in r


def test_complex_scenario_runs_after_reduction():
    base = json.loads(resources.files("bisetblocks")
                      .joinpath("data/scenarios/c6_c3.json").read_text())
    term = base["gamma"][0]
    doc = {k: v for k, v in base.items() if k != "gamma"}
    doc["complex"] = [{"degree": 0, "terms": [dict(term)]},
                      {"degree": 1, "terms": [dict(term)]},
                      {"degree": 2, "terms": [dict(term)]}]
    r = run_scenario(Scenario(doc))
    assert r["complex"] == {"degenerate": False, "merged_classes": 1}
    assert r["verdict"]["holds"]
    assert r["verdict"]["beta_gamma"] == 2


def test_pipeline_error_has_stage():
    err = PipelineError("sign", "no scan produced a nonzero total")
    assert err.stage == "sign"
    assert "nonzero" in str(err)


def test_projected_rank_reports_a_projector_leaving_the_fixed_set():
    S = bundled_scenario("c6_c3")
    pipe = pipeline_for(S)
    U = biset_coset(gamma_of(S, pipe).terms[0].vertex)
    z = next(z for z in range(pipe.ambient.order) if U.rows[z][0])
    assert pipe._projected_rank(U, [0], {pipe.ambient.identity: 1}) == 1
    with pytest.raises(PipelineError,
                       match="projector does not preserve the fixed set"
                       ) as info:
        pipe._projected_rank(U, [0], {z: 1})
    assert info.value.stage == "sign"


def test_gamma_terms_must_live_in_the_ambient():
    S = bundled_scenario("c6_c3")
    S2 = bundled_scenario("identity_s3")
    pipe = pipeline_for(S)
    with pytest.raises(ValueError):
        VirtualPPermBimodule(pipe.ambient, S2.gamma_terms)


SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir,
                            "perfbench", "scenarios")
IDENTITY_SCENARIOS = ("identity_s4_p2", "identity_s4_p3", "identity_a4_p2",
                      "identity_d8_p2", "identity_q8_p2")


def _scenario(name):
    if name in IDENTITY_SCENARIOS:
        with open(os.path.join(SCENARIO_DIR, f"{name}.json")) as fh:
            return Scenario(json.load(fh))
    return bundled_scenario(name)


@pytest.mark.parametrize("name", ("c6_c3", "identity_s3", "a4_c3")
                         + IDENTITY_SCENARIOS)
def test_kappa_multiplicities_are_the_per_pair_inner_products(name):
    S = _scenario(name)
    pipe = pipeline_for(S)
    gamma = gamma_of(S, pipe)
    kres = pipe.kappa(gamma)
    total = None
    for t in gamma.terms:
        pc = perm_character(biset_coset(t.vertex)) * t.coefficient
        total = pc if total is None else total + pc
    full, mu = {}, None
    for i, chi in enumerate(S.table_G.irreducibles):
        for j, theta in enumerate(S.table_H.irreducibles):
            ext = external_character(chi, theta)
            m = inner_product(total, ext).as_int()
            if m:
                full[(i, j)] = m
            if m and (i, j) in kres["kept"]:
                mu = ext * m if mu is None else mu + ext * m
    assert kres["full"] == full
    assert set(kres["kept"]) <= set(full)
    assert kres["mu"] == mu


@pytest.mark.parametrize("factor, message", [
    (Fraction(1, 2), "non-integer multiplicity"),
    (0, "decomposition does not reconstruct kappa")])
def test_kappa_checks_its_decomposition(factor, message):
    # a copy of the H table whose character chi0 is scaled by factor
    S = bundled_scenario("c6_c3")
    pipe = pipeline_for(S)
    table = copy.copy(pipe.side_H.table)
    table.irreducibles = list(table.irreducibles)
    table.irreducibles[0] = table.irreducibles[0] * factor
    pipe.side_H.table = table
    with pytest.raises(PipelineError, match=message):
        pipe.kappa(gamma_of(S, pipe))


def test_stage_times_sit_beside_an_unchanged_report():
    def strip(doc):
        if isinstance(doc, dict):
            return {k: strip(v) for k, v in doc.items() if k != "elapsed"}
        if isinstance(doc, list):
            return [strip(v) for v in doc]
        return doc
    r = run_scenario(bundled_scenario("c6_c3"))
    for s in r["stages"]:
        assert type(s["elapsed"]) is float and s["elapsed"] >= 0
    # the digest of this report as it was before stages carried times
    text = json.dumps(strip(r), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "2eced485fe9aba69cbe3824e45b2b9a67b1d0ffa6f22e23ff9c743d64af08b4b"


@pytest.mark.parametrize("conventions", ("standard", "alternate"))
@pytest.mark.parametrize("name", ("c6_c3", "identity_s3", "a4_c3")
                         + IDENTITY_SCENARIOS)
def test_class_basis_local_checks_match_element_vectors(name, conventions):
    S = _scenario(name)
    pipe = pipeline_for(S, conventions=conventions)
    assert pipe._pair_stabilizer().elements == \
        pair_stabilizer(pipe).elements
    for j in range(len(pipe.side_H.blocks)):
        other = BrouePipeline(S.G, S.H, S.p, S.table_G, S.table_H,
                              S.block_G, {"index": j},
                              conventions=conventions)
        res = other.correspondent_check()
        if res["status"] != "skipped":
            assert res.get("iso_index") == correspondent_iso_index(other)


def test_pair_stabilizer_sees_a_moved_local_block():
    # D30 at p=5: E = C5, C_H(E) = C15 and N_H(E) = D30; the reflections
    # swap the blocks of F_q C15 lying over the two nontrivial characters
    # of C3, so those blocks have stabilizer C15.
    H = group_from_permutations(
        ["(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15)",
         "(2 15)(3 14)(4 13)(5 12)(6 11)(7 10)(8 9)"], name="D30")
    F = fq_field(5, splitting_params(H, 5)[0])
    orders = []
    for E in p_subgroups_up_to_conjugacy(H, 5):
        C = centralizer(H, E)
        for f in block_idempotents(C.as_group(), 5, F):
            pipe = SimpleNamespace(H=H, side_H=SimpleNamespace(C=C, e=f, D=E))
            J = BrouePipeline._pair_stabilizer(pipe)
            assert J.elements == pair_stabilizer(pipe).elements
            orders.append((E.order, J.order))
    assert sorted(orders) == [(1, 30), (1, 30), (5, 15), (5, 15), (5, 30)]


def _counted(monkeypatch, *names):
    """Count the calls of some BrouePipeline methods, by name."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        method = getattr(BrouePipeline, name)

        def counted(self, *args, _name=name, _method=method, **kw):
            calls[_name] += 1
            return _method(self, *args, **kw)
        monkeypatch.setattr(BrouePipeline, name, counted)
    return calls


@pytest.mark.parametrize("name", ("c6_c3", "identity_s3", "a4_c3")
                         + IDENTITY_SCENARIOS)
def test_replications_share_the_characteristic_0_stages(name, monkeypatch):
    calls = _counted(monkeypatch, "verify", "_decompose", "kappa",
                     "check_perfect", "check_isometry", "broue_invariant",
                     "sign_of_gamma")
    r = run_scenario(_scenario(name))
    assert [e["variant"] for e in r["replications"]] == [
        "alternate-conventions", "field-degree-plus-one"]
    # every variant verifies and computes its own sign; the blocks of
    # both variants hold the base's characters, so nothing of
    # characteristic 0 is computed twice
    assert calls == {"verify": 3, "_decompose": 1, "kappa": 1,
                     "check_perfect": 1, "check_isometry": 1,
                     "broue_invariant": 1, "sign_of_gamma": 3}


def test_a_replication_with_other_block_characters_recomputes(monkeypatch):
    # over F_9, the larger field of c6_c3, the two blocks of C6 trade
    # characters, so the variant's G-block holds chi0, chi2 and chi4
    from bisetblocks import broue
    S = bundled_scenario("c6_c3")
    assign = broue.assign_characters_to_blocks

    def traded(table, blocks, field):
        partition = assign(table, blocks, field)
        if field.q == 9 and table is S.table_G:
            return partition[::-1]
        return partition
    monkeypatch.setattr(broue, "assign_characters_to_blocks", traded)
    calls = _counted(monkeypatch, "_decompose", "kappa", "check_perfect",
                     "check_isometry")
    r = run_scenario(S)
    assert r["side_G"]["characters"] == ["chi1", "chi3", "chi5"]
    assert calls == {"_decompose": 1, "kappa": 2, "check_perfect": 2,
                     "check_isometry": 2}
    assert r["replications"][0]["agrees"] is True
    assert "error" not in r["replications"][1]
    # the variant's G-block holds other characters, so it disagrees
    assert r["replications"][1]["agrees"] is False


def test_a_replication_whose_sign_differs_disagrees(monkeypatch):
    # the sign is modular: a variant whose sign flips disagrees, though
    # it takes beta(gamma) from the base
    sign = BrouePipeline.sign_of_gamma

    def flipped(self, gamma):
        out = sign(self, gamma)
        if self.conventions == "alternate":
            out = dict(out, epsilon=-out["epsilon"])
        return out
    monkeypatch.setattr(BrouePipeline, "sign_of_gamma", flipped)
    r = run_scenario(bundled_scenario("c6_c3"))
    assert r["verdict"]["holds"]
    alt, big = r["replications"]
    assert alt == {"variant": "alternate-conventions", "beta_local": 2,
                   "epsilon": -1, "beta_gamma": 2, "verdict_holds": False,
                   "agrees": False}
    assert big["agrees"] is True
