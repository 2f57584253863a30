"""The full verification pipeline on the bundled and synthetic scenarios."""

from fractions import Fraction

import pytest

from bisetblocks.broue import (BrouePipeline, PipelineError,
                               VirtualPPermBimodule, residue_of_fraction,
                               rickard_reduce, run_scenario,
                               scenario_field_degree)
from bisetblocks.characters import external_character
from bisetblocks.namedgroups import named_group
from bisetblocks.scenario import Scenario, bundled_scenario


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
    assert scenario_field_degree(C6, C3, 3) == 1
    assert scenario_field_degree(S3, S3, 3) == 1
    assert scenario_field_degree(S3, S3, 2) == 2


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


def test_check_perfect_flags_violations():
    S = bundled_scenario("c6_c3")
    pipe = pipeline_for(S)
    chi1 = S.table_G.irreducibles[1]
    psi0 = S.table_H.irreducibles[0]
    mu = external_character(chi1, psi0)
    res = pipe.check_perfect(mu)
    assert res["perfect"] is False
    conditions = {v["condition"] for v in res["violations"]}
    assert conditions <= {"value/|C_G(g)| integral",
                          "value/|C_H(h)| integral",
                          "p-part parity match"}
    assert "p-part parity match" in conditions


def test_pair_projector_is_small_and_well_formed():
    S = bundled_scenario("c6_c3")
    pipe = pipeline_for(S)
    z = pipe._pair_projector()
    assert len(z) == 2
    for point, coeff in z.items():
        assert 0 <= point < pipe.ambient.order
        assert 1 <= coeff < pipe.field.q


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
    S = bundled_scenario("c6_c3")
    base = S.emit()
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


def test_gamma_terms_must_live_in_the_ambient():
    S = bundled_scenario("c6_c3")
    S2 = bundled_scenario("identity_s3")
    pipe = pipeline_for(S)
    with pytest.raises(ValueError):
        VirtualPPermBimodule(pipe.ambient, S2.gamma_terms)
