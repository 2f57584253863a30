"""Scenario documents, bundled data lookup, and the command line."""

import gc
import json
from importlib import resources
from pathlib import Path

import pytest

from bisetblocks import cli
from bisetblocks.characters import character_table, ingest_character_table
from bisetblocks.cli import build_parser, main
from bisetblocks.groups import element_by_name, quotient, subgroup_generated
from bisetblocks.namedgroups import named_group
from bisetblocks.scenario import (Scenario, bundled_scenario, bundled_table,
                                  group_from_spec, table_for_group)
from bisetblocks.suites import ALL_SUITES

DATA = resources.files("bisetblocks").joinpath("data")


TABLE_FIXTURES = Path(__file__).resolve().parent / "fixtures" / "tables"


def data_path(rel: str) -> str:
    return str(DATA.joinpath(rel))


def base_doc() -> dict:
    return {
        "kind": "broue-scenario", "name": "t",
        "group_G": "S3", "group_H": "S3", "prime": 3,
        "block_G": {"index": 0}, "block_H": {"index": 0},
        "gamma": [{"p_gens": ["(1 2)", "(1 2 3)"],
                   "q_gens": ["(1 2)", "(1 2 3)"],
                   "phi": ["(1 2)", "(1 2 3)"], "coefficient": 1}],
    }


# -- group specs -----------------------------------------------------

def test_group_from_spec_forms_and_caching():
    assert group_from_spec("S3") is named_group("S3")
    spec = {"name": "K", "generators": ["(1 2 3)", "(1 2)"]}
    G1 = group_from_spec(spec)
    G2 = group_from_spec(dict(spec))
    assert G1 is G2
    assert G1.order == 6
    tspec = {"name": "Z2", "table": [[0, 1], [1, 0]]}
    T1 = group_from_spec(tspec)
    assert group_from_spec(dict(tspec)) is T1
    assert T1.order == 2
    with pytest.raises(ValueError):
        group_from_spec(42)
    with pytest.raises(ValueError):
        group_from_spec({})


def test_a_spec_group_is_built_once_per_process():
    # kept for the process, so data kept on it is not built again after
    # the garbage collector runs
    spec = {"name": "kept", "generators": ["(1 2 3 4)", "(1 3)"]}
    uid = group_from_spec(spec).uid
    gc.collect()
    assert group_from_spec(dict(spec)).uid == uid


def test_bundled_lookup_rejects_unknown_names():
    with pytest.raises(ValueError):
        bundled_table("F20")
    with pytest.raises(ValueError):
        bundled_scenario("nope")


def test_table_for_group_fallbacks():
    S3 = named_group("S3")
    assert table_for_group(S3) is bundled_table("S3")
    A = group_from_spec({"name": "Z3x",
                         "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]})
    tab = character_table(A)
    assert [c.degree().as_int() for c in table_for_group(A).irreducibles] \
        == [c.degree().as_int() for c in tab.irreducibles]
    S4 = named_group("S4")
    V = subgroup_generated(S4, [element_by_name(S4, "(1 2)(3 4)"),
                                element_by_name(S4, "(1 3)(2 4)")])
    Q, _ = quotient(S4, V)
    with pytest.raises(ValueError):
        table_for_group(Q)


# -- scenario parsing ------------------------------------------------

def test_scenario_parse_error_wrong_kind():
    doc = base_doc()
    doc["kind"] = "something-else"
    with pytest.raises(ValueError, match="broue-scenario"):
        Scenario(doc)


def test_scenario_parse_error_composite_prime():
    doc = base_doc()
    doc["prime"] = 4
    with pytest.raises(ValueError, match="not prime"):
        Scenario(doc)


def test_scenario_parse_error_bad_selector():
    doc = base_doc()
    doc["block_G"] = {"flavour": "principal"}
    with pytest.raises(ValueError, match="selector"):
        Scenario(doc)


def test_scenario_parse_error_unknown_character():
    doc = base_doc()
    doc["block_G"] = {"contains_char": "chi9"}
    with pytest.raises(ValueError, match="chi9"):
        Scenario(doc)


def test_scenario_parse_error_phi_count():
    doc = base_doc()
    doc["gamma"][0]["phi"] = ["(1 2)"]
    with pytest.raises(ValueError, match="one image per generator"):
        Scenario(doc)


def test_scenario_parse_error_phi_outside_p():
    doc = base_doc()
    doc["gamma"][0]["p_gens"] = ["(1 2 3)"]
    doc["gamma"][0]["q_gens"] = ["(1 2 3)"]
    doc["gamma"][0]["phi"] = ["(1 2)"]
    with pytest.raises(ValueError, match="outside P"):
        Scenario(doc)


def test_scenario_parse_error_phi_not_isomorphism():
    doc = base_doc()
    doc["gamma"][0]["p_gens"] = ["(1 2)"]
    doc["gamma"][0]["q_gens"] = ["(1 2 3)"]
    doc["gamma"][0]["phi"] = ["(1 2)"]
    with pytest.raises(ValueError, match="isomorphism"):
        Scenario(doc)


def test_scenario_parse_error_no_bimodule():
    doc = base_doc()
    del doc["gamma"]
    with pytest.raises(ValueError, match="neither gamma nor a complex"):
        Scenario(doc)


# -- the command line ------------------------------------------------

def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_cli_broue_bundled_scenario(capsys):
    code, rep = run_cli(capsys, ["broue", data_path("scenarios/c6_c3.json")])
    assert code == 0
    assert rep["verdict"]["holds"] is True
    assert rep["verdict"]["beta_gamma"] == 2
    assert rep["scenario"] == "c6_c3"


def test_cli_broue_failing_scenario(tmp_path, capsys):
    doc = base_doc()
    doc["gamma"] = [{"p_gens": ["(1 2 3)"], "q_gens": ["(1 2 3)"],
                     "phi": ["(1 2 3)"], "coefficient": 1}]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, rep = run_cli(capsys, ["broue", str(path)])
    assert code == 1
    assert rep["verdict"]["holds"] is False
    assert rep["error"]["stage"] == "isometry"


def test_cli_broue_invalid_document(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text(json.dumps({"kind": "nope"}))
    code, rep = run_cli(capsys, ["broue", str(path)])
    assert code == 2 and rep is None
    assert main(["broue", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def c6_c3_with(edit) -> dict:
    doc = json.loads(DATA.joinpath("scenarios/c6_c3.json").read_text())
    edit(doc)
    return doc


@pytest.mark.parametrize("edit, message", [
    (lambda d: d.update(block_G=3), "block selector 3 is not an object"),
    (lambda d: d["gamma"][0].update(p_gens=[1.5]), "bad element spec 1.5"),
    (lambda d: d.update(gamma=5), "gamma must be a list"),
    (lambda d: d.update(checks=3), "checks must be an object"),
    (lambda d: d.update(block_G={"index": 99}),
     "block index 99 out of range (found 2 blocks)"),
], ids=["block-not-object", "element-spec-float", "gamma-not-list",
        "checks-not-object", "block-index-out-of-range"])
def test_cli_broue_malformed_scenario_is_an_input_error(tmp_path, capsys,
                                                        edit, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(c6_c3_with(edit)))
    assert_input_error(capsys, ["broue", str(path)], message)


def _gamma_as_complex(doc, degree):
    doc["complex"] = [{"degree": degree, "terms": doc.pop("gamma")}]


# a scenario number must be a JSON integer: nothing is rounded or parsed
@pytest.mark.parametrize("edit, message", [
    (lambda d: d.update(prime=3.9), "prime 3.9 is not an integer"),
    (lambda d: d.update(prime="3"), "prime '3' is not an integer"),
    (lambda d: d.update(prime=True), "prime True is not an integer"),
    (lambda d: d["gamma"][0].update(coefficient=1.7),
     "coefficient 1.7 is not an integer"),
    (lambda d: d["gamma"][0].update(coefficient="-1"),
     "coefficient '-1' is not an integer"),
    (lambda d: d["gamma"][0].update(coefficient=False),
     "coefficient False is not an integer"),
    (lambda d: _gamma_as_complex(d, 0.5), "degree 0.5 is not an integer"),
    (lambda d: d.update(block_H={"index": True}),
     "block index True is not an integer"),
], ids=["prime-float", "prime-string", "prime-bool", "coefficient-float",
        "coefficient-string", "coefficient-bool", "degree-float",
        "block-index-bool"])
def test_cli_broue_scenario_numbers_must_be_integers(tmp_path, capsys, edit,
                                                     message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(c6_c3_with(edit)))
    assert_input_error(capsys, ["broue", str(path)],
                       f"bad scenario: {message}")


def test_cli_blocks_s3(capsys):
    code, rep = run_cli(capsys, ["blocks", "S3", "--prime", "2"])
    assert code == 0
    assert rep["block_count"] == 2
    assert rep["field_order"] == 4
    by_chars = {tuple(b["characters"]): b for b in rep["blocks"]}
    assert by_chars[("chi2",)]["defect_order"] == 1
    assert by_chars[("chi2",)]["defect_zero_dim"] == 2
    assert by_chars[("chi0", "chi1")]["defect_order"] == 2


def test_cli_blocks_semisimple_case(capsys):
    code, rep = run_cli(capsys, ["blocks", "C5", "--prime", "2"])
    assert code == 0
    assert rep["block_count"] == 5
    assert rep["field_order"] == 16
    assert all(b["defect_order"] == 1 for b in rep["blocks"])
    assert all(b["defect_zero_dim"] == 1 for b in rep["blocks"])


def test_cli_blocks_rejects_bad_input(capsys):
    assert main(["blocks", "S3", "--prime", "6"]) == 2
    assert main(["blocks", "NoSuchGroup", "--prime", "2"]) == 2
    capsys.readouterr()


def test_cli_blocks_rejects_bad_group_spec(tmp_path, capsys):
    not_a_group = tmp_path / "table.json"
    not_a_group.write_text(json.dumps({"name": "bad",
                                       "table": [[0, 1], [0, 1]]}))
    assert main(["blocks", str(not_a_group), "--prime", "2"]) == 2
    open_cycle = tmp_path / "cycle.json"
    open_cycle.write_text(json.dumps({"name": "bad",
                                      "generators": ["(1 2"]}))
    assert main(["blocks", str(open_cycle), "--prime", "2"]) == 2
    assert "input error" in capsys.readouterr().err


def assert_input_error(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error:")
    assert message in captured.err


@pytest.mark.parametrize("spec, key", [
    ({"name": 1000000}, '"name"'),
    ({"name": True}, '"name"'),
    ({"name": "A5", "generators": "(1 2 3)"}, '"generators"'),
    ({"generators": [[1, 0]]}, '"generators"'),
    ({"table": [0, 1]}, '"table"'),
    ({"table": [[0, 1], [1, True]]}, '"table"')])
def test_cli_blocks_refuses_a_spec_key_of_the_wrong_type(tmp_path, capsys,
                                                        spec, key):
    # a name that is no string reached named_group and raised
    # AttributeError; generators given as one string were read one
    # character at a time; a generator that is a list, or a table that
    # is not a list of lists, raised TypeError from building the key
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["blocks", str(path), "--prime", "2"]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("input error:"), lines
    assert key in lines[0]


def test_cli_blocks_rejects_a_non_associative_table(tmp_path, capsys):
    # a table from a spec file is the one group input whose axioms are
    # checked; this one keeps the identity and a 0 in every row
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": "bad",
                                "table": [[0, 1, 2], [1, 2, 0], [2, 2, 0]]}))
    assert_input_error(capsys, ["blocks", str(path), "--prime", "2"],
                       "not associative")


def test_cli_blocks_rejects_a_generator_that_is_no_permutation(tmp_path, capsys):
    # (1 2)(2 3) sends 1 and 3 to 2: its closure would be a monoid
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"generators": ["(1 2)(2 3)"]}))
    assert_input_error(capsys, ["blocks", str(path), "--prime", "2"],
                       "is not a permutation of 3 points")


def test_cli_blocks_field_degree_below_the_splitting_field(tmp_path, capsys):
    # A5 splits at p=3 only over F_81; F_3 leaves a block of dimension 18
    a5 = tmp_path / "A5.json"
    a5.write_text(json.dumps({"name": "A5",
                              "generators": ["(1 2 3)", "(1 2 3 4 5)"]}))
    assert_input_error(capsys, ["blocks", str(a5), "--prime", "3",
                                "--field-degree", "1"],
                       "multiple of the splitting degree 4")


def test_cli_blocks_field_degree_above_the_cap(capsys):
    assert_input_error(capsys, ["blocks", "S4", "--prime", "2",
                                "--field-degree", "13"],
                       "multiple of the splitting degree 2")
    assert_input_error(capsys, ["blocks", "S4", "--prime", "2",
                                "--field-degree", "14"],
                       "larger than 4096 elements")


def test_cli_blocks_field_degree_negative(capsys):
    assert_input_error(capsys, ["blocks", "S4", "--prime", "2",
                                "--field-degree", "-1"], "-1 is not")


def test_cli_blocks_field_degree_zero_is_not_the_default(capsys):
    assert_input_error(capsys, ["blocks", "S4", "--prime", "2",
                                "--field-degree", "0"], "0 is not")


def test_cli_blocks_field_degree_multiple(capsys):
    code, rep = run_cli(capsys, ["blocks", "S4", "--prime", "2",
                                 "--field-degree", "4"])
    assert code == 0 and rep["field_order"] == 16


def test_cli_blocks_maps_a_non_split_block_to_input_error(monkeypatch,
                                                          capsys):
    # pretend F_2 splits C3, so its F_4 block reaches the square check
    import bisetblocks.cli as cli
    monkeypatch.setattr(cli, "splitting_params", lambda G, p: (1, p))
    assert_input_error(capsys, ["blocks", "C3", "--prime", "2"],
                       "not a perfect square")


def test_cli_blocks_fails_a_character_partition(monkeypatch, tmp_path,
                                              capsys):
    # a character matching no block is a verification failure, not a
    # report without characters
    import bisetblocks.cli as cli

    def refuse(table, blocks, field):
        raise ValueError("character chi0 matched 0 blocks")
    monkeypatch.setattr(cli, "assign_characters_to_blocks", refuse)
    out = tmp_path / "r.json"
    assert main(["blocks", "S4", "--prime", "3", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("verification failure:")
    assert "chi0 matched 0 blocks" in captured.err
    assert captured.out == "" and not out.exists()


def test_cli_broue_field_degree_not_a_multiple(tmp_path, capsys):
    # identity A4 at p=2 needs F_4; F_8 does not contain it
    path = tmp_path / "identity_a4_p2.json"
    path.write_text(json.dumps({
        "kind": "broue-scenario", "name": "identity_a4_p2",
        "group_G": "A4", "group_H": "A4", "prime": 2,
        "block_G": {"index": 0}, "block_H": {"index": 0},
        "gamma": [{"p_gens": ["(1 2 3)", "(1 2)(3 4)"],
                   "q_gens": ["(1 2 3)", "(1 2)(3 4)"],
                   "phi": ["(1 2 3)", "(1 2)(3 4)"], "coefficient": 1}]}))
    assert_input_error(capsys, ["broue", str(path), "--field-degree", "3"],
                       "multiple of the splitting degree 2")


def _block_idempotents_raising_over_f9(monkeypatch, error):
    from bisetblocks import broue
    computed = broue.block_idempotents

    def raising(G, p, field):
        if field.q == 9:
            raise error("refused over F_9")
        return computed(G, p, field)
    monkeypatch.setattr(broue, "block_idempotents", raising)


def test_cli_broue_a_refused_replication_field_is_reported(monkeypatch,
                                                           capsys):
    # c6_c3 replicates over F_9; a ValueError there is how a field that
    # is refused or too small surfaces, so the variant reports it
    _block_idempotents_raising_over_f9(monkeypatch, ValueError)
    code, rep = run_cli(capsys, ["broue", data_path("scenarios/c6_c3.json")])
    assert code == 0 and rep["verdict"]["holds"]
    assert rep["replications"][0]["agrees"] is True
    assert rep["replications"][1] == {"variant": "field-degree-plus-one",
                                      "error": "refused over F_9",
                                      "agrees": False}


def test_cli_broue_a_failed_check_in_a_replication_exits_1(monkeypatch,
                                                           capsys):
    # any other error is a failed verification, not a disagreement
    _block_idempotents_raising_over_f9(monkeypatch, AssertionError)
    assert main(["broue", data_path("scenarios/c6_c3.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "verification failure: refused over F_9\n"


def test_cli_broue_field_degree_above_the_cap(capsys):
    assert_input_error(capsys, ["broue", data_path("scenarios/c6_c3.json"),
                                "--field-degree", "13"],
                       "larger than 4096 elements")


def test_cli_verify_biset_laws_small(capsys):
    code, rep = run_cli(capsys, [
        "verify-biset-laws", "--suite", "mackey", "--count", "4",
        "--max-order", "8", "--seed", "7"])
    assert code == 0
    assert rep["ok"] is True
    suite = rep["suites"][0]
    assert suite["suite"] == "mackey"
    assert suite["count"] == 4
    assert suite["passes"] == 4


# the --inject-mutation reports at --count 5 --seed 7, "elapsed" fields
# taken out, as the suites wrote them once each instance had its own
# generator (coherence's record names no groups, so it kept its digest)
MUTATED_SUITE_DIGESTS = {
    "mackey":
    "cc9d12436a29f8f2421b83050428ac66f9351f8f104aa92209a1aca9c20af5f6",
    "defres":
    "b04a7a531af4cc72faebddd25e60c9e98c9f9a73f0eda84a136f8473cc197b29",
    "induction-formula":
    "2cff283546dab67b853e79c26a0877acbecf0a0d751d5ee187702e42b9acd828",
    "induced-bisets":
    "bd6f6530b20b27bfae9ab5e1a862b4ded5a43ceb3847c7469dff03ca6bf71d37",
    "coherence":
    "444153ca602634d553ad88f5bd87d70ca003eb773fdcfddb6458d64cd7c16d50",
    "characters":
    "85501fff0364d3ccdf2df40f5cde694b6aa15f4c6e42a37728f20d85f013910f",
}


@pytest.mark.parametrize("suite_name", list(ALL_SUITES))
def test_cli_laws_suite_mutation_is_caught(capsys, suite_name):
    # the right side of the first check of instance 0 gains a fixed
    # point: only that instance fails
    code, rep = run_cli(capsys, [
        "verify-biset-laws", "--suite", suite_name, "--count", "5",
        "--seed", "7", "--inject-mutation"])
    assert code == 1
    suite = rep["suites"][0]
    assert suite["suite"] == suite_name and suite["ok"] is False
    assert suite["passes"] == suite["count"] - 1 == 4
    assert [(f["index"], f["mutated"]) for f in suite["failures"]] == [
        (0, True)]
    if suite_name == "characters":
        assert suite["failures"] == [{
            "index": 0, "groups": ["C6", "D8", "C2"],
            "checks": ["double-coset formula"], "mutated": True}]
    assert _digest_without_times(rep) == MUTATED_SUITE_DIGESTS[suite_name]


@pytest.mark.parametrize("suite_name", list(ALL_SUITES))
def test_cli_laws_failure_record_replays_alone(capsys, suite_name):
    # the record of the --inject-mutation failure, rerun by its index
    # alone, fails the same checks; an instance that passed passes alone
    argv = ["verify-biset-laws", "--suite", suite_name, "--seed", "7",
            "--inject-mutation"]
    _, rep = run_cli(capsys, argv + ["--count", "5"])
    [record] = rep["suites"][0]["failures"]
    code, replay = run_cli(capsys, argv + ["--index", str(record["index"])])
    suite = replay["suites"][0]
    assert code == 1
    assert (suite["count"], suite["index"], suite["failures"]) == (
        1, record["index"], [record])
    code, replay = run_cli(capsys, argv + ["--index", "3"])
    suite = replay["suites"][0]
    assert code == 0 and (suite["count"], suite["passes"]) == (1, 1)


def test_cli_index_is_checked(capsys):
    assert_input_error(capsys, ["verify-biset-laws", "--suite", "mackey",
                                "--index", "-1"],
                       "--index -1 must be at least 0")
    with pytest.raises(SystemExit) as refused:
        main(["verify-biset-laws", "--index", "0", "--count", "5"])
    assert refused.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_cli_ingest_table(capsys):
    code, rep = run_cli(capsys,
                        ["ingest-table", str(TABLE_FIXTURES / "S3.json")])
    assert code == 0
    assert rep["ok"] is True
    assert rep["degrees"] == [1, 1, 2]
    assert rep["normalized"]["kind"] == "character-table"
    assert len(rep["normalized"]["characters"]) == 3


def test_cli_ingest_table_missing_file(capsys):
    assert main(["ingest-table", "/no/such/file.json"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("conductor", (20000, 10 ** 8))
def test_cli_ingest_table_refuses_a_conductor_outside_the_group(
        tmp_path, capsys, conductor):
    import time
    with open(TABLE_FIXTURES / "S3.json") as fh:
        doc = json.load(fh)
    doc["characters"][-1]["values"][-1] = {"conductor": conductor,
                                           "coeffs": [1]}
    path = tmp_path / "S3_bad.json"
    path.write_text(json.dumps(doc))
    t0 = time.perf_counter()
    assert_input_error(capsys, ["ingest-table", str(path)],
                       f"bad table: conductor {conductor} does not divide "
                       f"2|G| = 12")
    assert time.perf_counter() - t0 < 1.0


def _a4_table_with(value, character: int, column: int) -> dict:
    with open(TABLE_FIXTURES / "A4.json") as fh:
        doc = json.load(fh)
    doc["characters"][character]["values"][column] = value
    return doc


@pytest.mark.parametrize("value, message", [
    ({"conductor": 0, "coeffs": [0]}, "conductor 0 is not a positive"),
    ({"conductor": "x", "coeffs": []}, "conductor 'x' is not a positive"),
    ({"conductor": -3, "coeffs": [0, 0]}, "conductor -3 is not a positive"),
    ({"conductor": True, "coeffs": [0]}, "conductor True is not a positive"),
    ({"conductor": 3, "coeffs": [None, 0]}, "are not a list of integers"),
    ({"conductor": 3, "coeffs": [0.0]}, "are not a list of integers"),
    ({"conductor": 3, "coeffs": [True, 0]}, "are not a list of integers"),
    ({"conductor": 3, "coeffs": "00"}, "are not a list of integers"),
    (True, "bad character value True"),
    (0.0, "bad character value 0.0")])
def test_cli_ingest_table_refuses_a_value_that_is_not_ints(
        tmp_path, capsys, value, message):
    # each once read as a value: 0, 1, or a zero over conductor 1
    path = tmp_path / "A4_bad.json"
    path.write_text(json.dumps(_a4_table_with(value, 3, 1)))
    assert main(["ingest-table", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("input error: bad table:")
    assert message in captured.err


def test_cli_ingest_table_reads_a_rational_value_given_a_conductor(
        tmp_path, capsys):
    _, want = run_cli(capsys, ["ingest-table",
                               str(TABLE_FIXTURES / "A4.json")])
    doc = _a4_table_with({"conductor": 3, "coeffs": [3]}, 3, 0)
    doc["characters"][3]["values"][2] = {"conductor": 6, "coeffs": [-1, 0]}
    path = tmp_path / "A4_rational.json"
    path.write_text(json.dumps(doc))
    code, got = run_cli(capsys, ["ingest-table", str(path)])
    assert code == 0 and got == want
    table = ingest_character_table(doc, group=named_group("A4"))
    assert table.irreducibles[3].n == 1


def test_cli_out_writes_json_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["blocks", "C6", "--prime", "3", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["block_count"] == 2
    assert all(b["defect_order"] == 3 for b in rep["blocks"])


def test_cli_requires_a_verb():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize("count", ["0", "-1"])
def test_cli_verify_biset_laws_count_below_one(capsys, count):
    assert_input_error(capsys, ["verify-biset-laws", "--suite", "mackey",
                                "--count", count],
                       f"--count {count} must be at least 1")


def test_cli_inject_mutation_without_suite_mutates_mackey(capsys):
    code, rep = run_cli(capsys, [
        "verify-biset-laws", "--count", "2", "--max-order", "4",
        "--seed", "7", "--inject-mutation"])
    assert code == 1
    verdicts = {s["suite"]: s["ok"] for s in rep["suites"]}
    assert verdicts.pop("mackey") is False
    assert all(verdicts.values())
    assert rep["suites"][0]["failures"][0]["mutated"] is True
    # the report as the suites wrote it once each instance had its own
    # generator
    assert _digest_without_times(rep) == \
        "54e5f3808b351163cfe307b82314ee2014cb639539d350e4fe6af6e506cfdf9e"


def test_cli_blocks_default_field_above_the_cap(capsys):
    # 7 has order 10 mod 11, so C11 splits over F_7 only in F_{7^10}
    assert_input_error(capsys, ["blocks", "C11", "--prime", "7"],
                       "the splitting degree 10 makes a field larger than "
                       "4096 elements")


def test_cli_broue_default_field_above_the_cap(tmp_path, capsys):
    path = tmp_path / "identity_c11_p7.json"
    cycle = "(1 2 3 4 5 6 7 8 9 10 11)"
    path.write_text(json.dumps({
        "kind": "broue-scenario", "name": "identity_c11_p7",
        "group_G": "C11", "group_H": "C11", "prime": 7,
        "block_G": {"index": 0}, "block_H": {"index": 0},
        "gamma": [{"p_gens": [cycle], "q_gens": [cycle], "phi": [cycle],
                   "coefficient": 1}]}))
    assert_input_error(capsys, ["broue", str(path)],
                       "the splitting degree 10 makes a field larger than "
                       "4096 elements")


# A prime above the field size cap has no field the pipeline can use,
# so it is refused before any primality test (which would take minutes).

@pytest.mark.parametrize("prime", [1000000007, 2 ** 61 - 1])
def test_cli_broue_prime_above_the_cap(tmp_path, capsys, prime):
    doc = base_doc()
    doc["prime"] = prime
    path = tmp_path / "huge_prime.json"
    path.write_text(json.dumps(doc))
    assert_input_error(capsys, ["broue", str(path)],
                       f"prime {prime} is larger than the field size cap")


def test_cli_blocks_prime_above_the_cap(capsys):
    assert_input_error(capsys, ["blocks", "S3", "--prime",
                                str(2 ** 61 - 1)],
                       "is larger than the field size cap 4096")


SPEC_GROUPS = {
    "A5": {"name": "A5", "generators": ["(1 2 3)", "(1 2 3 4 5)"]},
    "S5": {"name": "S5", "generators": ["(1 2)", "(1 2 3 4 5)"]},
    "S6": {"name": "S6", "generators": ["(1 2)", "(1 2 3 4 5 6)"]}}


# (group, prime, SHA-256 of the report without its "elapsed" fields)
PINNED_BLOCKS_REPORTS = [
    ("S4", 2,
     "5af8a52934a2903538ada283fc61eea1372d31befaca130ae6fe225066a5742c"),
    ("S4", 3,
     "f9a11f8322c8f56907aab1aadb3fe5c5f1394980ad0309b632ada210a1962c95"),
    ("A5", 2,
     "022968dac2af3c9d6cf3cccba01a1c5b8e377ae64adb54c626e80616eeb2ca18"),
    ("A5", 3,
     "dc9d91ac8466c0181178d8f4b417ad853924a5cd633246405c776d122cbf1fb8"),
    ("A5", 5,
     "3a4e560937e582ddd688a137a49cb93fce3e93499b8d4d8cb725290729457add"),
    ("S5", 2,
     "fe1f1035364cede08cd4a358a3dba85e146cc64708f45fef868e473c23d2998f"),
    ("S5", 3,
     "519fe84689dc7d611451e04db0a2f18b63623d5c1ed9337b9baca2e18b013ad2"),
    ("S5", 5,
     "ad687d977b3dcaac7b3e2a2a5565d84e4a09b65f5227723072fef5f5b352b40a"),
    ("S6", 2,
     "0366faaf38a08672b088135be278f92c1542b98e705ef08d120f23d070a60724")]


# the bundled S4 keeps the test id it had before spec groups were added
@pytest.mark.parametrize("group, prime, digest", [
    pytest.param(*case, id="-".join(
        map(str, case[1:] if case[0] == "S4" else case)))
    for case in PINNED_BLOCKS_REPORTS])
def test_cli_blocks_times_sit_beside_an_unchanged_report(
        tmp_path, capsys, group, prime, digest):
    arg = group
    if group in SPEC_GROUPS:
        arg = tmp_path / f"{group}.json"
        arg.write_text(json.dumps(SPEC_GROUPS[group]))
    code, rep = run_cli(capsys, ["blocks", str(arg), "--prime", str(prime)])
    assert code == 0
    for timed in [rep] + rep["blocks"]:
        assert type(timed["elapsed"]) is float and timed["elapsed"] >= 0
    # the digest of this report as it was before it carried times
    assert _digest_without_times(rep) == digest


def _digest_without_times(rep) -> str:
    """SHA-256 of a report with every "elapsed" field taken out."""
    import hashlib

    def strip(doc):
        if isinstance(doc, dict):
            return {k: strip(v) for k, v in doc.items() if k != "elapsed"}
        if isinstance(doc, list):
            return [strip(v) for v in doc]
        return doc
    text = json.dumps(strip(rep), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


BENCH_SCENARIOS = Path(__file__).resolve().parent.parent / "perfbench" \
    / "scenarios"

C6_C3_DIGEST = \
    "2eced485fe9aba69cbe3824e45b2b9a67b1d0ffa6f22e23ff9c743d64af08b4b"


# The reports as the Fraction-coefficient arithmetic wrote them; the
# integer arithmetic must reproduce them byte for byte.
PINNED_REPORTS = [
    (["broue", data_path("scenarios/c6_c3.json")], C6_C3_DIGEST),
    (["broue", data_path("scenarios/identity_s3.json")],
     "bed52081e2666addf9904df0a63907381687cd708d40e3542798665c6dfb5e07"),
    (["broue", data_path("scenarios/a4_c3.json")],
     "09ebf31261b5294fd39d86dba504bee8b763c3efb2754b7113ce3cf58d0dddf1"),
    (["broue", str(BENCH_SCENARIOS / "identity_s4_p2.json")],
     "46c1db1b4d4783bfe7d07513e39efe8bbec5cdc9fdecb17a010a5ab499b8b2ba"),
    (["broue", str(BENCH_SCENARIOS / "identity_s4_p3.json")],
     "5ee7fa3ef29db33a1768d3aab40c472cfbcf66a8ac12d1857f4abab4f65988c3"),
    (["broue", str(BENCH_SCENARIOS / "identity_a4_p2.json")],
     "a2479f3879e91843229d8b36cada60cdd15f242e151a47c27f6dedae1ead98d4"),
    (["broue", str(BENCH_SCENARIOS / "identity_d8_p2.json")],
     "b564eacd5cb36132a2658654234f9be448a897709dde7a9b89fd63da78a9b2e1"),
    (["broue", str(BENCH_SCENARIOS / "identity_q8_p2.json")],
     "56cddb8b7e3eb982670aaac4577edad35573b54a1b500dc15cdaf89389c48b82"),
    (["verify-biset-laws", "--suite", "characters", "--seed", "20260823",
      "--count", "50"],
     "c3945feef4583faca97ae80fde73ebbef2cd2b8c595800e85fb6ff07c4bdb0b7"),
    # the laws suites as the per-product kernels wrote them, before the
    # bulk product kernels replaced them; induction-formula and
    # induced-bisets as they were once each instance had its own
    # generator, which moved their double_cosets_seen
    (["verify-biset-laws", "--suite", "induction-formula", "--seed",
      "20260823", "--count", "100"],
     "a3e197b21abfa952c4d78518c8361f0d29cce6ed11bbfe173eeffdccd9f9ec6c"),
    (["verify-biset-laws", "--suite", "induced-bisets", "--seed",
      "20260824", "--count", "100"],
     "715cc64c7d8eda127b7b7553eea5d97b3e069649408e7e4419ee0883ac02e9d7"),
    (["verify-biset-laws", "--suite", "defres", "--seed", "20260825",
      "--count", "100"],
     "7bc11467d2909dedc3ea43c3b67e6a41729b5194e740341d6ebcf9dad7d087dd"),
    # the same three suites away from the acceptance seeds, so that a
    # change of representatives there shows too (induced-bisets re-pinned
    # with the generator of each instance)
    (["verify-biset-laws", "--suite", "induction-formula", "--seed", "1",
      "--count", "100"],
     "3902578eb9d3eff945ff485c8e83f6ba190237559fb7286c7f8a5ce690bc3fed"),
    (["verify-biset-laws", "--suite", "induced-bisets", "--seed", "1",
      "--count", "100"],
     "5adb8acee148cc356eb774a424b12fcf735079fbd21f21aa4f3f0ab09c627738"),
    (["verify-biset-laws", "--suite", "defres", "--seed", "1", "--count",
      "100"],
     "5d2ec0eda9c09e4d70f9763d1fc16aac1828922eda1e2551eca53007255714b5"),
    (["verify-biset-laws", "--suite", "mackey", "--seed", "20260823",
      "--count", "200"],
     "c06cbfc479ea296f08040844d685a7bb35fa4d6c33c57e9b0d870abcb4a82b7d"),
    (["verify-biset-laws", "--suite", "coherence", "--seed", "20260823",
      "--count", "100"],
     "3d66745a96237b41b4da7e30e38a70647da7cdd4f28d7bee6df3cb50cf8728ba"),
    # the other three suites away from the acceptance seed, as they were
    # before the graph bisets and extended tensors built rows on demand
    (["verify-biset-laws", "--suite", "mackey", "--seed", "1", "--count",
      "200"],
     "53c1d884e352caea17104caae2109d79af364a6edbcc5da2afb9ea0dd5078bc5"),
    (["verify-biset-laws", "--suite", "coherence", "--seed", "1", "--count",
      "100"],
     "acf13917a92813632b8fbec715e784794d6d72d7a336a068167fdfd42376bd34"),
    (["verify-biset-laws", "--suite", "characters", "--seed", "1",
      "--count", "50"],
     "68a795ea7448a8aaacaa77da40054175e0db8cd87f6c3fbfd3dd7421d5a93d85"),
]
PINNED_REPORT_IDS = [
    "c6_c3", "identity_s3", "a4_c3", "identity_s4_p2", "identity_s4_p3",
    "identity_a4_p2", "identity_d8_p2", "identity_q8_p2",
    "characters-suite", "induction-formula-suite",
    "induced-bisets-suite", "defres-suite",
    "induction-formula-suite-seed-1", "induced-bisets-suite-seed-1",
    "defres-suite-seed-1", "mackey-suite",
    "coherence-suite", "mackey-suite-seed-1", "coherence-suite-seed-1",
    "characters-suite-seed-1"]


@pytest.mark.parametrize("argv, digest", PINNED_REPORTS,
                         ids=PINNED_REPORT_IDS)
def test_cli_reports_are_pinned_apart_from_times(capsys, argv, digest):
    code, rep = run_cli(capsys, argv)
    assert code == 0
    assert _digest_without_times(rep) == digest


# the pinned suite reports and --inject-mutation reports above
SUITE_REPORTS = [
    (argv, digest, name)
    for (argv, digest), name in zip(PINNED_REPORTS, PINNED_REPORT_IDS)
    if argv[0] == "verify-biset-laws"] + [
    (["verify-biset-laws", "--suite", suite_name, "--count", "5", "--seed",
      "7", "--inject-mutation"], digest, f"{suite_name}-mutated")
    for suite_name, digest in MUTATED_SUITE_DIGESTS.items()]


@pytest.mark.parametrize("workers", (1, 3))
@pytest.mark.parametrize("argv, digest", [case[:2] for case in SUITE_REPORTS],
                         ids=[case[2] for case in SUITE_REPORTS])
def test_cli_suite_reports_do_not_depend_on_the_worker_count(
        monkeypatch, capsys, argv, digest, workers):
    monkeypatch.setattr(cli, "worker_count", lambda: workers)
    code, rep = run_cli(capsys, argv)
    assert code == (1 if "--inject-mutation" in argv else 0)
    assert _digest_without_times(rep) == digest


def test_one_parser_serves_every_call_of_main(capsys):
    # the parser is built once per process; a call it rejects leaves
    # nothing behind that changes the reports of the calls after it
    assert build_parser() is build_parser()
    with pytest.raises(SystemExit) as rejected:
        main(["blocks", "S4", "--prime", "three"])
    assert rejected.value.code == 2
    assert "invalid int value" in capsys.readouterr().err
    pinned = {(g, p): digest for g, p, digest in PINNED_BLOCKS_REPORTS}
    code, rep = run_cli(capsys, ["blocks", "S4", "--prime", "3"])
    assert code == 0 and _digest_without_times(rep) == pinned["S4", 3]
    code, rep = run_cli(capsys, ["broue", data_path("scenarios/c6_c3.json")])
    assert code == 0 and _digest_without_times(rep) == C6_C3_DIGEST


def test_only_run_acceptance_imports_the_acceptance_module():
    # a fresh interpreter: importing the CLI leaves acceptance.py
    # unloaded, so the verbs that never reach it skip its start-up cost
    import os
    import subprocess
    import sys
    src = str(Path(cli.__file__).resolve().parent.parent)
    script = ("import sys, bisetblocks.cli; "
              "print('bisetblocks.acceptance' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", script],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False"]


@pytest.mark.parametrize("argv", [
    ["blocks", "S3", "--prime", "2"],
    ["verify-biset-laws", "--suite", "mackey", "--count", "1"],
    ["broue", data_path("scenarios/identity_s3.json")],
    ["ingest-table", str(TABLE_FIXTURES / "S3.json")],
    ["run-acceptance"]], ids=lambda argv: argv[0])
@pytest.mark.parametrize("target", ["missing", "directory"])
def test_cli_out_that_cannot_be_written_is_an_input_error(
        tmp_path, capsys, argv, target):
    # the work is done, the report cannot be written: exit 2 with one
    # input error line, as for any other bad argument
    out = tmp_path / "no" / "r.json" if target == "missing" else tmp_path
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines()
              if line.startswith("input error:")]
    assert errors == [captured.err.splitlines()[-1]]
    assert errors[0].startswith(f"input error: cannot write {out}: ")
