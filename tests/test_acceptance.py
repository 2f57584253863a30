"""The nine acceptance checks, one test each.

Every test prints a single summary line to the terminal (bypassing
capture) so a full run leaves a readable scoreboard, and then asserts
the check's own verdict.  Budgets are enforced inside the checks; a
slow pass comes back as a failure.
"""

from bisetblocks import acceptance, suites
from bisetblocks.acceptance import (DEFAULT_SEED, criterion_1, criterion_2,
                                    criterion_3, criterion_4, criterion_5,
                                    criterion_6, criterion_7, criterion_8,
                                    criterion_9)
from bisetblocks.cli import main
from bisetblocks.suites import random_product_subgroup

from oracles import check_kernels_normal, check_subgroup


def _run(capfd, fn, **kw):
    r = fn(**kw)
    line = (f"ACCEPTANCE {r['id']} {r['name']}: "
            f"{'PASS' if r['ok'] else 'FAIL'} - {r['detail']} "
            f"({r['elapsed']}s)")
    with capfd.disabled():
        print(line, flush=True)
    assert r["ok"], line
    return r


def _run_randomized(capfd, monkeypatch, fn):
    """Run a randomized suite, then check every subgroup of a product it
    drew: the package builds them without checking."""
    drawn = []

    def recording(*args, **kwargs):
        drawn.append(random_product_subgroup(*args, **kwargs))
        return drawn[-1]
    monkeypatch.setattr(suites, "random_product_subgroup", recording)
    _run(capfd, fn, seed=DEFAULT_SEED)
    assert drawn
    for X in drawn:
        check_subgroup(X)
        check_kernels_normal(X)


def test_criterion_1_mackey_decomposition(capfd, monkeypatch):
    _run_randomized(capfd, monkeypatch, criterion_1)


def test_criterion_2_induction_formulas(capfd, monkeypatch):
    _run_randomized(capfd, monkeypatch, criterion_2)


def test_criterion_3_tensor_coherence(capfd, monkeypatch):
    _run_randomized(capfd, monkeypatch, criterion_3)


def test_criterion_4_character_contraction(capfd, monkeypatch):
    _run_randomized(capfd, monkeypatch, criterion_4)


def test_criterion_5_s3_blocks(capfd):
    _run(capfd, criterion_5)


def test_criterion_5_reports_a_failed_block_axiom(monkeypatch):
    def broken(G, p, field):
        raise AssertionError("block candidates are not orthogonal")
    monkeypatch.setattr(acceptance, "block_idempotents", broken)
    r = acceptance._guarded(5, criterion_5)
    assert not r["ok"] and r["name"] == "s3-blocks"
    assert r["detail"].startswith("raised AssertionError at test_acceptance")
    assert r["detail"].endswith(": block candidates are not orthogonal")


def test_criterion_6_c6_c3_scenario(capfd):
    _run(capfd, criterion_6)


def test_criterion_7_identity_and_negation(capfd):
    _run(capfd, criterion_7)


def test_criterion_8_correspondent_scenarios(capfd):
    _run(capfd, criterion_8)


def test_criterion_9_choice_independence(capfd):
    _run(capfd, criterion_9)


def test_a_criterion_that_raises_is_a_fail_line(monkeypatch, capsys):
    # an internal check that raises fails its criterion; the others run
    def raising():
        raise ValueError("orthogonality fails at characters 2, 2")
    fixed = list(acceptance.FIXED_CRITERIA)
    fixed[1] = raising
    monkeypatch.setattr(acceptance, "FIXED_CRITERIA", fixed)
    assert main(["run-acceptance"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert [line.split()[0] for line in lines] == ["PASS"] * 5 + [
        "FAIL"] + ["PASS"] * 3
    assert "6. c6-c3-scenario" in lines[5]
    assert "raised ValueError at test_acceptance.py:" in lines[5]
    assert lines[5].endswith(": orthogonality fails at characters 2, 2")
