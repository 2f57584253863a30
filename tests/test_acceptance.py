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
    r = criterion_5()
    assert not r["ok"]
    assert r["detail"] == "block axioms: block candidates are not orthogonal"


def test_criterion_6_c6_c3_scenario(capfd):
    _run(capfd, criterion_6)


def test_criterion_7_identity_and_negation(capfd):
    _run(capfd, criterion_7)


def test_criterion_8_correspondent_scenarios(capfd):
    _run(capfd, criterion_8)


def test_criterion_9_choice_independence(capfd):
    _run(capfd, criterion_9)
