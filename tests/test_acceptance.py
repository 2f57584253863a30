"""The nine acceptance checks, one test each.

Every test prints a single summary line to the terminal (bypassing
capture) so a full run leaves a readable scoreboard, and then asserts
the check's own verdict.  Budgets are enforced inside the checks; a
slow pass comes back as a failure.
"""

from bisetblocks import acceptance
from bisetblocks.acceptance import (DEFAULT_SEED, criterion_1, criterion_2,
                                    criterion_3, criterion_4, criterion_5,
                                    criterion_6, criterion_7, criterion_8,
                                    criterion_9)


def _run(capfd, fn, **kw):
    r = fn(**kw)
    line = (f"ACCEPTANCE {r['id']} {r['name']}: "
            f"{'PASS' if r['ok'] else 'FAIL'} - {r['detail']} "
            f"({r['elapsed']}s)")
    with capfd.disabled():
        print(line, flush=True)
    assert r["ok"], line
    return r


def test_criterion_1_mackey_decomposition(capfd):
    _run(capfd, criterion_1, seed=DEFAULT_SEED)


def test_criterion_2_induction_formulas(capfd):
    _run(capfd, criterion_2, seed=DEFAULT_SEED)


def test_criterion_3_tensor_coherence(capfd):
    _run(capfd, criterion_3, seed=DEFAULT_SEED)


def test_criterion_4_character_contraction(capfd):
    _run(capfd, criterion_4, seed=DEFAULT_SEED)


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
