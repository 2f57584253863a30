"""The nine acceptance checks, with pinned budgets and expected values.

Each criterion returns a dict with an ``ok`` flag, a one-line detail
string, and the elapsed time.  Budgets are part of the check: a slow
pass is a failure, and run_all reports a criterion that raises as
failed.  Expected values for the scenario criteria are the hand-derived
ones shipped with the bundled data.
"""

from __future__ import annotations

import functools
import os
import time

from .blocks import (assign_characters_to_blocks, block_idempotents,
                     defect_group, splitting_params)
from .broue import BrouePipeline, VirtualPPermBimodule, run_scenario
from .gf import fq_field
from .namedgroups import named_group
from .scenario import bundled_scenario, bundled_table
from .suites import run_suite

DEFAULT_SEED = 20260823


# each criterion's name by id, for its result and for a criterion that raises
NAMES = {1: "mackey-decomposition", 2: "induction-formulas",
         3: "tensor-coherence", 4: "character-contraction", 5: "s3-blocks",
         6: "c6-c3-scenario", 7: "identity-and-negation",
         8: "correspondent-scenarios", 9: "choice-independence"}


def _result(cid: int, ok: bool, detail: str, elapsed: float,
            budget: float | None = None) -> dict:
    if budget is not None and elapsed >= budget:
        ok = False
        detail += f" [budget {budget}s exceeded]"
    return {"id": cid, "name": NAMES[cid], "ok": bool(ok), "detail": detail,
            "elapsed": round(elapsed, 3), "budget": budget}


def criterion_1(seed: int = DEFAULT_SEED) -> dict:
    """Double-coset tensor decomposition, 200 random instances."""
    rep = run_suite("mackey", seed)
    return _result(1, rep["ok"],
                   f"{rep['passes']}/{rep['count']} exact decomposition "
                   "matches", rep["elapsed"], budget=60.0)


def criterion_2(seed: int = DEFAULT_SEED) -> dict:
    """Induced-tensor formulas and deflation-restriction, 100 each."""
    t0 = time.perf_counter()
    reps = [run_suite("induction-formula", seed),
            run_suite("induced-bisets", seed + 1),
            run_suite("defres", seed + 2)]
    ok = all(r["ok"] for r in reps)
    detail = "; ".join(f"{r['suite']} {r['passes']}/{r['count']}"
                       for r in reps)
    return _result(2, ok, detail, time.perf_counter() - t0, budget=120.0)


def criterion_3(seed: int = DEFAULT_SEED) -> dict:
    """Unit, distributivity, associativity coherence, 100 instances."""
    rep = run_suite("coherence", seed)
    return _result(3, rep["ok"],
                   f"{rep['passes']}/{rep['count']} iso checks",
                   rep["elapsed"])


def criterion_4(seed: int = DEFAULT_SEED) -> dict:
    """Character-level contraction formulas with fixed-point oracle."""
    rep = run_suite("characters", seed)
    return _result(4, rep["ok"],
                   f"{rep['passes']}/{rep['count']} instances, "
                   "3 checks each", rep["elapsed"])


def criterion_5() -> dict:
    """Block data of S3 at p=2 and p=3 against the derived values."""
    t0 = time.perf_counter()
    G = named_group("S3")
    table = bundled_table("S3")
    problems = []

    F2 = fq_field(2, splitting_params(G, 2)[0])
    F3 = fq_field(3, splitting_params(G, 3)[0])
    # block_idempotents asserts idempotency, orthogonality and sum 1
    blocks2 = block_idempotents(G, 2, F2)
    blocks3 = block_idempotents(G, 3, F3)
    if len(blocks2) != 2:
        problems.append(f"expected 2 blocks at p=2, got {len(blocks2)}")
    else:
        part2 = assign_characters_to_blocks(table, blocks2, F2)
        named = sorted(tuple(sorted(table.names[i] for i in p))
                       for p in part2)
        if named != [("chi0", "chi1"), ("chi2",)]:
            problems.append(f"p=2 partition {named}")
        orders = sorted(defect_group(G, 2, b).order for b in blocks2)
        if orders != [1, 2]:
            problems.append(f"p=2 defect orders {orders}")

    if len(blocks3) != 1:
        problems.append(f"expected 1 block at p=3, got {len(blocks3)}")
    else:
        D = defect_group(G, 3, blocks3[0])
        if D.order != 3:
            problems.append(f"p=3 defect order {D.order}")

    detail = "S3: 2 blocks at p=2 (defects 1, 2; split chi2 off), " \
             "1 block at p=3 (defect 3)" if not problems \
        else "; ".join(problems)
    return _result(5, not problems, detail, time.perf_counter() - t0)


def criterion_6() -> dict:
    """The worked C6 / C3 scenario, every derived value pinned."""
    t0 = time.perf_counter()
    S = bundled_scenario("c6_c3")
    rep = run_scenario(S, replicate=False)
    problems = []
    if not rep.get("perfect", {}).get("perfect"):
        problems.append("kappa not perfect")
    signs = [e["sign"] for e in rep.get("isometry", {}).get("map", [])]
    if signs != [1, 1, 1]:
        problems.append(f"signs {signs}")
    if rep.get("broue_invariant", {}).get("value") != 2:
        problems.append(f"beta {rep.get('broue_invariant')}")
    for side in ("side_G", "side_H"):
        if rep[side]["defect_order"] != 3:
            problems.append(f"{side} defect order {rep[side]['defect_order']}")
        if rep[side]["dim_simple"] != 1:
            problems.append(f"{side} dim {rep[side]['dim_simple']}")
    if rep.get("local_invariant", {}).get("b_value") != "2":
        problems.append(f"b {rep.get('local_invariant')}")
    if rep.get("sign", {}).get("epsilon") != 1:
        problems.append(f"epsilon {rep.get('sign', {}).get('epsilon')}")
    if not rep["verdict"]["holds"]:
        problems.append("verdict fails")
    detail = ("perfect isometry, signs +1, beta=2, D=E=C3, dims 1, "
              "b=2, eps=+1, verdict holds" if not problems
              else "; ".join(problems))
    return _result(6, not problems, detail,
                   time.perf_counter() - t0, budget=5.0)


def criterion_7() -> dict:
    """Identity scenario invariants and their behavior under negation."""
    t0 = time.perf_counter()
    S = bundled_scenario("identity_s3")
    rep = run_scenario(S, replicate=False)
    problems = []
    if rep.get("broue_invariant", {}).get("value") != 1:
        problems.append("identity beta != 1")
    if rep.get("sign", {}).get("epsilon") != 1:
        problems.append("identity epsilon != +1")
    if rep.get("local_invariant", {}).get("b_value") != "1":
        problems.append("identity b != 1")
    if not rep["verdict"]["holds"]:
        problems.append("identity verdict fails")

    pipe = BrouePipeline(S.G, S.H, S.p, S.table_G, S.table_H,
                         S.block_G, S.block_H)
    gamma = VirtualPPermBimodule(pipe.ambient, S.gamma_terms)
    neg = pipe.verify(gamma.negate(), replicate=False)
    p = S.p
    if neg.get("broue_invariant", {}).get("value") != (-1) % p:
        problems.append("negated beta != -1 mod p")
    if neg.get("sign", {}).get("epsilon") != -1:
        problems.append("negated epsilon != -1")
    if not neg["verdict"]["holds"]:
        problems.append("negated verdict fails")
    detail = ("beta=1, eps=+1, b=1; negation flips beta and eps, "
              "verdict preserved" if not problems else "; ".join(problems))
    return _result(7, not problems, detail, time.perf_counter() - t0)


def criterion_8() -> dict:
    """Local-correspondent scenarios: the invariant lands in {1, -1}."""
    t0 = time.perf_counter()
    problems = []
    degenerate = run_scenario(bundled_scenario("identity_s3"),
                              replicate=False)
    if not degenerate["verdict"]["holds"]:
        problems.append("degenerate self-normalizing case fails")
    if degenerate["local_invariant"]["b_value"] not in ("1", "-1"):
        problems.append("degenerate b outside {1,-1}")

    rep = run_scenario(bundled_scenario("a4_c3"), replicate=False)
    p = rep["prime"]
    if rep["local_invariant"]["b_value"] not in ("1", "-1"):
        problems.append(f"a4 b = {rep['local_invariant']['b_value']}")
    if rep["broue_invariant"]["value"] not in (1 % p, (-1) % p):
        problems.append(f"a4 beta = {rep['broue_invariant']['value']}")
    if rep.get("correspondent", {}).get("status") != "confirmed":
        problems.append(f"correspondent {rep.get('correspondent')}")
    if not rep["verdict"]["holds"]:
        problems.append("a4 verdict fails")
    detail = ("b(B,C) = 1 in both scenarios, beta in {1,-1}, "
              "correspondent block confirmed via the Brauer map"
              if not problems else "; ".join(problems))
    return _result(8, not problems, detail, time.perf_counter() - t0)


def criterion_9() -> dict:
    """Convention independence of the C6 / C3 scenario."""
    t0 = time.perf_counter()
    rep = run_scenario(bundled_scenario("c6_c3"), replicate=True)
    problems = []
    reps = rep.get("replications", [])
    if len(reps) != 2:
        problems.append("expected 2 replication variants")
    for r in reps:
        if not r.get("agrees"):
            problems.append(f"variant {r.get('variant')} disagrees: {r}")
    if not rep["verdict"]["holds"]:
        problems.append("base verdict fails")
    detail = ("alternate conventions and larger field reproduce "
              "beta(B,C)=2 and the verdict" if not problems
              else "; ".join(problems))
    return _result(9, not problems, detail, time.perf_counter() - t0)


# the law criteria run their suites at the seed given to run_all
SEEDED_CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4]
FIXED_CRITERIA = [criterion_5, criterion_6, criterion_7, criterion_8,
                  criterion_9]


def _guarded(cid: int, check) -> dict:
    """The result of check(), criterion cid.  A check that raises fails,
    with the exception and the line that raised it as its detail, and
    the other criteria still run."""
    t0 = time.perf_counter()
    try:
        return check()
    except Exception as ex:
        # the innermost frame, read without importing traceback, which
        # would cost every command its import
        tb = ex.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        where = os.path.basename(tb.tb_frame.f_code.co_filename)
        return _result(cid, False, f"raised {type(ex).__name__} at "
                       f"{where}:{tb.tb_lineno}: {ex}",
                       time.perf_counter() - t0)


def run_all(seed: int = DEFAULT_SEED) -> dict:
    checks = ([functools.partial(fn, seed=seed) for fn in SEEDED_CRITERIA]
              + FIXED_CRITERIA)
    results = [_guarded(cid, check) for cid, check in enumerate(checks, 1)]
    return {
        "kind": "acceptance-report",
        "seed": seed,
        "results": results,
        "ok": all(r["ok"] for r in results),
    }
