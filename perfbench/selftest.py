"""Self-test of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that
* BENCHMARK.json names exactly the metrics run.py reports;
* a copy of the benchmark with one corrupted expected value (the S5
  defect orders at p=2) exits non-zero and reports failed operations;
* two traced runs of each workload give exactly the same count metrics;
* a disagreeing Broue replication fails its operation, unless it is the
  pinned known defect;
* run.py exits non-zero without a result where there is no program to
  measure.
Work files go under .perfbench_work/.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(".perfbench_work", "selftest")


def bench(run_py: str, workload: str, trace: int, cwd: str = "."):
    """Exit code and parsed last stdout line (None if not JSON)."""
    proc = subprocess.run(
        [sys.executable, run_py, "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return proc.returncode, None


def main() -> int:
    problems = []
    shutil.rmtree(WORK, ignore_errors=True)
    run_py = os.path.join(HERE, "run.py")

    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = {0: [m["name"] for m in spec["end_to_end"]],
             1: [m["name"] for m in spec["per_layer"]]}
    for workload in workloads.WORKLOADS:
        counts = []
        for _ in range(2):
            code, res = bench(run_py, workload, 1)
            if code != 0 or res is None or not res["correct"]:
                problems.append(f"{workload} --trace 1: exit {code}")
                break
            if sorted(res["metrics"]) != sorted(names[1]):
                problems.append(f"{workload} --trace 1 metrics differ from "
                                "BENCHMARK.json")
            counts.append({k: v["value"] for k, v in res["metrics"].items()
                           if v["unit"] in ("count", "ratio")})
        if len(counts) == 2 and counts[0] != counts[1]:
            diff = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
            problems.append(f"{workload}: count metrics differ between "
                            f"runs: {diff}")
    code, res = bench(run_py, "small-ambients", 0)
    if code != 0 or res is None or not res["correct"]:
        problems.append(f"small-ambients --trace 0: exit {code}")
    elif sorted(res["metrics"]) != sorted(names[0]):
        problems.append("--trace 0 metrics differ from BENCHMARK.json")

    # The known replication defect is excused for identity_a4_p2 alone.
    report = {"verdict": {"holds": True}, "broue_invariant": {"value": 2},
              "sign": {"epsilon": 1}, "local_invariant": {"b_value": "2"},
              "replications": [
                  {"variant": "alternate-conventions", "agrees": True},
                  {"variant": workloads.KNOWN_DISAGREEMENT[1],
                   "agrees": False,
                   "error": workloads.KNOWN_DISAGREEMENT[2]}]}
    c6_c3 = next(op for op in workloads.operations("small-ambients", "")
                 if op.name == "c6_c3")
    if not c6_c3.check(report):
        problems.append("a disagreeing replication of c6_c3 not caught")

    # A copy whose expected S5 defect orders at p=2 are wrong.
    copy = os.path.join(WORK, "corrupt")
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    path = os.path.join(copy, "workloads.py")
    with open(path) as fh:
        text = fh.read()
    good = '("S5", 2): (120, [2, 8], [])'
    if good not in text:
        problems.append("expected S5 defect orders not found")
    with open(path, "w") as fh:
        fh.write(text.replace(good, '("S5", 2): (120, [2, 4], [])'))
    code, res = bench(os.path.join(copy, "run.py"), "blocks-ladder", 0)
    if code == 0 or res is None or res["failed"] < 1 or res["correct"]:
        problems.append(f"corrupted oracle not caught: exit {code}, {res}")

    # A directory holding only BENCHMARK.json and the benchmark.
    bare = os.path.join(WORK, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    code, res = bench(os.path.join("perfbench", "run.py"), "small-ambients",
                      0, cwd=bare)
    if code == 0 or res is not None:
        problems.append(f"bare directory: exit {code}, result {res}")

    shutil.rmtree(WORK)
    for line in problems:
        print(f"FAIL {line}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
