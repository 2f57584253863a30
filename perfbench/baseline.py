"""Record the benchmark's numbers for every workload.  Run from the root
of a checkout:

    python3 perfbench/baseline.py

For each workload it makes one untraced run (end-to-end metrics) and one
traced run (per-layer metrics and tracing overhead), at the acceptance
seed, prints every metric with its unit, and writes them, with the
commit checked out, the interpreter version and the processor count,
to perfbench/BASELINE.json.  From
the spans of the traced run it lists, for each operation, the layers
with the most self time and their share of the operation's time.
Exits non-zero if any run fails.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)], stdout=subprocess.PIPE, text=True)
    print(proc.stdout, end="")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0:
        raise SystemExit(f"{workload} --trace {trace} failed")
    return result


def top_self(spans_path: str, top: int = 5) -> dict:
    """Per operation: its seconds and the layers with most self time."""
    names, start, end, parent = [], [], [], []
    with open(spans_path) as fh:
        for line in fh:
            n, s, e, p = json.loads(line)
            names.append(n)
            start.append(s)
            end.append(e)
            parent.append(p)
    own = [e - s for s, e in zip(start, end)]
    root = list(range(len(names)))
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
            root[i] = root[p]
    per_op: dict = {}
    for i, r in enumerate(root):
        if i != r:
            layers = per_op.setdefault(r, {})
            layers[names[i]] = layers.get(names[i], 0.0) + own[i]
    out = {}
    for r, layers in per_op.items():
        op_s = end[r] - start[r]
        best = sorted(layers.items(), key=lambda kv: -kv[1])[:top]
        out[names[r].removeprefix("cli.op.")] = {
            "seconds": op_s,
            "top_self": {n: {"self_s": s, "share": s / op_s}
                         for n, s in best}}
    return out


def main() -> int:
    seed = workloads.ACCEPTANCE_SEED
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                            stdout=subprocess.PIPE, text=True,
                            check=True).stdout.strip()
    with open("BENCHMARK.json") as fh:
        seconds = json.load(fh)["run_seconds"]

    doc = {"commit": commit, "seed": seed, "seconds": seconds,
           "python": platform.python_version(),
           "nproc": len(os.sched_getaffinity(0)),
           "machine": platform.machine(), "workloads": {}}
    for w in workloads.WORKLOADS:
        plain = run(w, seed, seconds, 0)
        traced = run(w, seed, seconds, 1)
        doc["workloads"][w] = {
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "failed_op_ratio": plain["failed"] / plain["attempted"],
            "end_to_end": plain["metrics"],
            "per_layer": traced["metrics"],
            "operations": top_self(
                os.path.join(".perfbench_work", f"{w}.spans.jsonl")),
        }
    with open(os.path.join(HERE, "BASELINE.json"), "w") as fh:
        fh.write(json.dumps(doc, indent=1) + "\n")

    print(f"\npython {doc['python']}, nproc {doc['nproc']}, "
          f"seed {seed}, {seconds} s per run")
    for w, rec in doc["workloads"].items():
        e2e = rec["end_to_end"]
        cells = [f"{name} {m['value']:.4g} {m['unit']}"
                 for name, m in e2e.items()]
        cells.append(f"failed_op_ratio {rec['failed_op_ratio']:.4g} "
                     f"({rec['failed']}/{rec['attempted']})")
        cells.append("trace.overhead_s "
                     f"{rec['per_layer']['trace.overhead_s']['value']:.4g} s")
        print(f"{w:<16s} " + ", ".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
