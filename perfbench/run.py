"""Benchmark of the bisetblocks command line, one workload per run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload blocks-ladder --seed 1 \\
        --seconds 30 --trace 0

Every pass of a workload runs in a fresh interpreter (worker.py), one
CLI operation after another, so every cache starts cold as it does for
a CLI user; the load is a closed loop with a single client.  With
``--trace 0`` the run makes passes until ``--seconds`` is spent, and
at least MIN_PASSES of them, and reports the end-to-end metrics:

* setup_s: from the start of a pass process to its first timed call
  (interpreter start, import, writing the input files), median over
  the passes;
* wall_s: wall time of the timed operations of one pass, median over
  the passes;
* peak_rss_mb: peak resident memory of one pass process, median.

setup_s and wall_s are in reference seconds: each pass samples the
speed of the host as it runs (worker.SpeedProbe) and scales its times
to a host of fixed speed, because the speed of a shared host drifts by
more than the bounds from one minute to the next.  The medians of the
times as measured are printed with the metrics.

A failed operation (exception, non-zero exit, a report that is not ok,
any mismatch with the expected values of workloads.py, or an output that
differs between passes) counts in ``failed``; failed_op_ratio is
printed with its counts.  With ``--trace 1`` the run makes one untraced
and one traced pass, checks that their outputs agree, and reports the
per-layer metrics of tracer.py, the inclusive seconds of each operation
(untraced pass, ``cli.op.<name>.s``, zero for operations of other
workloads) and the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 only when
every operation passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PASSES = 3              # a median, also where a pass takes 15 s
DEADLINE_S = 170.0          # a run must end within 180 s


def spawn(workload: str, seed: int, mode: str, workdir: str,
          timeout: float) -> dict | None:
    """Run one worker process; its result, or None if it failed."""
    os.makedirs(workdir)
    argv = [sys.executable, os.path.join(HERE, "worker.py"), workload,
            str(seed), mode, workdir]
    try:
        proc = subprocess.run(argv + [repr(time.perf_counter())],
                              stdout=sys.stderr, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        print(f"{mode} process of {workload} timed out", file=sys.stderr)
        return None
    path = os.path.join(workdir, "result.json")
    if proc.returncode != 0 or not os.path.exists(path):
        print(f"{mode} process of {workload} exited with "
              f"{proc.returncode}", file=sys.stderr)
        return None
    with open(path) as fh:
        return json.load(fh)


def tally(passes: list, n_ops: int) -> tuple[int, int, list]:
    """Attempted and failed operations over the passes, with messages."""
    attempted = failed = 0
    messages = []
    digests: dict = {}
    for k, res in enumerate(passes):
        attempted += n_ops
        if res is None:
            failed += n_ops
            messages.append(f"pass {k}: process failed")
            continue
        for op in res["ops"]:
            if k == 0:
                messages += [f"note: {op['name']}: {note}"
                             for note in op.get("notes", [])]
            problems = list(op["problems"])
            first = digests.setdefault(op["name"], op.get("digest"))
            if "digest" in op and op["digest"] != first:
                problems.append("output differs from the first pass")
            if problems:
                failed += 1
                messages.append(f"pass {k}: {op['name']}: "
                                + "; ".join(problems))
    return attempted, failed, messages


def run(workload: str, seed: int, seconds: float, trace: bool,
        workdir: str) -> tuple[dict, list, int, int]:
    """Metrics, messages, attempted and failed counts of one run."""
    began = time.perf_counter()

    def left() -> float:
        return DEADLINE_S - (time.perf_counter() - began)

    def one(mode: str) -> dict | None:
        return spawn(workload, seed, mode, os.path.join(
            workdir, f"{len(os.listdir(workdir))}-{mode}"), left())

    n_ops = len(workloads.operations(workload, ""))
    if trace:
        plain, traced = one("plain"), one("traced")
        attempted, failed, messages = tally([plain, traced], n_ops)
        if plain is None or traced is None:
            return {}, messages, attempted, failed
        os.replace(os.path.join(workdir, "1-traced", "spans.jsonl"),
                   workdir + ".spans.jsonl")
        metrics = {name: (value, tracer.metric_units()[name])
                   for name, value in traced["layers"].items()}
        seconds_of = {op["name"]: op["seconds"] for op in plain["ops"]}
        for name in workloads.op_names():
            metrics[f"cli.op.{name}.s"] = (seconds_of.get(name, 0.0), "s")
        metrics["trace.overhead_s"] = (
            sum(op["seconds"] for op in traced["ops"])
            - sum(op["seconds"] for op in plain["ops"]), "s")
        messages.append(f"traced pass recorded {traced['spans']} spans")
        return metrics, messages, attempted, failed

    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(one("pass"))
        took = time.perf_counter() - t0
        used = time.perf_counter() - start
        if passes[-1] is None or took > left():
            break
        if len(passes) >= MIN_PASSES and used + took > seconds:
            break
    attempted, failed, messages = tally(passes, n_ops)
    done = [p for p in passes if p is not None]
    if not done:
        return {}, messages, attempted, failed
    metrics = {
        "setup_s": (statistics.median(p["setup_ref_s"] for p in done), "s"),
        "wall_s": (statistics.median(
            sum(op["ref_seconds"] for op in p["ops"]) for p in done), "s"),
        "peak_rss_mb": (statistics.median(
            p["peak_rss_mb"] for p in done), "MB"),
    }
    measured_setup = statistics.median(p["setup_s"] for p in done)
    measured_wall = statistics.median(
        sum(op["seconds"] for op in p["ops"]) for p in done)
    messages.append(f"{len(done)} passes; as measured, probe included: "
                    f"setup {measured_setup:.4f} s, wall {measured_wall:.4f} s")
    return metrics, messages, attempted, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "bisetblocks", "cli.py")):
        print("run from the root of a bisetblocks checkout: "
              "src/bisetblocks/cli.py not found", file=sys.stderr)
        return 2
    workdir = os.path.join(root, ".perfbench_work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    metrics, messages, attempted, failed = run(
        args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    shutil.rmtree(workdir)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"python {platform.python_version()}  nproc {len(os.sched_getaffinity(0))}")
    for line in messages:
        print(f"  {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<48s} {value:>14.6g} {unit}")
    print(f"{'failed_op_ratio':<48s} {failed / max(attempted, 1):>14.6g} "
          f"({failed} of {attempted} operations)")
    correct = failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
