"""One pass of a workload in a fresh interpreter.

Usage: worker.py WORKLOAD SEED MODE WORKDIR SPAWNED_AT

MODE is ``pass``, ``traced`` or ``plain``.  SPAWNED_AT is the parent's
``time.perf_counter()`` just before it started this process; on Linux
the clock is shared between processes, so set-up time counts
interpreter start-up.  The pass writes its result to WORKDIR/result.json.

A ``pass`` also samples the speed of the host (SpeedProbe) and reports
every time twice: as measured, and in reference seconds.  ``plain``
and ``traced`` report measured times only.
"""

from __future__ import annotations

import array
import bisect
import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import time

import workloads


PROBE_EVERY_S = 0.05        # wall time between two speed samples
PROBE_MIN_SAMPLES = 5       # samples behind the speed of one stretch
# The duration of SpeedProbe.work that defines a reference second.  On
# the host the baseline was recorded on (2 vCPUs, x86_64, Python
# 3.11.7) work took 1.3 to 1.5 ms inside a pass then, and up to 2.2 ms
# in slower minutes.
REFERENCE_PROBE_S = 0.0015


class SpeedProbe:
    """Samples the speed of the host while a pass runs.

    The processors of a shared host change speed by tens of percent from
    one minute to the next, and the program slows down with them.  From
    its creation until ``stop``, every PROBE_EVERY_S of wall time a
    timer signal runs ``work``, a fixed piece of pure-Python work like
    that of the program (permutations as tuples, dictionary look-ups, a
    walk over a large array, reads of a table held as lists), and records
    how long it took.  ``reference_seconds`` gives the time a stretch of
    the pass, less the probe's own time in it, would have taken where
    ``work`` takes REFERENCE_PROBE_S.
    """

    def __init__(self) -> None:
        t0 = time.perf_counter()
        n = 1 << 19
        # (a*i + c) mod 2^k with a = 1 mod 4 and c odd is one cycle
        self.chain = array.array(
            "I", ((1103515245 * i + 12345) % n for i in range(n)))
        self.table = [[(i * 31 + j) % 251 for j in range(600)]
                      for i in range(600)]
        self.perms = [tuple((i * k + j) % 11 for j in range(11))
                      for k in range(1, 11) for i in range(11)][:28]
        self.index = {p: n for n, p in enumerate(self.perms)}
        self.busy = [(t0, time.perf_counter() - t0)]   # (start, seconds)
        self.samples: list = []                        # (start, seconds)
        for _ in range(PROBE_MIN_SAMPLES):
            self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def work(self) -> int:
        acc = 0
        for a in self.perms:
            for b in self.perms:
                acc += self.index.get(tuple([a[x] for x in b]), -1)
        i, chain = 0, self.chain
        for _ in range(1500):
            i = chain[i]
        x, table = 1, self.table
        for _ in range(6000):
            x = table[x % 600][(x * 7) % 600]
            acc += x
        return acc + i

    def sample(self, *_) -> None:
        t0 = time.perf_counter()
        self.work()
        self.samples.append((t0, time.perf_counter() - t0))
        self.busy.append(self.samples[-1])

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)

    def duration_near(self, t: float) -> float:
        """Median duration of the PROBE_MIN_SAMPLES samples nearest t."""
        j = bisect.bisect([s for s, _ in self.samples], t)
        k = PROBE_MIN_SAMPLES
        near = sorted(self.samples[max(j - k, 0):j + k],
                      key=lambda sd: abs(sd[0] - t))[:k]
        return statistics.median(d for _, d in near)

    def reference_seconds(self, t0: float, t1: float) -> float:
        """Reference seconds of [t0, t1]: each stretch between two probe
        runs is scaled by the speed sampled around it."""
        total, at = 0.0, t0
        for s, d in sorted(self.busy) + [(t1, 0.0)]:
            if t0 <= s <= t1:
                if s > at:
                    total += (s - at) * REFERENCE_PROBE_S / \
                        self.duration_near((at + s) / 2)
                at = max(at, min(s + d, t1))
        return total


def _digest(report: dict) -> str:
    """Hash of a report without its timing fields."""
    def strip(doc):
        if isinstance(doc, dict):
            return {k: strip(v) for k, v in doc.items() if k != "elapsed"}
        if isinstance(doc, list):
            return [strip(v) for v in doc]
        return doc
    text = json.dumps(strip(report), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _notes(name: str, report: dict) -> list:
    """The known defect, which the oracles do not count as a failure."""
    return [f"known defect: replication {r['variant']} disagrees: "
            f"{r['error']}" for r in report.get("replications", [])
            if not r["agrees"] and workloads.known_disagreement(name, r)]


def run_ops(workload: str, seed: int, workdir: str, tracer) -> tuple:
    """Set up and run the operations of a workload.

    Returns the result and the (start, end) of the set-up and of each
    operation, set-up first; set-up ends at the first timed call.
    """
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from bisetblocks.cli import main as cli_main

    if tracer is not None:
        tracer.install()
    for name, text in workloads.input_files(workload, seed).items():
        with open(os.path.join(workdir, name), "w") as fh:
            fh.write(text)
    ops = workloads.operations(workload, workdir)

    spans = [time.perf_counter()]
    result = {"ops": []}
    for op in ops:
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                rc = tracer.call(f"cli.op.{op.name}", cli_main, op.argv)
            else:
                rc = cli_main(op.argv)
            error = None
        except Exception as ex:   # one failed operation, keep going
            rc, error = None, f"{type(ex).__name__}: {ex}"
        t1 = time.perf_counter()
        spans.append((t0, t1))
        entry = {"name": op.name, "seconds": t1 - t0, "problems": []}
        if error is not None:
            entry["problems"].append(error)
        elif rc != 0:
            entry["problems"].append(f"exit code {rc}")
        else:
            with open(op.argv[-1]) as fh:
                report = json.load(fh)
            os.remove(op.argv[-1])
            try:
                entry["problems"] += op.check(report)
            except (KeyError, TypeError) as ex:
                entry["problems"].append(f"malformed report: {ex!r}")
            entry["digest"] = _digest(report)
            entry["notes"] = _notes(op.name, report)
        result["ops"].append(entry)
    return result, spans


def main(argv: list) -> None:
    workload, seed, mode, workdir, spawned_at = argv
    spawned_at = float(spawned_at)
    probe = SpeedProbe() if mode == "pass" else None
    tracer = None
    if mode == "traced":
        from tracer import Tracer
        tracer = Tracer()
    try:
        result, spans = run_ops(workload, int(seed), workdir, tracer)
    finally:
        if probe is not None:
            probe.stop()
    spans[0] = (spawned_at, spans[0])
    result["setup_s"] = spans[0][1] - spawned_at
    if probe is not None:
        result["setup_ref_s"] = probe.reference_seconds(*spans[0])
        for entry, span in zip(result["ops"], spans[1:]):
            entry["ref_seconds"] = probe.reference_seconds(*span)
        result["probe_samples"] = len(probe.samples)
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["spans"] = tracer.write_spans(
            os.path.join(workdir, "spans.jsonl"))
    with open(os.path.join(workdir, "result.json"), "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
