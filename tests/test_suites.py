"""The law-suite driver: one generator per instance, the workers that
share a suite's instances, and the draws' fallbacks."""

import os
import random
import signal
import sys
import threading
import time
import traceback

import pytest

from bisetblocks import suites
from bisetblocks.groups import product_group
from bisetblocks.namedgroups import named_group
from bisetblocks.suites import (random_product_subgroup, run_suite,
                                worker_count)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _without_time(rep: dict) -> dict:
    return {k: v for k, v in rep.items() if k != "elapsed"}


@pytest.fixture
def probe_law(monkeypatch):
    """Install the suite "probe": instance i records the first value of
    its generator and fails, so every instance leaves a record; the
    law's calls in this process are listed."""
    called = []

    def probe(rng, groups, i):
        called.append(i)
        return {"draw": rng.random()}, [(None, 0, 1)], i

    monkeypatch.setitem(suites.ALL_SUITES, "probe", (probe, 10, ("C2",)))
    return called


@pytest.mark.parametrize("workers", (1, 2, 3, 7))
def test_instance_i_draws_from_its_own_generator(probe_law, workers):
    rep = run_suite("probe", 5, count=7, workers=workers)
    assert [(f["index"], f["draw"]) for f in rep["failures"]] == [
        (i, random.Random(f"probe/5/{i}").random()) for i in range(7)]
    assert rep["double_cosets_seen"] == sum(range(7))
    # this process ran the first of the contiguous ranges only
    assert probe_law == list(range(7 // min(workers, 7)))
    _no_child_left()


def test_one_instance_replays_alone(probe_law):
    failures = run_suite("probe", 5, count=7, workers=2)["failures"]
    replay = run_suite("probe", 5, index=4, workers=2)
    assert (replay["count"], replay["index"]) == (1, 4)
    assert replay["failures"] == [failures[4]]


def _raising_law(rng, groups, i):
    if i in (3, 6):
        raise ValueError(f"instance {i} raises")
    return {}, [(None, 0, 0)], None


@pytest.mark.parametrize("workers", (2, 3))
def test_a_raising_instance_raises_as_in_a_serial_run(monkeypatch, workers):
    # with three workers the ranges are 0-1, 2-4 and 5-7: both children
    # raise, and the parent raises for the lower index as a serial run
    monkeypatch.setitem(suites.ALL_SUITES, "raising",
                        (_raising_law, 8, ("C2",)))
    raised = []
    for n in (1, workers):
        with pytest.raises(ValueError) as info:
            run_suite("raising", 1, workers=n)
        where = traceback.extract_tb(info.value.__traceback__)[-1]
        raised.append((str(info.value), where.filename, where.lineno))
        _no_child_left()
    assert raised[0] == raised[1]
    assert raised[0][0] == "instance 3 raises"


def test_an_interrupted_parent_leaves_no_child(monkeypatch):
    # the children would sleep a minute; the parent's own instance 0 is
    # interrupted at once, and the children are killed and reaped
    def law(rng, groups, i):
        if i == 0:
            raise KeyboardInterrupt
        time.sleep(60)

    monkeypatch.setitem(suites.ALL_SUITES, "interrupted", (law, 4, ("C2",)))
    started = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        run_suite("interrupted", 1, workers=4)
    assert time.perf_counter() - started < 30
    _no_child_left()


def test_the_range_of_a_child_that_dies_runs_in_the_parent(monkeypatch):
    parent = os.getpid()

    def law(rng, groups, i):
        if i == 5 and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return {"draw": rng.random()}, [(None, 0, 1)], None

    monkeypatch.setitem(suites.ALL_SUITES, "dying", (law, 8, ("C2",)))
    serial = run_suite("dying", 3, workers=1)
    assert _without_time(run_suite("dying", 3, workers=2)) == \
        _without_time(serial)
    _no_child_left()


def test_a_failed_fork_closes_its_pipe(monkeypatch, probe_law):
    def refused():
        raise BlockingIOError("no process left")

    open_before = os.listdir("/proc/self/fd")
    monkeypatch.setattr(os, "fork", refused)
    with pytest.raises(BlockingIOError):
        run_suite("probe", 1, count=4, workers=2)
    assert os.listdir("/proc/self/fd") == open_before


def test_a_normal_run_leaves_no_child():
    assert run_suite("coherence", 1, count=8, workers=3)["ok"]
    _no_child_left()


def test_worker_count_is_the_cpus_this_process_may_run_on():
    cpus = os.sched_getaffinity(0)
    watched = sys.gettrace() or sys.getprofile()
    assert worker_count() == (1 if watched else len(cpus))
    os.sched_setaffinity(0, {min(cpus)})
    try:
        assert worker_count() == 1
    finally:
        os.sched_setaffinity(0, cpus)


@pytest.mark.parametrize("install", (sys.setprofile, sys.settrace))
def test_worker_count_is_one_under_a_profiler_or_tracer(install):
    before = sys.getprofile() if install is sys.setprofile else \
        sys.gettrace()
    install(lambda *args: None)
    try:
        assert worker_count() == 1
    finally:
        install(before)


def test_worker_count_is_one_while_another_thread_runs():
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30,))
    thread.start()
    try:
        assert worker_count() == 1
    finally:
        release.set()
        thread.join(30)
    assert not thread.is_alive()


@pytest.mark.parametrize("max_order, full", [(None, True), (6, True),
                                             (5, False)])
def test_random_product_subgroup_falls_back_after_64_rejected_draws(
        max_order, full):
    # max_index=0 rejects every draw: the fallback is the whole product
    # where max_order allows it, and the trivial subgroup where not
    amb = product_group(named_group("C2"), named_group("C3"))
    X = random_product_subgroup(random.Random(1), amb, max_index=0,
                                max_order=max_order)
    assert X.elements == (tuple(range(amb.order)) if full
                          else (amb.identity,))
