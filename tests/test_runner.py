"""`run_checks` spreads the checks' parts over forked workers, and what it
reports does not depend on how many there are.

Every test sets the number of workers through `workers.cpus`, so the
forked path runs on a one-CPU machine too.  A worker that dies costs its
own part a FAIL and nothing else, and no worker outlives `run_checks`,
even when the process that called it raises.
"""

import json
import os
import select
import threading

import pytest

from chowcalc import checks, workers
from chowcalc.cli import main

# how long a probe waits for another worker before it gives up
WAIT_S = 30


@pytest.fixture
def use_workers(monkeypatch):
    """Set the number of workers run_checks uses."""
    def use(n):
        monkeypatch.setattr(workers, "cpus", lambda: n)
    return use


@pytest.fixture
def probe(monkeypatch):
    """Register a check with the given parts under the given name."""
    def register(name, *parts):
        check = checks.Check(name, "1", "dev probe", False, *parts)
        monkeypatch.setitem(checks.REGISTRY, name, check)
        return check
    return register


@pytest.fixture
def sync_pipe():
    """A pipe through which one worker tells another it has started."""
    r, w = os.pipe()
    yield r, w
    os.close(r)
    os.close(w)


def await_byte(fd):
    ready, _, _ = select.select([fd], [], [], WAIT_S)
    if not ready:
        raise TimeoutError("no other worker arrived")
    os.read(fd, 1)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def stripped_report(capsys, seed):
    assert main(["run", "--all", "--slow", "--format", "json",
                 "--seed", str(seed)]) == 0
    doc = json.loads(capsys.readouterr().out)
    for check in doc["checks"]:
        del check["millis"]
    return doc


@pytest.mark.parametrize("seed", [checks.DEFAULT_SEED, 7])
def test_one_worker_and_many_report_the_same(use_workers, capsys, seed):
    use_workers(1)
    one = stripped_report(capsys, seed)
    use_workers(3)
    many = stripped_report(capsys, seed)
    assert_no_child_left()
    assert one == many
    assert one["summary"]["ok"]


def test_a_dying_worker_fails_only_its_own_part(use_workers, probe,
                                                sync_pipe, capsys):
    """Each probe part exits the worker it runs in, unless that is this
    process, where the first probe waits until the child has started one.
    So the child runs the other checks it claims, then exits at its first
    probe, and exactly one part is lost."""
    parent = os.getpid()
    r, w = sync_pipe
    waited = []

    def dies_in_a_child(seed, rec):
        if os.getpid() != parent:
            os.write(w, b"x")
            os._exit(3)
        if not waited:
            await_byte(r)
            waited.append(True)
        rec.claim("ran in the calling process", True)

    names = ["probe-%d" % i for i in range(4)]
    for name in names:
        probe(name, dies_in_a_child)
    use_workers(2)
    others = ["deg-G26-14", "pencil-beta", "gw36-presentation"]
    argv = ["run"] + [a for n in names + others for a in ("--check", n)]
    assert main(argv) == 1
    assert_no_child_left()
    out = capsys.readouterr().out
    assert "summary: 6 passed, 1 failed, 7 total" in out
    assert out.count("    ERROR LostWorker: ") == 1
    failed = [line for line in out.splitlines() if line.startswith("FAIL ")]
    assert len(failed) == 1 and failed[0].split()[1] in names
    for name in others:
        assert "PASS %s (" % name in out


def test_a_raising_part_ends_the_transcript_as_run_check_does(
        use_workers, probe):
    def first(seed, rec):
        rec.expect("first", 1, 1)

    def raises(seed, rec):
        rec.expect("before the error", 2, 2)
        return 1 // 0

    def after(seed, rec):
        rec.expect("after the error", 3, 3)

    check = probe("raises", first, raises, after)
    alone = checks.run_check(check).as_dict()
    use_workers(3)
    results = checks.run_checks(
        checks.select_checks(names=["raises", "deg-G26-14", "pencil-beta"]))
    assert_no_child_left()
    spread = [r.as_dict() for r in results if r.name == "raises"][0]
    del alone["millis"], spread["millis"]
    assert spread == alone
    assert alone["transcript"] == [
        "first = 1", "before the error = 2",
        "ERROR ZeroDivisionError: integer division or modulo by zero"]
    assert alone["status"] == "fail"


def test_claims_past_one_byte(use_workers, probe):
    parts = [lambda seed, rec, i=i: rec.claim("part %d" % i, True)
             for i in range(300)]
    check = probe("many-parts", *parts)
    use_workers(3)
    [result] = checks.run_checks([check])
    assert_no_child_left()
    assert result.passed
    assert result.transcript == ["part %d" % i for i in range(300)]


@pytest.mark.parametrize("n_workers, n_parts", [
    (1, 5), (3, workers.MAX_JOBS + 1)])
def test_without_a_worker_to_spare_every_part_runs_here(
        use_workers, probe, n_workers, n_parts):
    pids = set()

    def where(seed, rec):
        pids.add(os.getpid())
        rec.claim("ran", True)

    use_workers(n_workers)
    [result] = checks.run_checks([probe("here", *[where] * n_parts)])
    assert result.passed and len(result.transcript) == n_parts
    assert pids == {os.getpid()}


def test_a_failed_fork_leaves_the_parts_to_this_process(
        use_workers, probe, monkeypatch):
    def no_process(*args):
        raise BlockingIOError("no process to spare")

    monkeypatch.setattr(os, "fork", no_process)
    use_workers(3)
    parts = [lambda seed, rec, i=i: rec.claim("part %d" % i, True)
             for i in range(5)]
    [result] = checks.run_checks([probe("no-fork", *parts)])
    assert result.passed
    assert result.transcript == ["part %d" % i for i in range(5)]


def test_no_worker_outlives_a_caller_that_raises(use_workers, probe,
                                                 sync_pipe):
    """A probe part raises KeyboardInterrupt, which no part's handler
    catches, in this process, and holds each child until it has."""
    parent = os.getpid()
    r, w = sync_pipe

    def interrupts_here(seed, rec):
        if os.getpid() == parent:
            os.write(w, b"x" * 8)
            raise KeyboardInterrupt
        await_byte(r)
        rec.claim("ran in a child", True)

    use_workers(3)
    with pytest.raises(KeyboardInterrupt):
        checks.run_checks([probe("interrupts", *[interrupts_here] * 6)])
    assert_no_child_left()


def test_a_thread_keeps_the_run_in_one_process():
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, args=(WAIT_S,))
    thread.start()
    try:
        assert workers.cpus() == 1
    finally:
        stop.set()
        thread.join(WAIT_S)
    assert not thread.is_alive()
    assert workers.cpus() == len(os.sched_getaffinity(0))
