"""Independent jobs run on every CPU this process may use.

`run(jobs, order)` gives each job, a callable without arguments whose
result `marshal` can write, to one of `cpus()` workers: this process and
one forked child for each further worker.  The job indices wait in a
pipe, two bytes each, in the given order; each worker reads one at a
time, so a worker that is done claims the next job.  A child sends each
result back as one `marshal` record, flushed as soon as it is made, and
leaves by `os._exit`.  So a child that dies costs only the job it was
running, and no child returns into the caller or outlives `run`.
"""

from __future__ import annotations

import marshal
import os
import sys

# two-byte claims: every claim of a run fits in one page, the smallest
# pipe buffer Linux makes, so writing them all at once never blocks
MAX_JOBS = 2048


def cpus() -> int:
    """The number of workers `run` may use: the CPUs this process may run
    on, or one where it cannot fork, or where another thread runs (a child
    forked from a threaded process can inherit a lock no thread releases)."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    threading = sys.modules.get("threading")
    if threading is not None and threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def run(jobs, order) -> dict:
    """{index: result} of the jobs, claimed in the given order by `cpus()`
    workers, never more workers than jobs.  A job whose worker died has no
    result."""
    done: dict = {}
    count = min(cpus(), len(jobs))
    if count < 2 or len(jobs) > MAX_JOBS:
        _work(jobs, order, done.__setitem__)
        return done
    # what is buffered now would otherwise be written by every child too
    sys.stdout.flush()
    sys.stderr.flush()
    claim_r, claim_w = os.pipe()
    try:
        os.write(claim_w, b"".join(i.to_bytes(2, "big") for i in order))
    finally:
        os.close(claim_w)
    children = []
    try:
        for _ in range(count - 1):
            result_r, result_w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                # no process to spare: the workers already started and
                # this one share the claims
                os.close(result_r)
                os.close(result_w)
                break
            if pid == 0:
                _child(jobs, claim_r, result_w)
            os.close(result_w)
            children.append((pid, result_r))
        _work(jobs, _claims(claim_r), done.__setitem__)
    finally:
        os.close(claim_r)
        # read every pipe before waiting: a child blocked on a full pipe
        # would never exit
        for _, result_r in children:
            with os.fdopen(result_r, "rb") as results:
                done.update(_read_results(results))
        for pid, _ in children:
            os.waitpid(pid, 0)
    return done


def _work(jobs, claims, report) -> None:
    """The loop every worker runs: run each claimed job and report it."""
    for index in claims:
        report(index, jobs[index]())


def _claims(fd: int):
    """Job indices read from the claim pipe, one claim per read, until it
    is empty; workers share the pipe, so each claim goes to one worker."""
    while True:
        claim = os.read(fd, 2)
        if len(claim) < 2:
            return
        yield int.from_bytes(claim, "big")


def _child(jobs, claim_fd: int, result_fd: int) -> None:
    """A forked worker: it sends each claimed job's result as one marshal
    record, and leaves by os._exit, never returning into its caller."""
    status = 1
    try:
        with os.fdopen(result_fd, "wb") as out:
            def report(index, result):
                marshal.dump((index, result), out)
                out.flush()
            _work(jobs, _claims(claim_fd), report)
        status = 0
    finally:
        os._exit(status)


def _read_results(stream):
    """(index, result) records of one worker, up to its end or to a record
    cut short by its death."""
    while True:
        try:
            index, result = marshal.load(stream)
        except (EOFError, ValueError, TypeError):
            return
        yield index, result
