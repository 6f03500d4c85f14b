"""A list of items run on this process and, when it pays, a forked child.

The package's one fork, used by the seed sweep (``pipeline.sweep_grid``).
The first item runs here and is timed, and a child is forked only if half
of the remaining items would take longer at that rate than the child's
fixed cost.  Both processes then take indices from one queue, a pipe, so a
child slowed by other load on the machine just takes fewer.  The child runs
on the CPUs its parent is not on, writes its results into an unnamed
temporary file in the system temp directory and leaves through
``os._exit``, so it never flushes the stdio buffers it inherited or runs
exit handlers.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import select
import tempfile
import threading
import time

#: The wall seconds a child adds to a sweep beyond taking half of its
#: seeds: the fork, the pages both processes copy on their first writes
#: after it, the pickled results, the child's exit and the wait for its
#: last seed.  On a 2-vCPU Xeon VM, sweeps of 6 and 12 seeds of cylinder,
#: developable and general_roundtrip at h = 1e-3 took 7.7 to 10.6 ms
#: (median 9.2) longer forked than one process less half of the seeds after
#: the first (medians of 30 runs each way); a child that ran no seed cost
#: 3.8 to 6.5 ms.
_FORK_COST_S = 0.009


def map_items(fn, items) -> list:
    """``[fn(x) for x in items]``, in order; part of it may run in a forked child.

    ``fn(items[0])`` runs here first and is timed.  A child is forked only
    if half of the remaining items would take longer than ``_FORK_COST_S``
    at that rate, this process may run on 2 or more CPUs and runs no other
    thread (a fork copies only the calling thread), an unnamed temporary
    file can be made and the fork succeeds.  This process then runs every
    index whose result the child did not return, so an error, the child's
    too, is raised here with its usual class.  The child is reaped before
    this returns or raises.
    """
    items = list(items)
    if not items:
        return []
    start = time.perf_counter()
    results = {0: fn(items[0])}
    t0 = time.perf_counter() - start
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
    if (len(items) - 1) * t0 / 2 > _FORK_COST_S and len(cpus) >= 2 and threading.active_count() == 1:
        _run_with_child(fn, items, results, cpus)
    return [results[i] if i in results else fn(items[i]) for i in range(len(items))]


def _run_with_child(fn, items, results, cpus) -> None:
    """Run the items after the first here and in a forked child; put into ``results`` what finished.

    The indices are queued before the fork in one write of at most
    PIPE_BUF bytes, which never blocks: 4-byte records, each naming a run
    of ``chunk`` consecutive indices.  Each process reads one record at a
    time until the queue is empty.  The child runs on ``cpus`` other than
    the one this process last ran on: where the kernel does not balance
    load across CPUs (a cpuset with load balancing off), a child otherwise
    stays on its parent's CPU and each runs at half speed.
    """
    try:
        out = tempfile.TemporaryFile()
    except OSError:  # a temp directory that takes no new file
        return
    n = len(items)
    others = cpus - {_last_cpu()}
    chunk = -(-(n - 1) // (select.PIPE_BUF // 4))
    with out:
        queue, end = os.pipe()
        try:
            try:
                os.write(end, b"".join(i.to_bytes(4, "little") for i in range(1, n, chunk)))
            finally:
                os.close(end)
            try:
                pid = os.fork()
            except OSError:  # out of processes or memory
                pid = None
            if pid == 0:
                code = 1
                try:
                    with contextlib.suppress(OSError):  # else the child runs where the kernel put it
                        os.sched_setaffinity(0, others)
                    pickle.dump([(i, fn(items[i])) for i in _taken(queue, chunk, n)], out)
                    out.flush()
                    code = 0
                finally:
                    os._exit(code)
            try:
                for i in _taken(queue, chunk, n):
                    results[i] = fn(items[i])
            finally:
                status = None if pid is None else os.waitpid(pid, 0)[1]
            if status == 0:
                out.seek(0)
                results.update(pickle.load(out))
        finally:
            os.close(queue)


def _last_cpu() -> int | None:
    """The CPU this process last ran on (Linux), or None."""
    try:
        with open("/proc/self/stat", "rb") as fh:
            return int(fh.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


def _taken(queue: int, chunk: int, n: int):
    """The indices this process takes from ``queue``, a record at a time, until it is empty."""
    while record := os.read(queue, 4):
        first = int.from_bytes(record, "little")
        yield from range(first, min(first + chunk, n))
