"""Part of a job done by a forked child while the calling process does the rest.

The package's one fork, used by the seed sweep (``pipeline.sweep_grid``).
The child writes its part into an unnamed temporary file and leaves
through ``os._exit``, so it never flushes the stdio buffers it inherited
or runs exit handlers.

A child pays only while a second CPU runs it beside this process at full
speed.  On a shared 2-vCPU VM that comes and goes: perfbench ``seed_sweep``
has read 0.113 s forked against 0.130 s in one process, and, on the same
VM at another time, 0.164 s forked against 0.118 to 0.127 s, when a pass
took 321 ms raw forked against 250 ms alone although the child ran half of
the seeds.  So each run that could fork is timed, and the path whose
recent runs of the same key took less wall time per unit of work runs next.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
import os
import tempfile
import threading
import time

#: Timed runs kept for each path, with a child and without.
_KEEP = 8
#: Every _PROBE_EVERY-th run takes the slower path, so that its times follow
#: the machine.
_PROBE_EVERY = 5


def _new_times():
    return {True: collections.deque(maxlen=_KEEP), False: collections.deque(maxlen=_KEEP)}, itertools.count()


#: Keys timed at once; a new key past this many starts the table afresh.
_MAX_KEYS = 64
#: For each key, the wall seconds per unit of work of the last runs with a
#: child (True) and without one (False), and a count of the runs decided on
#: them.  It is shared by the whole process on purpose: what it measures is
#: the machine.
_recent = collections.defaultdict(_new_times)


def _median(xs) -> float:
    return sorted(xs)[len(xs) // 2]


def _use_child(key) -> bool:
    """Whether the next run of ``key`` forks.

    Each path runs once, then the one whose recent times have the lower
    median, except that every _PROBE_EVERY-th run takes the other.
    """
    if key not in _recent and len(_recent) >= _MAX_KEYS:
        _recent.clear()
    times, runs = _recent[key]
    if not times[True] or not times[False]:
        return not times[True]
    faster = _median(times[True]) <= _median(times[False])
    return faster != (next(runs) % _PROBE_EVERY == _PROBE_EVERY - 1)


@contextlib.contextmanager
def child_part(run, *, work: int, min_work: int, tmp_dir: str, key):
    """Run ``run(out)`` in a forked child while the ``with`` body runs here.

    ``out`` is a binary unnamed temporary file in ``tmp_dir``.  The body
    gets ``join``, which waits for the child and returns ``out``, rewound,
    if the child exited cleanly, else None: then the caller does the
    child's part itself, so every error is raised here with its usual
    class.  There is no child, and ``join`` returns None at once, unless
    ``work >= min_work``, this process may run on 2 or more CPUs and runs
    no other thread (a fork copies only the calling thread), recent runs of
    the same ``key`` favour a child (``_use_child``), the temporary file can
    be made and the fork succeeds.  Leaving the ``with`` reaps the child,
    also on an error.  Runs share a ``key`` when their costs per unit of
    work are alike, so that their times can be compared.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if work < min_work or cpus < 2 or threading.active_count() != 1:
        yield lambda: None
        return
    forked = _use_child(key)
    start = time.perf_counter()
    if forked:
        with _child(run, tmp_dir) as join:
            yield join
    else:
        yield lambda: None
    _recent[key][0][forked].append((time.perf_counter() - start) / work)


@contextlib.contextmanager
def _child(run, tmp_dir: str):
    try:
        out = tempfile.TemporaryFile(dir=tmp_dir)
    except OSError:  # a directory that takes no new file
        yield lambda: None
        return
    with out:
        try:
            pid = os.fork()
        except OSError:  # out of processes or memory
            pid = None
        if pid == 0:
            code = 1
            try:
                run(out)
                out.flush()
                code = 0
            finally:
                os._exit(code)
        status = []

        def join():
            if pid is not None and not status:
                status.append(os.waitpid(pid, 0)[1])
            if status != [0]:
                return None
            out.seek(0)
            return out

        try:
            yield join
        finally:
            join()
