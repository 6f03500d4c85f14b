"""Part of a job done by a forked child while the calling process does the rest.

The package's one fork, used by the seed sweep (``pipeline.sweep_grid``).
The child writes its part into an unnamed temporary file and leaves
through ``os._exit``, so it never flushes the stdio buffers it inherited
or runs exit handlers.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
import threading


@contextlib.contextmanager
def child_part(run, *, work: int, min_work: int, tmp_dir: str):
    """Run ``run(out)`` in a forked child while the ``with`` body runs here.

    ``out`` is a binary unnamed temporary file in ``tmp_dir``.  The body
    gets ``join``, which waits for the child and returns ``out``, rewound,
    if the child exited cleanly, else None: then the caller does the
    child's part itself, so every error is raised here with its usual
    class.  There is no child, and ``join`` returns None at once, unless
    ``work >= min_work``, this process may run on 2 or more CPUs and runs
    no other thread (a fork copies only the calling thread), the temporary
    file can be made and the fork succeeds.  Leaving the ``with`` reaps the
    child, also on an error.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if work < min_work or cpus < 2 or threading.active_count() != 1:
        yield lambda: None
        return
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
