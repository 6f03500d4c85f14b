"""Wavefront OBJ export of sampled ruled surfaces.

Vertices are the lattice points r(s_i, v_j), written row-major in s then v,
with the Minkowski coordinates emitted as Euclidean triples.  Output is
deterministic: identical inputs give byte-identical files.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading

import numpy as np

from .surface import RuledSurfaceGrid

#: Vertices (and faces) formatted per write; bounds the Python objects alive
#: at once, per process, to a few blocks whatever the lattice size.
_BLOCK = 4096

#: Smallest lattice, in vertices, that two processes format.  A fork round
#: trip takes about 1.4 ms on a 2-vCPU VM and one block 4 to 10 ms, so a
#: smaller lattice gains too little from the second core to pay for it.
_FORK_MIN_POINTS = 2 * _BLOCK

#: Share of the vertices the calling process formats.  The forked child
#: formats the rest and every face; a face costs 0.2 to 0.35 of a vertex,
#: and 0.6 beat 0.55 in every measured pair.
_PARENT_SHARE = 0.6


def export_mesh(
    surface: RuledSurfaceGrid,
    v_range: tuple[float, float],
    v_samples: int,
    path,
    comment: str = "timelike ruled surface",
) -> str:
    """Write the (s, v) lattice as an OBJ quad mesh and return the path.

    ``comment`` goes on the leading # line; the second comment line warns
    that a viewer measures Euclidean, not Lorentzian, distances.  Vertex
    ``i * v_samples + j`` (0-based) is ``k(s_i) + v_j q(s_i)``; the lattice is
    formatted ``_BLOCK`` flat indices at a time, one ``%`` per block.  A
    ``v_range`` that overflows a vertex raises ValueError, writing nothing.

    The text is formatted by two processes when this one may run on 2 or
    more CPUs, runs no other thread, and the lattice has at least
    ``_FORK_MIN_POINTS`` vertices; otherwise by this process alone.  See
    ``_write_forked``.  The bytes are the same either way.
    """
    if v_samples < 2:
        raise ValueError("v_samples must be at least 2")
    v_min, v_max = float(v_range[0]), float(v_range[1])
    k, q = surface.directrix.k, surface.q
    with np.errstate(over="ignore", invalid="ignore"):
        vs = v_min + (v_max - v_min) * np.arange(v_samples) / (v_samples - 1)
        # each vertex coordinate is monotone in v, so the end columns bound the lattice
        ends = k[:, None] + vs[[0, -1], None] * q[:, None]
    if not (np.isfinite(vs).all() and np.isfinite(ends).all()):
        raise ValueError("v_range puts mesh vertices beyond the float range")

    n_s = surface.n_samples
    n_points, n_faces = n_s * v_samples, (n_s - 1) * (v_samples - 1)
    path = os.fspath(path)
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# {comment}\n# coordinates: (x1, x2, x3), x1 timelike; viewer distances are Euclidean\n")
        if n_points >= _FORK_MIN_POINTS and _two_cpus() and threading.active_count() == 1:
            cut = round(_PARENT_SHARE * n_points / _BLOCK) * _BLOCK
            _write_forked(fh, os.path.dirname(path) or ".", k, q, vs, cut, n_points, n_faces)
        else:
            _write_lines(fh, k, q, vs, range(n_points), range(n_faces))
    return path


def _two_cpus() -> bool:
    """Whether this process may run on at least two CPUs."""
    return hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2


def _write_forked(fh, tmp_dir: str, k, q, vs, cut: int, n_points: int, n_faces: int) -> None:
    """Format vertices below ``cut`` onto ``fh`` while a forked child formats the rest.

    The child writes the vertices from ``cut`` on and every face into an
    unnamed temporary file in ``tmp_dir``; ``fh`` gets that file's bytes
    once the child exits cleanly.  If the temporary file cannot be made, the
    fork fails or the child exits non-zero, this process formats the
    child's part itself, so any error is raised here with its usual class
    and path.
    """
    tail, faces = range(cut, n_points), range(n_faces)
    try:
        tmp = tempfile.TemporaryFile(dir=tmp_dir)
    except OSError:  # an existing output in a directory that takes no new file
        _write_lines(fh, k, q, vs, range(n_points), faces)
        return
    with tmp:
        fh.flush()
        try:
            pid = os.fork()
        except OSError:  # out of processes or memory
            pid = None
        if pid == 0:
            code = 1
            try:
                with open(tmp.fileno(), "w", newline="\n", closefd=False) as out:
                    _write_lines(out, k, q, vs, tail, faces)
                code = 0
            finally:
                os._exit(code)
        try:
            _write_lines(fh, k, q, vs, range(cut), range(0))
        finally:
            status = 1 if pid is None else os.waitpid(pid, 0)[1]
        if status == 0:
            fh.flush()
            tmp.seek(0)
            shutil.copyfileobj(tmp, fh.buffer)
        else:
            _write_lines(fh, k, q, vs, tail, faces)


def _write_lines(fh, k: np.ndarray, q: np.ndarray, vs: np.ndarray, points: range, faces: range) -> None:
    """Format the vertices with flat indices in ``points`` and the faces in ``faces`` onto ``fh``.

    The one routine that formats OBJ text, ``_BLOCK`` lines per write.
    """
    v_samples = len(vs)
    for lo in range(points.start, points.stop, _BLOCK):
        i, j = np.divmod(np.arange(lo, min(lo + _BLOCK, points.stop)), v_samples)
        p = k[i] + vs[j, None] * q[i]
        fh.write(("v %.17g %.17g %.17g\n" * len(p)) % tuple(p.ravel().tolist()))
    for lo in range(faces.start, faces.stop, _BLOCK):
        i, j = np.divmod(np.arange(lo, min(lo + _BLOCK, faces.stop)), v_samples - 1)
        a = i * v_samples + j + 1
        b = a + v_samples
        fh.write(("f %d %d %d %d\n" * len(a)) % tuple(np.stack([a, b, b + 1, a + 1], axis=1).ravel().tolist()))
