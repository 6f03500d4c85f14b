"""Wavefront OBJ export of sampled ruled surfaces.

Vertices are the lattice points r(s_i, v_j), written row-major in s then v,
with the Minkowski coordinates emitted as Euclidean triples.  Output is
deterministic: identical inputs give byte-identical files.
"""

from __future__ import annotations

import os
import shutil

import numpy as np

from .fork import child_part
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
    ``_FORK_MIN_POINTS`` vertices; otherwise by this process alone.  The
    forked child (``fork.child_part``) formats the vertices from the block
    boundary nearest ``_PARENT_SHARE`` of them on, and every face, into a
    temporary file in the output's directory; this process formats the rest
    and then appends that file.  The bytes are the same either way.
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
    cut = min(n_points, round(_PARENT_SHARE * n_points / _BLOCK) * _BLOCK)
    tail, faces = range(cut, n_points), range(n_faces)

    def write_tail(out):
        with open(out.fileno(), "w", newline="\n", closefd=False) as text:
            _write_lines(text, k, q, vs, tail, faces)

    path = os.fspath(path)
    tmp_dir = os.path.dirname(path) or "."
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# {comment}\n# coordinates: (x1, x2, x3), x1 timelike; viewer distances are Euclidean\n")
        with child_part(write_tail, work=n_points, min_work=_FORK_MIN_POINTS, tmp_dir=tmp_dir) as join:
            _write_lines(fh, k, q, vs, range(cut), range(0))
            out = join()
            if out is None:
                _write_lines(fh, k, q, vs, tail, faces)
            else:
                fh.flush()
                shutil.copyfileobj(out, fh.buffer)
    return path


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
