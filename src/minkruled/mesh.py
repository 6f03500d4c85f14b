"""Wavefront OBJ export of sampled ruled surfaces.

Vertices are the lattice points r(s_i, v_j), written row-major in s then v,
with the Minkowski coordinates emitted as Euclidean triples.  Output is
deterministic: identical inputs give byte-identical files.  The text of
each block of vertices and faces comes from one ``text.lines`` call, which
formats whole numpy arrays with the bytes of ``%.17g`` and ``%d``.
"""

from __future__ import annotations

import os

import numpy as np

from . import text
from .surface import RuledSurfaceGrid

#: Vertices (and faces) formatted per write; bounds the arrays alive at
#: once to a few blocks whatever the lattice size.
_BLOCK = 4096


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
    formatted ``_BLOCK`` flat indices at a time, one ``text.lines`` call per
    block.  A ``v_range`` that overflows a vertex raises ValueError, writing
    nothing.
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

    n_points = surface.n_samples * v_samples
    n_faces = (surface.n_samples - 1) * (v_samples - 1)
    path = os.fspath(path)
    with open(path, "wb") as fh:
        fh.write(f"# {comment}\n# coordinates: (x1, x2, x3), x1 timelike; viewer distances are Euclidean\n".encode())
        for lo in range(0, n_points, _BLOCK):
            i, j = np.divmod(np.arange(lo, min(lo + _BLOCK, n_points)), v_samples)
            fh.write(text.lines([k[i] + vs[j, None] * q[i]], [b"v ", b" ", b" ", b"\n"]))
        for lo in range(0, n_faces, _BLOCK):
            i, j = np.divmod(np.arange(lo, min(lo + _BLOCK, n_faces)), v_samples - 1)
            a = i * v_samples + j + 1
            b = a + v_samples
            fh.write(text.lines([np.stack([a, b, b + 1, a + 1], axis=1)], [b"f ", b" ", b" ", b" ", b"\n"]))
    return path
