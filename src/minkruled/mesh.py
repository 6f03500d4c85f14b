"""Wavefront OBJ export of sampled ruled surfaces.

Vertices are the lattice points r(s_i, v_j), written row-major in s then v,
with the Minkowski coordinates emitted as Euclidean triples.  Output is
deterministic: identical inputs give byte-identical files.
"""

from __future__ import annotations

import os

import numpy as np

from .surface import RuledSurfaceGrid

#: Vertices (and faces) formatted per write; bounds the Python objects alive
#: at once to a few blocks whatever the lattice size.
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
    formatted ``_BLOCK`` flat indices at a time, one ``%`` per block.
    """
    if v_samples < 2:
        raise ValueError("v_samples must be at least 2")
    v_min, v_max = float(v_range[0]), float(v_range[1])
    vs = v_min + (v_max - v_min) * np.arange(v_samples) / (v_samples - 1)

    n_s = surface.n_samples
    n_points, n_faces = n_s * v_samples, (n_s - 1) * (v_samples - 1)
    k = surface.directrix.k
    q = surface.q
    path = os.fspath(path)
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# {comment}\n# coordinates: (x1, x2, x3), x1 timelike; viewer distances are Euclidean\n")
        for lo in range(0, n_points, _BLOCK):
            i, j = np.divmod(np.arange(lo, min(lo + _BLOCK, n_points)), v_samples)
            p = k[i] + vs[j, None] * q[i]
            fh.write(("v %.17g %.17g %.17g\n" * len(p)) % tuple(p.ravel().tolist()))
        for lo in range(0, n_faces, _BLOCK):
            i, j = np.divmod(np.arange(lo, min(lo + _BLOCK, n_faces)), v_samples - 1)
            a = i * v_samples + j + 1
            b = a + v_samples
            fh.write(("f %d %d %d %d\n" * len(a)) % tuple(np.stack([a, b, b + 1, a + 1], axis=1).ravel().tolist()))
    return path
