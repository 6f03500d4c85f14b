"""Wavefront OBJ export of sampled ruled surfaces.

Vertices are the lattice points r(s_i, v_j), written row-major in s then v,
with the Minkowski coordinates emitted as Euclidean triples.  Output is
deterministic: identical inputs give byte-identical files.  The text of
each block of vertices and faces comes from one ``fill`` of a
``text.LineWriter`` made once per file, which formats whole numpy arrays
with the bytes of ``%.17g`` and ``%d``.  A block holds at most
``text.BLOCK`` vertices or faces, in whole rulings (lattice rows of one
``s_i``) where they fit; a face block formats the indices of its rulings'
vertices once and puts each on up to four faces.
"""

from __future__ import annotations

import os

import numpy as np

from . import text
from .surface import RuledSurfaceGrid

def _blocks(rows: int, cols: int) -> list[tuple[int, int, int, int]]:
    """Row-major ``(lo, hi, c0, c1)`` blocks of a ``rows x cols`` lattice: rows ``lo:hi``, columns ``c0:c1``.

    A block holds as many whole rows as fit in ``text.BLOCK`` cells; a row
    wider than that is split into blocks of ``text.BLOCK`` columns.
    """
    block = text.BLOCK
    per = block // cols
    if per:
        return [(lo, min(lo + per, rows), 0, cols) for lo in range(0, rows, per)]
    return [(i, i + 1, c0, min(c0 + block, cols)) for i in range(rows) for c0 in range(0, cols, block)]


def _largest(blocks) -> int:
    """The cells of the largest of ``blocks``, or 0 when there are none."""
    return max(((hi - lo) * (c1 - c0) for lo, hi, c0, c1 in blocks), default=0)


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
    ``i * v_samples + j`` (0-based) is ``k(s_i) + v_j q(s_i)``, and face
    ``(i, j)`` joins vertices ``(i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)``.
    Vertices and faces are formatted in ``_blocks`` of whole rulings, one
    ``fill`` per block of a vertex and a face writer made here, and each
    vertex block is computed into one array made here; a face block formats
    the 1-based indices of rulings ``lo`` to ``hi`` once (``text.cells``)
    and takes each face's four corners from them.  A lattice of
    ``text.INT_LIMIT`` or more vertices, whose indices ``text`` cannot
    write, or a ``v_range`` that overflows a vertex raises ValueError
    before anything is made or written.
    """
    if v_samples < 2:
        raise ValueError("v_samples must be at least 2")
    n = surface.n_samples
    if n * v_samples >= text.INT_LIMIT:
        raise ValueError(f"a mesh of {n} x {v_samples} vertices has indices of {text.INT_LIMIT} or more")
    v_min, v_max = float(v_range[0]), float(v_range[1])
    k, q = surface.directrix.k, surface.q
    with np.errstate(over="ignore", invalid="ignore"):
        vs = v_min + (v_max - v_min) * np.arange(v_samples) / (v_samples - 1)
        # each vertex coordinate is monotone in v, so the end columns bound the lattice
        ends = k[:, None] + vs[[0, -1], None] * q[:, None]
    if not (np.isfinite(vs).all() and np.isfinite(ends).all()):
        raise ValueError("v_range puts mesh vertices beyond the float range")

    path = os.fspath(path)
    vertex_blocks = _blocks(n, v_samples)
    face_blocks = _blocks(n - 1, v_samples - 1)
    points = np.empty((_largest(vertex_blocks), 3))
    vertices = text.LineWriter([b"v ", b" ", b" ", b"\n"], [text.FLOAT_WIDTH] * 3, len(points))
    index = len(str(n * v_samples))  # the digits of the largest vertex index
    faces = text.LineWriter([b"f ", b" ", b" ", b" ", b"\n"], [index] * 4, _largest(face_blocks))
    with open(path, "wb") as fh:
        fh.write(f"# {comment}\n# coordinates: (x1, x2, x3), x1 timelike; viewer distances are Euclidean\n".encode())
        for lo, hi, c0, c1 in vertex_blocks:
            p = points[: (hi - lo) * (c1 - c0)].reshape(hi - lo, c1 - c0, 3)
            np.multiply(vs[c0:c1, None], q[lo:hi, None], out=p)
            np.add(k[lo:hi, None], p, out=p)  # k + v q, as one expression rounds it
            fh.write(vertices.fill([p.reshape(-1, 3)]))
        for lo, hi, c0, c1 in face_blocks:
            # the vertices of rulings lo..hi, columns c0..c1, as 1-based index cells
            at = text.cells(np.arange(lo, hi + 1)[:, None] * v_samples + np.arange(c0 + 1, c1 + 2))
            corners = (at[:-1, :-1], at[1:, :-1], at[1:, 1:], at[:-1, 1:])
            fh.write(faces.fill([c.ravel() for c in corners]))
    return path
