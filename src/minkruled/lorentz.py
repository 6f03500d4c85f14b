"""Lorentzian vector algebra in Minkowski 3-space with signature (-, +, +).

Vectors are plain numpy arrays of shape ``(..., 3)``; index 0 is the timelike
axis.  All functions broadcast over leading axes, so a whole grid of samples
can be processed in one call.
"""

from __future__ import annotations

import numpy as np

LVec3 = np.ndarray


def lorentz_inner(x: LVec3, y: LVec3) -> np.ndarray | float:
    """Indefinite inner product -x1*y1 + x2*y2 + x3*y3."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return -x[..., 0] * y[..., 0] + x[..., 1] * y[..., 1] + x[..., 2] * y[..., 2]


def lorentz_norm(v: LVec3) -> np.ndarray | float:
    """sqrt(|<v,v>|); zero exactly for null and zero vectors."""
    return np.sqrt(np.abs(lorentz_inner(v, v)))


def lorentz_cross(x: LVec3, y: LVec3) -> LVec3:
    """Lorentzian vector product, componentwise.

    Returns (x2*y3 - x3*y2, x1*y3 - x3*y1, x2*y1 - x1*y2).  The result is
    Lorentz-orthogonal to both arguments; note that for the standard basis
    e1 x e2 = -e3 while e2 x e3 = +e1.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.stack(
        [
            x[..., 1] * y[..., 2] - x[..., 2] * y[..., 1],
            x[..., 0] * y[..., 2] - x[..., 2] * y[..., 0],
            x[..., 1] * y[..., 0] - x[..., 0] * y[..., 1],
        ],
        axis=-1,
    )


def mixed_product(x: LVec3, y: LVec3, z: LVec3) -> np.ndarray | float:
    """Mixed product <x cross y, z>.

    This is the triple product consistent with the closed-form distribution
    parameter; it equals minus the coordinate determinant det[x; y; z].
    """
    return lorentz_inner(lorentz_cross(x, y), z)
