"""Lorentzian vector algebra in Minkowski 3-space with signature (-, +, +).

Vectors are plain numpy arrays of shape ``(..., 3)``; index 0 is the timelike
axis.  All functions broadcast over leading axes, so a whole grid of samples
can be processed in one call.
"""

from __future__ import annotations

import enum

import numpy as np

#: Default classification tolerance.  The algebra is exact only in exact
#: arithmetic; every sign test here is taken within an explicit eps.
DEFAULT_EPS = 1e-9

LVec3 = np.ndarray


def lvec(x1: float, x2: float, x3: float) -> LVec3:
    """Build a 3-vector; x1 is the coefficient of the timelike axis."""
    return np.array([x1, x2, x3], dtype=float)


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


class CausalClass(enum.Enum):
    SPACELIKE = "spacelike"
    TIMELIKE_FUTURE = "timelike_future"
    TIMELIKE_PAST = "timelike_past"
    NULL = "null"
    ZERO = "zero"


def causal_character(v: LVec3, eps: float = DEFAULT_EPS) -> CausalClass:
    """Classify a single vector by the sign of <v,v> within eps.

    Timelike vectors split further by the sign of the first component
    (future pointing when x1 > 0).  A vector with every component within
    eps of zero is ZERO, not NULL.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError("causal_character classifies a single 3-vector")
    if np.max(np.abs(v)) < eps:
        return CausalClass.ZERO
    q = float(lorentz_inner(v, v))
    if abs(q) <= eps:
        return CausalClass.NULL
    if q > 0.0:
        return CausalClass.SPACELIKE
    return CausalClass.TIMELIKE_FUTURE if v[0] > 0.0 else CausalClass.TIMELIKE_PAST
