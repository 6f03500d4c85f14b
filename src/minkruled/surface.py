"""Timelike ruled surfaces r(s, v) = k(s) + v q(s) and their invariants.

A surface is a directrix plus a unit timelike ruling field q(s) on the same
arc-length grid, and nothing else: how the rulings were made is not part of
it.  The invariants are recomputed from nothing but the raw (k_i, q_i)
samples, using central finite differences.

The mixed product used for the distribution parameter is <x cross y, z>
(see ``lorentz.mixed_product``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AllCylindricalError, GridMismatchError, NotUnitTimelikeError
from .frenet import FrenetCurve
from .lorentz import lorentz_inner, mixed_product

#: Cylindrical threshold on <q',q'>; ``invariants_numeric`` scales it by max|q|^2.
CYL_TOL = 1e-12


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------


def finite_difference(values: np.ndarray, h: float) -> np.ndarray:
    """d/ds of uniformly sampled values: central interior, one-sided ends.

    Both stencils are second order, so full-grid derivative arrays are
    available; endpoint rows carry a larger error constant.
    """
    values = np.asarray(values, dtype=float)
    if values.shape[0] < 3:
        raise ValueError("need at least 3 samples for finite differences")
    out = np.empty_like(values)
    out[1:-1] = (values[2:] - values[:-2]) / (2.0 * h)
    out[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * h)
    out[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * h)
    return out


# ---------------------------------------------------------------------------
# data types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RuledSurfaceGrid:
    """Directrix samples plus a unit timelike ruling q at each sample."""

    directrix: FrenetCurve
    q: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        n = self.directrix.n_samples
        if self.q.shape != (n, 3):
            raise GridMismatchError(f"q has shape {self.q.shape}, directrix has {n} samples")
        defect = np.abs(lorentz_inner(self.q, self.q) + 1.0)
        over = np.flatnonzero(~(defect <= 1e-9))  # a NaN defect fails too
        if over.size:
            i, s = int(over[0]), float(self.s[over[0]])
            raise NotUnitTimelikeError(f"|<q,q> + 1| = {defect[i]:.3e} exceeds 1e-9 at s = {s:.6g}", s=s)

    @property
    def s(self) -> np.ndarray:
        return self.directrix.s

    @property
    def n_samples(self) -> int:
        return self.directrix.n_samples

    @property
    def step(self) -> float:
        return self.directrix.step


@dataclass(frozen=True)
class SurfaceInvariants:
    """Per-sample invariants: distribution parameter d, strictional distance
    v0, Gaussian curvature K, Chasles angle mu = atan(v0/d), and n = 1/sqrt(K).

    Samples flagged ``cylindrical`` carry NaN invariants; mu and n are NaN
    where d = 0 (developable samples).
    """

    d: np.ndarray
    v0: np.ndarray
    K: np.ndarray
    mu: np.ndarray
    n: np.ndarray
    qprime_norm: np.ndarray
    cylindrical: np.ndarray


# ---------------------------------------------------------------------------
# closed-form relations between the invariants
# ---------------------------------------------------------------------------


def curvature_relations(d, v0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gaussian curvature, Chasles angle and curvature radius from (d, v0).

        K = d^2 / (d^2 + v0^2)^2,   mu = atan(v0 / d),   n = (d^2 + v0^2) / d

    Broadcasts; NaN where a value is undefined (K at d = v0 = 0, mu and n
    at d = 0).  n = 1/sqrt(K) holds for d > 0.  This mu is the Chasles
    angle, tan(mu) = v0/d; ``dv0_from_n_mu`` takes the complementary angle,
    so for d > 0 it maps (n, pi/2 - mu) back to (d, v0).
    """
    d = np.asarray(d, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    denom = d * d + v0 * v0
    with np.errstate(divide="ignore", invalid="ignore"):
        K = np.where(denom > 0.0, d * d / (denom * denom), np.nan)
        mu = np.where(d != 0.0, np.arctan(v0 / d), np.nan)
        n = np.where(d != 0.0, denom / d, np.nan)
    return K, mu, n


def dv0_from_n_mu(n, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """(d, v0) = (n sin^2(mu), n sin(mu) cos(mu)), the curvature-angle map.

    Broadcasts over ``n``; ``mu`` is one angle, counted modulo pi, with
    tan(mu) = d/v0, the complement of the Chasles angle of
    ``curvature_relations``.  Its caller ``synthesis._from_n_mu`` checks sin(mu) != 0.
    """
    n = np.asarray(n, dtype=float)
    return n * math.sin(mu) ** 2, n * math.sin(mu) * math.cos(mu)


# ---------------------------------------------------------------------------
# invariants from the raw samples
# ---------------------------------------------------------------------------


def invariants_numeric(surface: RuledSurfaceGrid) -> SurfaceInvariants:
    """Invariants recomputed from raw (k_i, q_i) samples only.

    k' and q' come from finite differences at the grid step (one-sided at
    the endpoints); then d = <k' cross q, q'> / <q',q'> and
    v0 = -<k',q'> / <q',q'>.  Samples with <q',q'> below the cylindrical
    tolerance are flagged and carry NaN instead of poisoning the statistics.
    """
    h = surface.step
    q = surface.q
    kp = finite_difference(surface.directrix.k, h)
    qp = finite_difference(q, h)
    qq = lorentz_inner(qp, qp)
    scale = max(1.0, float(np.max(np.abs(q))))
    cylindrical = qq < CYL_TOL * scale * scale
    if bool(np.all(cylindrical)):
        raise AllCylindricalError("every sample is cylindrical; invariants undefined")
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.where(cylindrical, np.nan, mixed_product(kp, q, qp) / qq)
        v0 = np.where(cylindrical, np.nan, -lorentz_inner(kp, qp) / qq)
    K, mu, n = curvature_relations(d, v0)
    return SurfaceInvariants(
        d=d,
        v0=v0,
        K=K,
        mu=mu,
        n=n,
        qprime_norm=np.sqrt(np.abs(qq)),
        cylindrical=cylindrical,
    )
