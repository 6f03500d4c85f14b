"""Timelike ruled surfaces r(s, v) = k(s) + v q(s) and their invariants.

A surface is a directrix plus a unit timelike ruling field q(s) on the same
arc-length grid.  The angle pair (theta, phi) places the ruling in the
moving frame; the invariants are recomputed from nothing but the raw
(k_i, q_i) samples, using central finite differences, so they never look at
the angles the surface was synthesized from.

Conventions: theta is the hyperbolic angle between q and T, phi the spacelike
angle between the surface normal m and N.  The mixed product used for the
distribution parameter is <x cross y, z> (see ``lorentz.mixed_product``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AllCylindricalError,
    GridMismatchError,
    NotUnitTimelikeError,
    ThetaSingularityError,
)
from .frenet import FrenetCurve
from .lorentz import lorentz_inner, mixed_product

#: Guard against the coth(theta) singularity; tracks with |theta| below this
#: are rejected outright rather than clamped.
THETA_MIN = 1e-6

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
class AngleTrack:
    """Sampled solution (theta(s), phi(s)) of a determining system.

    theta must stay clear of 0, where the ruling is the tangent T and the
    surface is singular along the directrix: every sample needs
    |theta| >= THETA_MIN, and all samples need one sign of theta, so a
    track that steps over zero between two samples is rejected at the
    first sample past the crossing.  A track that only touches zero
    between two samples and turns back keeps its sign at every sample, so
    it can still escape both checks.
    """

    s: np.ndarray
    theta: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        for name in ("s", "theta", "phi"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if not all(np.all(np.isfinite(getattr(self, name))) for name in ("s", "theta", "phi")):
            raise ValueError("angle track contains non-finite samples")
        worst = float(np.min(np.abs(self.theta)))
        if worst < THETA_MIN:
            i = int(np.argmin(np.abs(self.theta)))
            raise ThetaSingularityError(
                f"|theta| = {worst:.3e} below guard {THETA_MIN:.1e} at s = {self.s[i]:.6g}",
                s=float(self.s[i]),
            )
        flips = np.flatnonzero((self.theta[1:] < 0.0) != (self.theta[0] < 0.0))
        if flips.size:
            i = int(flips[0]) + 1
            raise ThetaSingularityError(
                f"theta changes sign between s = {self.s[i - 1]:.6g} and s = {self.s[i]:.6g}",
                s=float(self.s[i]),
            )

    @property
    def n_samples(self) -> int:
        return self.s.shape[0]


def require_same_grid(track: AngleTrack, directrix: FrenetCurve) -> None:
    """Raise GridMismatchError unless the track samples the directrix grid.

    An equal grid, the usual case (a track carries a copy of its directrix's),
    skips the tolerance comparison.
    """
    if track.n_samples != directrix.n_samples or not (
        np.array_equal(track.s, directrix.s) or np.allclose(track.s, directrix.s, atol=1e-12)
    ):
        raise GridMismatchError("angle track and directrix grids differ")


@dataclass(frozen=True)
class RuledSurfaceGrid:
    """Directrix samples plus a unit timelike ruling q at each sample."""

    directrix: FrenetCurve
    q: np.ndarray
    track: AngleTrack | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        n = self.directrix.n_samples
        if self.q.shape != (n, 3):
            raise GridMismatchError(f"q has shape {self.q.shape}, directrix has {n} samples")
        worst = float(np.max(np.abs(lorentz_inner(self.q, self.q) + 1.0)))
        if worst > 1e-9:
            raise NotUnitTimelikeError(f"|<q,q> + 1| up to {worst:.3e} exceeds 1e-9")
        if self.track is not None:
            require_same_grid(self.track, self.directrix)

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

    s: np.ndarray
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

    Broadcasts over ``n``; ``mu`` is one angle, with tan(mu) = d/v0, the
    complement of the Chasles angle of ``curvature_relations``.  The domain
    (n > 0, sin(mu) != 0) is checked where a run's parameters enter.
    """
    n = np.asarray(n, dtype=float)
    return n * math.sin(mu) ** 2, n * math.sin(mu) * math.cos(mu)


# ---------------------------------------------------------------------------
# rulings and angles
# ---------------------------------------------------------------------------


def ruling_from_angles(T, N, B, theta, phi):
    """Place a unit timelike ruling in the frame.

    Returns (q, A, m) with A = -sin(phi) N + cos(phi) B lying in the tangent
    plane, q = cosh(theta) T + sinh(theta) A, and the unit surface normal
    m = cos(phi) N + sin(phi) B.  Broadcasts over leading axes.
    """
    T = np.asarray(T, dtype=float)
    N = np.asarray(N, dtype=float)
    B = np.asarray(B, dtype=float)
    sp = np.sin(np.asarray(phi, dtype=float))[..., None]
    cp = np.cos(np.asarray(phi, dtype=float))[..., None]
    sh = np.sinh(np.asarray(theta, dtype=float))[..., None]
    ch = np.cosh(np.asarray(theta, dtype=float))[..., None]
    A = -sp * N + cp * B
    q = ch * T + sh * A
    m = cp * N + sp * B
    return q, A, m


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
        s=surface.s.copy(),
        d=d,
        v0=v0,
        K=K,
        mu=mu,
        n=n,
        qprime_norm=np.sqrt(np.abs(qq)),
        cylindrical=cylindrical,
    )
