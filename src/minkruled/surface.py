"""Timelike ruled surfaces r(s, v) = k(s) + v q(s) and their invariants.

A surface is a directrix plus a unit timelike ruling field q(s) on the same
arc-length grid.  Every invariant here can be computed two ways:

* analytically, from the angle pair (theta, phi) that places the ruling in
  the moving frame, via the closed-form expression for q' and its norm;
* numerically, from nothing but the raw (k_i, q_i) samples, using central
  finite differences.

The numeric route never looks at angle provenance, which is what makes it an
independent check of the analytic one.

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
    CylindricalRulingError,
    DegenerateAngleError,
    DevelopableRulingError,
    GridMismatchError,
    NotUnitTimelikeError,
    TangentRulingError,
    ThetaSingularityError,
)
from .frenet import FrenetCurve
from .lorentz import lorentz_inner, mixed_product

#: Guard against the coth(theta) singularity; tracks with |theta| below this
#: are rejected outright rather than clamped.
THETA_MIN = 1e-6

#: Cylindrical threshold on <q',q'>; the numeric route scales it by max|q|^2.
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
    """Sampled solution (theta(s), phi(s)) of a determining system."""

    s: np.ndarray
    theta: np.ndarray
    phi: np.ndarray
    theta_prime: np.ndarray
    phi_prime: np.ndarray

    def __post_init__(self):
        for name in ("s", "theta", "phi", "theta_prime", "phi_prime"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if not all(
            np.all(np.isfinite(getattr(self, name)))
            for name in ("s", "theta", "phi", "theta_prime", "phi_prime")
        ):
            raise ValueError("angle track contains non-finite samples")
        worst = float(np.min(np.abs(self.theta)))
        if worst < THETA_MIN:
            i = int(np.argmin(np.abs(self.theta)))
            raise ThetaSingularityError(
                f"|theta| = {worst:.3e} below guard {THETA_MIN:.1e} at s = {self.s[i]:.6g}",
                s=float(self.s[i]),
            )

    @property
    def n_samples(self) -> int:
        return self.s.shape[0]


def require_same_grid(track: AngleTrack, directrix: FrenetCurve) -> None:
    """Raise GridMismatchError unless the track samples the directrix grid."""
    if track.n_samples != directrix.n_samples or not np.allclose(track.s, directrix.s, atol=1e-12):
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


def _relations(d: np.ndarray, v0: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized (K, mu, n) from (d, v0), NaN where undefined."""
    denom = d * d + v0 * v0
    with np.errstate(divide="ignore", invalid="ignore"):
        K = np.where(denom > 0.0, d * d / (denom * denom), np.nan)
        mu = np.where(d != 0.0, np.arctan(v0 / d), np.nan)
        n = np.where(d != 0.0, denom / d, np.nan)
    return K, mu, n


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


def angles_from_ruling(T, N, B, q, *, tol: float = 1e-9) -> tuple[float, float]:
    """Recover (theta, phi) from a unit timelike ruling, phi in [0, 2*pi).

    Inverts ``ruling_from_angles`` for theta > 0.  theta = arccosh(-<q,T>)
    on the nonnegative branch; phi comes from the (N, B) components of the
    normalized A = (q - cosh(theta) T) / sinh(theta).
    """
    q = np.asarray(q, dtype=float)
    qq = float(lorentz_inner(q, q))
    if abs(qq + 1.0) > tol:
        raise NotUnitTimelikeError(f"<q,q> = {qq:.12g}, expected -1")
    c = -float(lorentz_inner(q, T))
    theta = math.acosh(max(c, 1.0))
    sh = math.sinh(theta)
    if sh < tol:
        raise TangentRulingError("theta = 0: ruling equals the tangent, phi undefined")
    A = (q - math.cosh(theta) * np.asarray(T, dtype=float)) / sh
    sin_phi = -float(lorentz_inner(A, N))
    cos_phi = float(lorentz_inner(A, B))
    phi = math.atan2(sin_phi, cos_phi) % (2.0 * math.pi)
    return theta, phi


# ---------------------------------------------------------------------------
# analytic derivative of the ruling
# ---------------------------------------------------------------------------


def qprime_norm_sq(theta, phi, theta_prime, phi_prime, k1, k2):
    """Closed form for <q', q'> in terms of the angles and curvatures."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    tp = np.asarray(theta_prime, dtype=float)
    p = np.asarray(phi_prime, dtype=float) + np.asarray(k2, dtype=float)
    k1 = np.asarray(k1, dtype=float)
    sh, ch = np.sinh(theta), np.cosh(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    out = (
        tp * tp
        - 2.0 * k1 * tp * sp
        + k1 * k1 * (ch * ch * cp * cp + sp * sp)
        - 2.0 * k1 * p * sh * ch * cp
        + p * p * sh * sh
    )
    return float(out) if out.ndim == 0 else out


def q_prime_analytic(T, N, B, theta, phi, theta_prime, phi_prime, k1, k2):
    """q' assembled in ambient coordinates, plus the closed-form <q',q'>.

    The frame components are

        q' = sinh(theta) (theta' - k1 sin(phi)) T
           + (cosh(theta) (k1 - theta' sin(phi)) - (phi'+k2) sinh(theta) cos(phi)) N
           + (theta' cosh(theta) cos(phi) - (phi'+k2) sinh(theta) sin(phi)) B

    and the returned norm_sq must agree with the Lorentz norm-square of the
    assembled vector; the pair is the internal consistency check used by the
    test suite.
    """
    T = np.asarray(T, dtype=float)
    N = np.asarray(N, dtype=float)
    B = np.asarray(B, dtype=float)
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    tp = np.asarray(theta_prime, dtype=float)
    p = np.asarray(phi_prime, dtype=float) + np.asarray(k2, dtype=float)
    k1 = np.asarray(k1, dtype=float)
    sh, ch = np.sinh(theta), np.cosh(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    aT = (sh * (tp - k1 * sp))[..., None]
    aN = (ch * (k1 - tp * sp) - p * sh * cp)[..., None]
    aB = (tp * ch * cp - p * sh * sp)[..., None]
    q_prime = aT * T + aN * N + aB * B
    return q_prime, qprime_norm_sq(theta, phi, tp, np.asarray(phi_prime, dtype=float), k1, k2)


# ---------------------------------------------------------------------------
# invariants, two ways
# ---------------------------------------------------------------------------


def invariants_analytic(track: AngleTrack, directrix: FrenetCurve) -> SurfaceInvariants:
    """Invariants from the angle track via the closed forms

        v0 = sinh(theta) (theta' - k1 sin(phi)) / <q',q'>
        d  = sinh(theta) (k1 cosh(theta) cos(phi) - (phi'+k2) sinh(theta)) / <q',q'>
    """
    require_same_grid(track, directrix)
    k1, k2 = directrix.k1, directrix.k2
    norm_sq = qprime_norm_sq(track.theta, track.phi, track.theta_prime, track.phi_prime, k1, k2)
    if float(np.min(norm_sq)) <= CYL_TOL:
        i = int(np.argmin(norm_sq))
        raise CylindricalRulingError(
            f"<q',q'> = {norm_sq[i]:.3e} at s = {track.s[i]:.6g}: ruling is cylindrical"
        )
    sh = np.sinh(track.theta)
    ch = np.cosh(track.theta)
    p = track.phi_prime + k2
    v0 = sh * (track.theta_prime - k1 * np.sin(track.phi)) / norm_sq
    d = sh * (k1 * ch * np.cos(track.phi) - p * sh) / norm_sq
    K, mu, n = _relations(d, v0)
    return SurfaceInvariants(
        s=track.s.copy(),
        d=d,
        v0=v0,
        K=K,
        mu=mu,
        n=n,
        qprime_norm=np.sqrt(norm_sq),
        cylindrical=np.zeros(track.n_samples, dtype=bool),
    )


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
    K, mu, n = _relations(d, v0)
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


def striction_curve(surface: RuledSurfaceGrid, invariants: SurfaceInvariants) -> np.ndarray:
    """Central points c_i = k_i + v0_i q_i (the striction curve).

    Satisfies <c', q'> = 0 up to finite-difference error on skew surfaces.
    """
    if bool(np.any(invariants.cylindrical)):
        raise CylindricalRulingError("striction curve undefined on cylindrical samples")
    return surface.directrix.k + invariants.v0[:, None] * surface.q


def curvature_relations(d: float, v0: float) -> tuple[float, float, float]:
    """Chasles angle, Gaussian curvature, and curvature radius from (d, v0).

        mu = atan(v0 / d),   K = d^2 / (d^2 + v0^2)^2,   n = (d^2 + v0^2) / d

    n = 1/sqrt(K) holds for d > 0.  Note mu here follows the tangent-plane
    angle convention tan(mu) = v0/d; it is complementary to the angle used
    by ``dv0_from_n_mu`` (see that docstring).
    """
    d = float(d)
    v0 = float(v0)
    if d == 0.0:
        raise DevelopableRulingError("d = 0: K = 0 and n is undefined")
    denom = d * d + v0 * v0
    return math.atan(v0 / d), d * d / (denom * denom), denom / d


def dv0_from_n_mu(n: float, mu: float) -> tuple[float, float]:
    """(d, v0) = (n sin^2(mu), n sin(mu) cos(mu)).

    This is the parameter map used by the curvature-angle determining
    system.  Beware the convention clash: here tan(mu) = d/v0, which is the
    complement of the Chasles angle returned by ``curvature_relations``.
    Both are exposed; neither is silently converted.
    """
    n = float(n)
    mu = float(mu)
    if n <= 0.0:
        raise ValueError("n must be positive")
    s = math.sin(mu)
    if abs(s) < 1e-12:
        raise DegenerateAngleError("sin(mu) = 0 gives d = 0")
    return n * s * s, n * s * math.cos(mu)


def dv0_to_n_mu(d: float, v0: float) -> tuple[float, float]:
    """Inverse of ``dv0_from_n_mu`` for d > 0: n = (d^2+v0^2)/d, mu = atan2(d, v0)."""
    d = float(d)
    v0 = float(v0)
    if d <= 0.0:
        raise DevelopableRulingError("inverse map requires d > 0")
    return (d * d + v0 * v0) / d, math.atan2(d, v0)
