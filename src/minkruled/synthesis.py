"""Determining systems: synthesize angle tracks that realize prescribed invariants.

Along a fixed timelike directrix, a ruled surface is pinned down by the angle
pair (theta, phi).  Prescribing invariants turns into a coupled first-order
system for that pair; one system per prescription:

* GENERAL_DV0     theta' = v0 sinh(theta)/(d^2+v0^2) + k1 sin(phi)
                  phi'   = -k2 + k1 coth(theta) cos(phi) - d/(d^2+v0^2)
* STRICTION_LINE  v0 = 0:            theta' = k1 sin(phi)
                  phi' = -1/d - k2 + k1 coth(theta) cos(phi)
* CURVATURE_ANGLE prescribed (n, mu) with d = n sin^2(mu), v0 = n sin(mu)cos(mu):
                  theta' = (1/n) sinh(theta) cot(mu) + k1 sin(phi)
                  phi'   = -1/n - k2 + k1 coth(theta) cos(phi)
* DEVELOPABLE     d = 0:             theta' = sinh(theta)/v0 + k1 sin(phi)
                  phi' = -k2 + k1 coth(theta) cos(phi)
* CYLINDER        q' = 0:            theta' = k1 sin(phi)
                  phi' = -k2 + k1 coth(theta) cos(phi)
* ASYMPTOTIC_LINE phi pinned at pi/2, n forced to -1/k2 (constant k2 != 0):
                  theta' = (1/n) sinh(theta) cot(mu) + k1
* LINE_OF_CURVATURE  no ODE: phi(s) = -integral(k2) + C by quadrature and
                  theta(s) = artanh(n k1 cos(phi)) pointwise.

The seed (theta0, phi0) is the two-parameter freedom of the solution family.
Integration is fixed-step classical 4th order on the directrix grid.  These
systems can blow up in finite arc length (the sinh terms); integration then
aborts with the failure location instead of clamping, because a clamped
track would describe a surface the systems do not define.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateAngleError,
    DegenerateDenominatorError,
    GridMismatchError,
    IntegrationDivergedError,
    NoSolutionError,
    ParamDomainError,
    PhiSingularError,
    ThetaSingularityError,
    TorsionVanishesError,
)
from .frenet import Constant, CurvatureFn, FrenetCurve, _rk4, as_curvature_fn
from .surface import THETA_MIN, AngleTrack, RuledSurfaceGrid, finite_difference, ruling_from_angles

#: Abort threshold for |theta|; the determining systems blow up in finite s
#: once sinh(theta) dominates, and past this value the surface is numerically
#: meaningless anyway.
THETA_MAX = 50.0

HALF_PI = 0.5 * math.pi

#: Documented default seed grid for sweeps over the solution family.
DEFAULT_THETA0_GRID = (0.25, 0.5, 1.0)
DEFAULT_PHI0_GRID = (0.0, HALF_PI, math.pi, 1.5 * math.pi)


class SystemKind(enum.Enum):
    GENERAL_DV0 = "general_dv0"
    STRICTION_LINE = "striction_line"
    CURVATURE_ANGLE = "curvature_angle"
    DEVELOPABLE = "developable"
    CYLINDER = "cylinder"
    ASYMPTOTIC_LINE = "asymptotic_line"
    LINE_OF_CURVATURE = "line_of_curvature"


#: Parameters each kind consumes (beyond the seed angles).
REQUIRED_PARAMS: dict[SystemKind, tuple[str, ...]] = {
    SystemKind.GENERAL_DV0: ("d", "v0"),
    SystemKind.STRICTION_LINE: ("d",),
    SystemKind.CURVATURE_ANGLE: ("n", "mu"),
    SystemKind.DEVELOPABLE: ("v0",),
    SystemKind.CYLINDER: (),
    SystemKind.ASYMPTOTIC_LINE: ("mu",),
    SystemKind.LINE_OF_CURVATURE: ("n", "C"),
}

#: Kinds whose track comes from integrating an ODE in (theta, phi).
ODE_KINDS = (
    SystemKind.GENERAL_DV0,
    SystemKind.STRICTION_LINE,
    SystemKind.CURVATURE_ANGLE,
    SystemKind.DEVELOPABLE,
    SystemKind.CYLINDER,
)

#: Kinds that start from a theta0 seed (the asymptotic mode integrates theta
#: alone with phi pinned; only the line-of-curvature mode is seedless).
SEEDED_KINDS = ODE_KINDS + (SystemKind.ASYMPTOTIC_LINE,)


@dataclass(frozen=True)
class SynthesisParams:
    """Prescription for one synthesis run.

    d, v0 and n may be constants or functions of arc length; mu, C and the
    seed angles are plain numbers.  Which fields a run needs depends on the
    SystemKind (see REQUIRED_PARAMS); theta0 is ignored by LINE_OF_CURVATURE
    (theta is determined pointwise there) and phi0 by ASYMPTOTIC_LINE (phi
    is pinned at pi/2).
    """

    theta0: float = float("nan")
    phi0: float = 0.0
    d: CurvatureFn | float | None = None
    v0: CurvatureFn | float | None = None
    n: CurvatureFn | float | None = None
    mu: float | None = None
    C: float | None = None
    step: float | None = None

    def d_fn(self) -> CurvatureFn:
        return as_curvature_fn(self.d)

    def v0_fn(self) -> CurvatureFn:
        return as_curvature_fn(self.v0)

    def n_fn(self) -> CurvatureFn:
        return as_curvature_fn(self.n)


def validate_params(kind: SystemKind, params: SynthesisParams) -> None:
    """Check kind-specific domain constraints; raises ParamDomainError."""
    for name in REQUIRED_PARAMS[kind]:
        if getattr(params, name) is None:
            raise ParamDomainError(f"{kind.value} requires params.{name}")
    if kind in SEEDED_KINDS and not math.isfinite(params.theta0):
        raise ParamDomainError(f"{kind.value} requires params.theta0")
    if kind is SystemKind.CURVATURE_ANGLE or kind is SystemKind.ASYMPTOTIC_LINE:
        if abs(math.sin(params.mu)) < 1e-12:
            raise ParamDomainError("sin(mu) = 0 is outside the curvature-angle domain")
    if kind is SystemKind.CURVATURE_ANGLE and _constant_or_none(params.n) is not None:
        if _constant_or_none(params.n) <= 0.0:
            raise ParamDomainError("curvature_angle requires n > 0")
    if kind is SystemKind.LINE_OF_CURVATURE and _constant_or_none(params.n) is None:
        raise ParamDomainError("line_of_curvature takes a constant n")


def _value(p, s: float) -> float:
    return float(p(s)) if isinstance(p, CurvatureFn) else float(p)


def _constant_or_none(p) -> float | None:
    """The value of a genuinely constant parameter, else None."""
    if isinstance(p, Constant):
        return float(p.value)
    if isinstance(p, CurvatureFn) or p is None:
        return None
    return float(p)


def _coth(theta: float) -> float:
    return math.cosh(theta) / math.sinh(theta)


def system_rhs(
    kind: SystemKind,
    theta: float,
    phi: float,
    s: float,
    params: SynthesisParams,
    k1: float,
    k2: float,
    *,
    theta_min: float = THETA_MIN,
    theta_max: float = THETA_MAX,
) -> tuple[float, float]:
    """Right-hand side (theta', phi') of the determining system ``kind``.

    Raises ThetaSingularityError when |theta| < theta_min (every ODE kind
    uses coth(theta) except the pinned asymptotic mode, which is guarded for
    consistency because sinh(theta) = 0 degenerates the ruling as well) and
    IntegrationDivergedError when |theta| > theta_max or either angle is not
    finite.  These are the only state guards of the integration: they run on
    every stage value, so a diverging state cannot overflow sinh mid-step.
    """
    if not (math.isfinite(theta) and math.isfinite(phi)) or abs(theta) > theta_max:
        raise IntegrationDivergedError(
            f"theta = {theta:.6g}, phi = {phi:.6g} at s = {s:.6g}: the prescribed system blows up "
            "in finite arc length on this interval",
            s=s,
        )
    if abs(theta) < theta_min:
        raise ThetaSingularityError(
            f"|theta| = {abs(theta):.3e} below guard {theta_min:.1e} at s = {s:.6g}", s=s
        )
    sh = math.sinh(theta)

    if kind is SystemKind.GENERAL_DV0:
        d = _value(params.d, s)
        v0 = _value(params.v0, s)
        denom = d * d + v0 * v0
        if denom <= 0.0:
            raise ParamDomainError(f"d^2 + v0^2 = 0 at s = {s:.6g}")
        return (
            v0 * sh / denom + k1 * math.sin(phi),
            -k2 + k1 * _coth(theta) * math.cos(phi) - d / denom,
        )

    if kind is SystemKind.STRICTION_LINE:
        d = _value(params.d, s)
        if d == 0.0:
            raise ParamDomainError(f"d = 0 at s = {s:.6g}: striction system divides by d")
        return (
            k1 * math.sin(phi),
            -1.0 / d - k2 + k1 * _coth(theta) * math.cos(phi),
        )

    if kind is SystemKind.CURVATURE_ANGLE:
        n = _value(params.n, s)
        if n == 0.0:
            raise ParamDomainError(f"n = 0 at s = {s:.6g}")
        cot_mu = math.cos(params.mu) / math.sin(params.mu)
        return (
            sh * cot_mu / n + k1 * math.sin(phi),
            -1.0 / n - k2 + k1 * _coth(theta) * math.cos(phi),
        )

    if kind is SystemKind.DEVELOPABLE:
        v0 = _value(params.v0, s)
        if v0 == 0.0:
            raise ParamDomainError(f"v0 = 0 at s = {s:.6g}: developable system divides by v0")
        return (
            sh / v0 + k1 * math.sin(phi),
            -k2 + k1 * _coth(theta) * math.cos(phi),
        )

    if kind is SystemKind.CYLINDER:
        return (
            k1 * math.sin(phi),
            -k2 + k1 * _coth(theta) * math.cos(phi),
        )

    if kind is SystemKind.ASYMPTOTIC_LINE:
        if abs(k2) < 1e-12:
            raise ParamDomainError(f"asymptotic mode needs k2 != 0 (s = {s:.6g})")
        n = -1.0 / k2
        cot_mu = math.cos(params.mu) / math.sin(params.mu)
        return (sh * cot_mu / n + k1, 0.0)

    raise ValueError(f"{kind.value} has no ODE right-hand side; it is built in closed form")


def integrate_system(
    kind: SystemKind,
    params: SynthesisParams,
    directrix: FrenetCurve,
    *,
    theta_min: float = THETA_MIN,
    theta_max: float = THETA_MAX,
) -> AngleTrack:
    """Solve the determining system along the directrix grid.

    ODE kinds run fixed-step 4th-order integration of ``system_rhs``; the
    asymptotic mode integrates theta alone with phi pinned at pi/2; the
    line-of-curvature mode is assembled in closed form.  The returned track
    stores (theta', phi') from the right-hand side at every sample.
    """
    validate_params(kind, params)
    s = directrix.s
    h = directrix.step
    if params.step is not None and abs(params.step - h) > 1e-12 * max(1.0, h):
        raise GridMismatchError(f"params.step = {params.step} but directrix step = {h}")

    if kind is SystemKind.LINE_OF_CURVATURE:
        return _line_of_curvature_track(params, directrix, theta_min=theta_min)

    if kind is SystemKind.ASYMPTOTIC_LINE:
        k2_grid = directrix.k2
        span = float(np.max(k2_grid) - np.min(k2_grid))
        if span > 1e-9 * max(1.0, float(np.max(np.abs(k2_grid)))):
            raise ParamDomainError("asymptotic mode requires constant k2 along the directrix")
        k2_const = float(k2_grid[0])
        if abs(k2_const) < 1e-12:
            raise ParamDomainError("asymptotic mode requires k2 != 0")
        if params.n is not None:
            n_given = _value(params.n, float(s[0]))
            if abs(n_given + 1.0 / k2_const) > 1e-9 * max(1.0, abs(n_given)):
                raise ParamDomainError(
                    f"params.n = {n_given} conflicts with -1/k2 = {-1.0 / k2_const}"
                )

    phi0 = HALF_PI if kind is SystemKind.ASYMPTOTIC_LINE else float(params.phi0)

    def rhs(si: float, c, y: np.ndarray) -> np.ndarray:
        return np.array(
            system_rhs(kind, y[0], y[1], si, params, c[0], c[1], theta_min=theta_min, theta_max=theta_max)
        )

    y, dy = _rk4(rhs, s, np.array([float(params.theta0), phi0]), directrix.curvature_fns())
    theta, phi = y.T.copy()
    theta_p, phi_p = dy.T.copy()
    return AngleTrack(s=s.copy(), theta=theta, phi=phi, theta_prime=theta_p, phi_prime=phi_p, theta_min=theta_min)


def _line_of_curvature_track(params: SynthesisParams, directrix: FrenetCurve, *, theta_min: float) -> AngleTrack:
    s = directrix.s
    _, k2_fn = directrix.curvature_fns()
    phi = line_of_curvature_phi(k2_fn, float(params.C), s)
    n = _constant_or_none(params.n)
    cos_phi = np.cos(phi)
    if float(np.min(np.abs(cos_phi))) < 1e-12:
        i = int(np.argmin(np.abs(cos_phi)))
        raise PhiSingularError(f"cos(phi) = 0 at s = {s[i]:.6g}")
    arg = n * directrix.k1 * cos_phi
    if float(np.max(np.abs(arg))) >= 1.0:
        i = int(np.argmax(np.abs(arg)))
        raise NoSolutionError(f"|n k1 cos(phi)| = {abs(arg[i]):.6g} >= 1 at s = {s[i]:.6g}")
    theta = np.arctanh(arg)
    if float(np.min(np.abs(theta))) < theta_min:
        i = int(np.argmin(np.abs(theta)))
        raise ThetaSingularityError(
            f"|theta| below guard at s = {s[i]:.6g}", s=float(s[i])
        )
    # theta' has no closed form without k1'; second-order differences are
    # enough for the analytic invariants, which tolerate O(h^2) here.
    theta_p = finite_difference(theta, directrix.step)
    phi_p = -np.asarray(directrix.k2, dtype=float)
    return AngleTrack(s=s.copy(), theta=theta, phi=phi, theta_prime=theta_p, phi_prime=phi_p, theta_min=theta_min)


def build_surface(track: AngleTrack, directrix: FrenetCurve) -> RuledSurfaceGrid:
    """Realize the track as a ruling field q_i on the directrix grid."""
    if track.n_samples != directrix.n_samples or not np.allclose(track.s, directrix.s, atol=1e-12):
        raise GridMismatchError("angle track and directrix grids differ")
    q, _, _ = ruling_from_angles(directrix.T, directrix.N, directrix.B, track.theta, track.phi)
    return RuledSurfaceGrid(directrix=directrix, q=q, track=track)


# ---------------------------------------------------------------------------
# special-case helpers
# ---------------------------------------------------------------------------


def geodesic_theta(n: float, k1: float, k2: float) -> float:
    """The unique constant angle tanh(theta) = n k1 / (n k2 + 1).

    This is the fixed point of the curvature-angle system at mu = pi/2 and
    phi = 0, i.e. the one surface of given curvature on which the directrix
    is a geodesic.
    """
    denom = n * k2 + 1.0
    if abs(denom) < 1e-12:
        raise DegenerateDenominatorError("n k2 + 1 = 0")
    x = n * k1 / denom
    if abs(x) >= 1.0:
        raise NoSolutionError(f"|n k1 / (n k2 + 1)| = {abs(x):.6g} >= 1: no real angle")
    return math.atanh(x)


def line_of_curvature_phi(k2, C: float, s_grid: np.ndarray) -> np.ndarray:
    """phi(s) = -cumulative integral of k2 + C on the grid.

    phi' = -k2(s) does not depend on phi, so the 4th-order step reduces to
    a cumulative Simpson sum over the uniform grid.
    """
    k2_fn = as_curvature_fn(k2)
    s = np.asarray(s_grid, dtype=float)
    if s.shape[0] < 2:
        return np.full(s.shape, float(C))
    h = float(s[1] - s[0])
    node = -np.asarray(k2_fn(s), dtype=float)
    mid = -np.asarray(k2_fn(s[:-1] + 0.5 * h), dtype=float)
    return np.cumsum(np.concatenate([[float(C)], (h / 6.0) * (node[:-1] + 4.0 * mid + node[1:])]))


def locus_theta(n: float, k1: float, phi: float) -> float:
    """theta = artanh(n k1 cos(phi)), the line-of-curvature angle relation."""
    c = math.cos(phi)
    if abs(c) < 1e-12:
        raise PhiSingularError("cos(phi) = 0: sec(phi) undefined")
    x = n * k1 * c
    if abs(x) >= 1.0:
        raise NoSolutionError(f"|n k1 cos(phi)| = {abs(x):.6g} >= 1: no real angle")
    return math.atanh(x)


def phi_from_theta_mu(theta: float, mu: float) -> float:
    """phi = atan(-cosh(theta) cot(mu)), principal branch.

    Relates phi and mu when theta is constant and the directrix is a line
    of curvature.
    """
    s = math.sin(mu)
    if abs(s) < 1e-12:
        raise DegenerateAngleError("sin(mu) = 0")
    return math.atan(-math.cosh(theta) * math.cos(mu) / s)


def helix_relation_defect(theta: float, mu: float, curve: FrenetCurve, *, tol: float = 1e-9) -> float:
    """max |k1/k2 - sinh(theta) cot(mu)| over the grid.

    Zero exactly when the directrix is a general helix matching the constant
    angles; the asymptotic-line characterization at constant theta, mu.
    """
    if np.min(np.abs(curve.k2)) < tol:
        raise TorsionVanishesError("k2 is below tolerance somewhere on the grid")
    s = math.sin(mu)
    if abs(s) < 1e-12:
        raise DegenerateAngleError("sin(mu) = 0")
    target = math.sinh(theta) * math.cos(mu) / s
    return float(np.max(np.abs(curve.k1 / curve.k2 - target)))
