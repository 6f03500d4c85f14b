"""Determining systems: synthesize angle tracks that realize prescribed invariants.

Along a fixed timelike directrix, a ruled surface is pinned down by the angle
pair (theta, phi).  Prescribing the distribution parameter d and the
strictional distance v0 turns into one general first-order system

    theta' = a sinh(theta) + k1 sin(phi)
    phi'   = b - k2 + k1 coth(theta) cos(phi)
    with a = v0/(d^2+v0^2), b = -d/(d^2+v0^2),

and every other prescription is that system with (d, v0) specialised
(``KINDS`` holds one entry per kind):

* GENERAL_DV0        d and v0 as given
* STRICTION_LINE     v0 = 0
* DEVELOPABLE        d = 0
* CURVATURE_ANGLE    (d, v0) = n (sin^2(mu), sin(mu) cos(mu)) from prescribed (n, mu)
* ASYMPTOTIC_LINE    the same with n forced to -1/k2 (constant k2 != 0) and
                     phi pinned at pi/2, so only theta is integrated
* CYLINDER           q' = 0: no (d, v0), a = b = 0
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
from typing import Callable

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
from .frenet import Constant, CurvatureFn, FrenetCurve, as_curvature_fn
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


@dataclass(frozen=True)
class SynthesisParams:
    """Prescription for one synthesis run.

    d, v0 and n may be constants or functions of arc length; mu, C and the
    seed angles are plain numbers.  Which fields a run needs depends on the
    SystemKind (see ``KINDS``); theta0 is ignored by LINE_OF_CURVATURE
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


def param_values(p: CurvatureFn | float, s) -> np.ndarray:
    """A number-or-function parameter evaluated at the arc lengths ``s``."""
    if isinstance(p, CurvatureFn):
        return np.asarray(p(s), dtype=float)
    return np.full(np.shape(s), float(p))


def _general(p: SynthesisParams, s, k2) -> dict[str, np.ndarray]:
    return {"d": param_values(p.d, s), "v0": param_values(p.v0, s)}


def _striction(p: SynthesisParams, s, k2) -> dict[str, np.ndarray]:
    return {"d": param_values(p.d, s), "v0": np.zeros(np.shape(s))}


def _developable(p: SynthesisParams, s, k2) -> dict[str, np.ndarray]:
    return {"d": np.zeros(np.shape(s)), "v0": param_values(p.v0, s)}


def _cylinder(p: SynthesisParams, s, k2) -> dict[str, np.ndarray]:
    return {}


def _from_n_mu(n: np.ndarray, mu: float) -> dict[str, np.ndarray]:
    # K comes from n itself, not from the mapped (d, v0), so a wrong
    # (n, mu) -> (d, v0) map still fails the K check; the raw products stay
    # valid for either sign of n.
    return {"d": n * math.sin(mu) ** 2, "v0": n * math.sin(mu) * math.cos(mu), "K": 1.0 / (n * n)}


def _curvature_angle(p: SynthesisParams, s, k2) -> dict[str, np.ndarray]:
    return {**_from_n_mu(param_values(p.n, s), p.mu), "mu": np.full(np.shape(s), HALF_PI - p.mu)}


def _asymptotic(p: SynthesisParams, s, k2) -> dict[str, np.ndarray]:
    k2 = np.asarray(k2, dtype=float)
    if float(np.min(np.abs(k2))) < 1e-12:
        raise ParamDomainError("asymptotic mode requires k2 != 0")
    return _from_n_mu(-1.0 / k2, p.mu)


def _line_of_curvature(p: SynthesisParams, s, k2) -> dict[str, np.ndarray]:
    n = param_values(p.n, s)
    return {"n": n, "K": 1.0 / (n * n)}


@dataclass(frozen=True)
class KindSpec:
    """What one SystemKind prescribes.

    ``params`` are the parameters it consumes beyond the seed angles.
    ``seeded`` says whether it starts from a theta0 seed; the only seedless
    kind, line of curvature, is also the only one built in closed form
    rather than integrated.  ``prescribe(params, s, k2)`` gives the
    invariants the kind fixes, evaluated at the arc lengths ``s`` with
    torsion ``k2`` there: synthesis reads (d, v0) from it, and verification
    compares every entry with the recomputed invariants, except the
    ``vanishing`` ones, which are prescribed zero and reported as named
    defects instead.
    """

    params: tuple[str, ...]
    seeded: bool
    prescribe: Callable[[SynthesisParams, np.ndarray, np.ndarray], dict[str, np.ndarray]]
    vanishing: tuple[str, ...] = ()


KINDS: dict[SystemKind, KindSpec] = {
    SystemKind.GENERAL_DV0: KindSpec(("d", "v0"), True, _general),
    SystemKind.STRICTION_LINE: KindSpec(("d",), True, _striction, vanishing=("v0",)),
    SystemKind.CURVATURE_ANGLE: KindSpec(("n", "mu"), True, _curvature_angle),
    SystemKind.DEVELOPABLE: KindSpec(("v0",), True, _developable, vanishing=("d",)),
    SystemKind.CYLINDER: KindSpec((), True, _cylinder),
    SystemKind.ASYMPTOTIC_LINE: KindSpec(("mu",), True, _asymptotic),
    SystemKind.LINE_OF_CURVATURE: KindSpec(("n", "C"), False, _line_of_curvature),
}


def validate_params(kind: SystemKind, params: SynthesisParams) -> None:
    """Check kind-specific domain constraints; raises ParamDomainError."""
    spec = KINDS[kind]
    for name in spec.params:
        if getattr(params, name) is None:
            raise ParamDomainError(f"{kind.value} requires params.{name}")
    if spec.seeded and not math.isfinite(params.theta0):
        raise ParamDomainError(f"{kind.value} requires params.theta0")
    if "mu" in spec.params and abs(math.sin(params.mu)) < 1e-12:
        raise ParamDomainError("sin(mu) = 0 is outside the curvature-angle domain")
    n_constant = not isinstance(params.n, CurvatureFn) or isinstance(params.n, Constant)
    if kind is SystemKind.CURVATURE_ANGLE and n_constant and float(param_values(params.n, 0.0)) <= 0.0:
        raise ParamDomainError("curvature_angle requires n > 0")
    if kind is SystemKind.LINE_OF_CURVATURE and not n_constant:
        raise ParamDomainError("line_of_curvature takes a constant n")


def _coefficients(kind: SystemKind, params: SynthesisParams, s, k2) -> np.ndarray:
    """Columns (a, b) of the general system at the arc lengths ``s``.

    A kind that prescribes no (d, v0), the cylinder, has a = b = 0.  Both are
    NaN where d^2 + v0^2 = 0; the right-hand side reports that at the stage
    that reaches it.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        fixed = KINDS[kind].prescribe(params, s, k2)
        if "d" not in fixed:
            return np.zeros((np.size(s), 2))
        d, v0 = fixed["d"], fixed["v0"]
        denom = d * d + v0 * v0
        denom = np.where(denom > 0.0, denom, np.nan)
        return np.column_stack([v0 / denom, -d / denom])


def _rhs(theta: float, phi: float, s: float, c, pinned: bool, theta_min: float, theta_max: float) -> tuple[float, float]:
    """The general system for c = (k1, k2, a, b), with every state guard."""
    k1, k2, a, b = c
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
    if math.isnan(a):
        raise ParamDomainError(f"d^2 + v0^2 = 0 at s = {s:.6g}")
    sh = math.sinh(theta)
    if pinned:
        return a * sh + k1, 0.0
    return a * sh + k1 * math.sin(phi), b - k2 + k1 * (math.cosh(theta) / sh) * math.cos(phi)


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

    Every seeded kind evaluates the general system with its prescribed
    (d, v0); the asymptotic mode keeps phi pinned (phi' = 0).  Raises
    ThetaSingularityError when |theta| < theta_min (coth(theta) blows up;
    the pinned asymptotic mode is guarded for consistency because
    sinh(theta) = 0 degenerates the ruling as well), IntegrationDivergedError
    when |theta| > theta_max or either angle is not finite, and
    ParamDomainError where d^2 + v0^2 = 0.  These are the only state guards
    of the integration: they run on every stage value, so a diverging state
    cannot overflow sinh mid-step.
    """
    if not KINDS[kind].seeded:
        raise ValueError(f"{kind.value} has no ODE right-hand side; it is built in closed form")
    a, b = _coefficients(kind, params, np.array([float(s)]), np.array([float(k2)]))[0]
    pinned = kind is SystemKind.ASYMPTOTIC_LINE
    return _rhs(theta, phi, s, (k1, k2, float(a), float(b)), pinned, theta_min, theta_max)


def integrate_system(
    kind: SystemKind,
    params: SynthesisParams,
    directrix: FrenetCurve,
    *,
    theta_min: float = THETA_MIN,
    theta_max: float = THETA_MAX,
) -> AngleTrack:
    """Solve the determining system along the directrix grid.

    Seeded kinds run fixed-step 4th-order integration of the general system,
    with (a, b) evaluated once at the samples and step midpoints from the
    prescribed (d, v0); the asymptotic mode integrates theta alone with phi
    pinned at pi/2; the line-of-curvature mode is assembled in closed form.
    The returned track stores (theta', phi') from the right-hand side at
    every sample.
    """
    validate_params(kind, params)
    s = directrix.s
    h = directrix.step
    if params.step is not None and abs(params.step - h) > 1e-12 * max(1.0, h):
        raise GridMismatchError(f"params.step = {params.step} but directrix step = {h}")

    if not KINDS[kind].seeded:
        return _line_of_curvature_track(params, directrix, theta_min=theta_min)

    phi0 = float(params.phi0)
    pinned = kind is SystemKind.ASYMPTOTIC_LINE
    if pinned:
        phi0 = HALF_PI
        k2_grid = directrix.k2
        span = float(np.max(k2_grid) - np.min(k2_grid))
        if span > 1e-9 * max(1.0, float(np.max(np.abs(k2_grid)))):
            raise ParamDomainError("asymptotic mode requires constant k2 along the directrix")
        k2_const = float(k2_grid[0])
        if abs(k2_const) < 1e-12:
            raise ParamDomainError("asymptotic mode requires k2 != 0")
        if params.n is not None:
            n_given = float(param_values(params.n, float(s[0])))
            if abs(n_given + 1.0 / k2_const) > 1e-9 * max(1.0, abs(n_given)):
                raise ParamDomainError(
                    f"params.n = {n_given} conflicts with -1/k2 = {-1.0 / k2_const}"
                )

    # RK4 on the two angles as Python floats; (k1, k2, a, b) are evaluated
    # once at the samples and step midpoints, and the derivative at a sample
    # is the first stage of the step leaving it.
    k1_fn, k2_fn = directrix.curvature_fns()
    mid = s[:-1] + 0.5 * h

    def coeffs(x: np.ndarray) -> list:
        k2 = k2_fn(x)
        return np.column_stack([k1_fn(x), k2, _coefficients(kind, params, x, k2)]).tolist()

    c_node, c_mid = coeffs(s), coeffs(mid)
    grid, mid = s.tolist(), mid.tolist()
    t, p = float(params.theta0), phi0
    a1, b1 = _rhs(t, p, grid[0], c_node[0], pinned, theta_min, theta_max)
    rows = [(t, p, a1, b1)]
    for i in range(len(grid) - 1):
        a2, b2 = _rhs(t + (0.5 * h) * a1, p + (0.5 * h) * b1, mid[i], c_mid[i], pinned, theta_min, theta_max)
        a3, b3 = _rhs(t + (0.5 * h) * a2, p + (0.5 * h) * b2, mid[i], c_mid[i], pinned, theta_min, theta_max)
        a4, b4 = _rhs(t + h * a3, p + h * b3, grid[i + 1], c_node[i + 1], pinned, theta_min, theta_max)
        t = t + (h / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        p = p + (h / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        a1, b1 = _rhs(t, p, grid[i + 1], c_node[i + 1], pinned, theta_min, theta_max)
        rows.append((t, p, a1, b1))
    theta, phi, theta_p, phi_p = np.array(rows).T.copy()
    return AngleTrack(s=s.copy(), theta=theta, phi=phi, theta_prime=theta_p, phi_prime=phi_p, theta_min=theta_min)


def _line_of_curvature_track(params: SynthesisParams, directrix: FrenetCurve, *, theta_min: float) -> AngleTrack:
    s = directrix.s
    _, k2_fn = directrix.curvature_fns()
    phi = line_of_curvature_phi(k2_fn, float(params.C), s)
    n = float(param_values(params.n, float(s[0])))
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
