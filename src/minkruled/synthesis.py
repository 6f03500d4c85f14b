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
    IntegrationDivergedError,
    NoSolutionError,
    ParamDomainError,
    PhiSingularError,
    ThetaSingularityError,
    TorsionVanishesError,
)
from .frenet import Constant, CurvatureFn, FrenetCurve, as_curvature_fn
from .surface import (
    THETA_MIN,
    AngleTrack,
    RuledSurfaceGrid,
    dv0_from_n_mu,
    finite_difference,
    require_same_grid,
    ruling_from_angles,
)

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


def _general(p: SynthesisParams, s, k2) -> dict[str, np.ndarray]:
    return {"d": as_curvature_fn(p.d)(s), "v0": as_curvature_fn(p.v0)(s)}


def _striction(p: SynthesisParams, s, k2) -> dict[str, np.ndarray]:
    return {"d": as_curvature_fn(p.d)(s), "v0": np.zeros(np.shape(s))}


def _developable(p: SynthesisParams, s, k2) -> dict[str, np.ndarray]:
    return {"d": np.zeros(np.shape(s)), "v0": as_curvature_fn(p.v0)(s)}


def _cylinder(p: SynthesisParams, s, k2) -> dict[str, np.ndarray]:
    return {}


def _from_n_mu(n: np.ndarray, mu: float) -> dict[str, np.ndarray]:
    # K comes from n itself, not from the mapped (d, v0), so a wrong
    # (n, mu) -> (d, v0) map still fails the K check; the map stays valid
    # for either sign of n.
    d, v0 = dv0_from_n_mu(n, mu)
    with np.errstate(over="ignore"):  # K = 0 for |n| near the float limit
        return {"d": d, "v0": v0, "K": 1.0 / (n * n)}


def _curvature_angle(p: SynthesisParams, s, k2) -> dict[str, np.ndarray]:
    n = as_curvature_fn(p.n)(s)
    off = np.flatnonzero(~(n > 0.0))
    if off.size:
        i = int(off[0])
        raise ParamDomainError(f"curvature_angle requires n > 0; n = {float(n[i]):.6g} at s = {float(s[i]):.6g}")
    return {**_from_n_mu(n, p.mu), "mu": np.full(np.shape(s), HALF_PI - p.mu)}


def _asymptotic(p: SynthesisParams, s, k2) -> dict[str, np.ndarray]:
    if float(np.max(k2) - np.min(k2)) > 1e-9 * max(1.0, float(np.max(np.abs(k2)))):
        raise ParamDomainError("asymptotic mode requires constant k2 along the directrix")
    if float(np.min(np.abs(k2))) < 1e-12:
        raise ParamDomainError("asymptotic mode requires k2 != 0")
    n_k2 = -1.0 / k2
    if p.n is not None:
        n_given = as_curvature_fn(p.n)(s)
        off = np.flatnonzero(np.abs(n_given - n_k2) > 1e-9 * np.maximum(1.0, np.abs(n_given)))
        if off.size:
            i = int(off[0])
            raise ParamDomainError(
                f"params.n = {float(n_given[i])} conflicts with -1/k2 = {float(n_k2[i])} at s = {s[i]:.6g}"
            )
    return _from_n_mu(n_k2, p.mu)


def _line_of_curvature(p: SynthesisParams, s, k2) -> dict[str, np.ndarray]:
    n = as_curvature_fn(p.n)(s)
    return {"n": n, "K": 1.0 / (n * n)}


@dataclass(frozen=True)
class KindSpec:
    """What one SystemKind prescribes.

    ``params`` are the parameters it needs beyond the seed (``missing_param``).
    ``seeded`` says whether it starts from a theta0 seed; the only seedless
    kind, line of curvature, is also the only one built in closed form
    rather than integrated.  ``prescribe(params, s, k2)`` gives the
    invariants the kind fixes, evaluated at the arc lengths ``s`` with
    torsion ``k2`` there: synthesis reads (d, v0) from it, and verification
    compares every entry with the recomputed invariants, except the
    ``vanishing`` ones, which are prescribed zero and reported as named
    defects instead.  It also checks the kind's domain rules and raises
    ParamDomainError for a prescription outside them.  ``defects`` names
    the entries of ``verify.SURFACE_DEFECTS`` the verdict also checks.
    ``pin`` is the constant phi of a kind that holds phi fixed (phi' = 0,
    the seed phi0 ignored), so only theta is integrated; None integrates
    both angles.
    """

    params: tuple[str, ...]
    seeded: bool
    prescribe: Callable[[SynthesisParams, np.ndarray, np.ndarray], dict[str, np.ndarray]]
    vanishing: tuple[str, ...] = ()
    defects: tuple[str, ...] = ()
    pin: float | None = None


KINDS: dict[SystemKind, KindSpec] = {
    SystemKind.GENERAL_DV0: KindSpec(("d", "v0"), True, _general),
    SystemKind.STRICTION_LINE: KindSpec(("d",), True, _striction, vanishing=("v0",)),
    SystemKind.CURVATURE_ANGLE: KindSpec(("n", "mu"), True, _curvature_angle),
    SystemKind.DEVELOPABLE: KindSpec(("v0",), True, _developable, vanishing=("d",)),
    SystemKind.CYLINDER: KindSpec((), True, _cylinder, defects=("qprime_norm",)),
    SystemKind.ASYMPTOTIC_LINE: KindSpec(("mu",), True, _asymptotic, pin=HALF_PI),
    SystemKind.LINE_OF_CURVATURE: KindSpec(("n", "C"), False, _line_of_curvature),
}


def is_unset(value) -> bool:
    """Whether a param value counts as absent: None or a non-finite number."""
    return value is None or (isinstance(value, float) and not math.isfinite(value))


def missing_param(kind: SystemKind, params: SynthesisParams) -> str | None:
    """The first param ``kind`` needs (``theta0`` last, if seeded) that ``params`` leaves unset."""
    spec = KINDS[kind]
    needed = spec.params + (("theta0",) if spec.seeded else ())
    return next((name for name in needed if is_unset(getattr(params, name))), None)


def validate_params(kind: SystemKind, params: SynthesisParams) -> None:
    """Check that the params ``kind`` needs are set and sin(mu) != 0.

    Raises ParamDomainError.  The other domain rules of a kind are checked
    where its prescription is evaluated.
    """
    name = missing_param(kind, params)
    if name is not None:
        raise ParamDomainError(f"{kind.value} requires params.{name}")
    if "mu" in KINDS[kind].params and abs(math.sin(params.mu)) < 1e-12:
        raise ParamDomainError("sin(mu) = 0 is outside the curvature-angle domain")


def _coefficients(kind: SystemKind, params: SynthesisParams, s, k2) -> np.ndarray:
    """Columns (a, b) of the general system at the arc lengths ``s``.

    A kind that prescribes no (d, v0), the cylinder, has a = b = 0, and so
    does a (d, v0) whose d^2 + v0^2 overflows.  Both are NaN where
    d^2 + v0^2 = 0; the right-hand side reports that at the stage that
    reaches it.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        fixed = KINDS[kind].prescribe(params, s, k2)
        if "d" not in fixed:
            return np.zeros((np.size(s), 2))
        d, v0 = fixed["d"], fixed["v0"]
        denom = d * d + v0 * v0
        denom = np.where(denom > 0.0, denom, np.nan)
        return np.column_stack([v0 / denom, -d / denom])


def _rhs(theta: float, phi: float, s: float, c, pinned: bool) -> tuple[float, float]:
    """The general system for c = (k1, k2, a, b), with every state guard."""
    k1, k2, a, b = c
    if not (math.isfinite(theta) and math.isfinite(phi)) or abs(theta) > THETA_MAX:
        raise IntegrationDivergedError(
            f"theta = {theta:.6g}, phi = {phi:.6g} at s = {s:.6g}: the prescribed system blows up "
            "in finite arc length on this interval",
            s=s,
        )
    if abs(theta) < THETA_MIN:
        raise ThetaSingularityError(
            f"|theta| = {abs(theta):.3e} below guard {THETA_MIN:.1e} at s = {s:.6g}", s=s
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
) -> tuple[float, float]:
    """Right-hand side (theta', phi') of the determining system ``kind``.

    Every seeded kind evaluates the general system with its prescribed
    (d, v0); a kind with a ``pin`` keeps phi pinned (phi' = 0).  Raises
    ThetaSingularityError when |theta| < THETA_MIN (coth(theta) blows up;
    the pinned asymptotic mode is guarded for consistency because
    sinh(theta) = 0 degenerates the ruling as well), IntegrationDivergedError
    when |theta| > THETA_MAX or either angle is not finite, and
    ParamDomainError where d^2 + v0^2 = 0 or where the kind's prescription
    rejects ``params`` at (s, k2).  These are the only state guards
    of the integration: they run on every stage value, so a diverging state
    cannot overflow sinh mid-step.
    """
    spec = KINDS[kind]
    if not spec.seeded:
        raise ValueError(f"{kind.value} has no ODE right-hand side; it is built in closed form")
    a, b = _coefficients(kind, params, np.array([float(s)]), np.array([float(k2)]))[0]
    return _rhs(theta, phi, s, (k1, k2, float(a), float(b)), spec.pin is not None)


def integrate_system(kind: SystemKind, params: SynthesisParams, directrix: FrenetCurve) -> AngleTrack:
    """Solve the determining system along the directrix grid.

    Seeded kinds run fixed-step 4th-order integration of the general system,
    with (a, b) evaluated once at the samples and step midpoints from the
    prescribed (d, v0), and (k1, k2) read there from the directrix; a kind
    with a ``pin`` integrates theta alone with phi held there; the
    line-of-curvature mode is assembled in closed form.
    The returned track stores (theta', phi') from the right-hand side at
    every sample.  A track aborts where |theta| leaves
    [THETA_MIN, THETA_MAX] (see ``system_rhs``).

    The four stages of each step evaluate ``_rhs`` inline, with its operands
    in the same order, so the track is bit-identical to calling it.  Each
    stage value passes one combined test of every state guard; only when
    that test trips is ``_rhs`` called, to raise its error there.
    """
    validate_params(kind, params)
    s = directrix.s
    h = directrix.step
    spec = KINDS[kind]

    if not spec.seeded:
        return _line_of_curvature_track(params, directrix)

    pinned = spec.pin is not None
    # RK4 on the two angles as Python floats, fed memoryviews of (k1, k2, a, b)
    # taken once at the samples and step midpoints (the same floats as tolist,
    # without building the lists); the derivative at a sample is the first
    # stage of the step leaving it.
    mid = s[:-1] + 0.5 * h
    node = (directrix.k1, directrix.k2, *_coefficients(kind, params, s, directrix.k2).T)
    middle = (directrix.k1_mid, directrix.k2_mid, *_coefficients(kind, params, mid, directrix.k2_mid).T)
    n = len(s)
    theta, phi, theta_p, phi_p = [0.0] * n, [0.0] * n, [0.0] * n, [0.0] * n
    t, p = float(params.theta0), spec.pin if pinned else float(params.phi0)
    a1, b1 = _rhs(t, p, float(s[0]), [float(x[0]) for x in node], pinned)
    theta[0], phi[0], theta_p[0], phi_p[0] = t, p, a1, b1
    half, sixth = 0.5 * h, h / 6.0
    sinh, cosh, sin, cos = math.sinh, math.cosh, math.sin, math.cos
    # A stage value (x, y) trips the test where _rhs raises: |x| outside
    # [THETA_MIN, THETA_MAX] or NaN, y not finite (y - y is NaN for +-inf and
    # NaN), or a NaN where d^2 + v0^2 = 0.  A pinned kind has phi = pi/2,
    # where sin is exactly 1.0, so it gets _rhs's a sinh(theta) + k1 and
    # phi' = 0.  Stage 3 reads stage 2's a and the step's end stage 4's, so
    # only stages 2 and 4 test a.
    streams = (*map(memoryview, middle), *(memoryview(x[1:]) for x in node))
    for i, k1m, k2m, am, bm, k1, k2, a, b in zip(range(1, n), *streams):
        x, y = t + half * a1, p + half * b1
        if not (THETA_MIN <= abs(x) <= THETA_MAX) or y - y != 0.0 or am != am:
            _rhs(x, y, float(mid[i - 1]), (k1m, k2m, am, bm), pinned)
        sh = sinh(x)
        a2 = am * sh + k1m * sin(y)
        b2 = 0.0 if pinned else bm - k2m + k1m * (cosh(x) / sh) * cos(y)
        x, y = t + half * a2, p + half * b2
        if not (THETA_MIN <= abs(x) <= THETA_MAX) or y - y != 0.0:
            _rhs(x, y, float(mid[i - 1]), (k1m, k2m, am, bm), pinned)
        sh = sinh(x)
        a3 = am * sh + k1m * sin(y)
        b3 = 0.0 if pinned else bm - k2m + k1m * (cosh(x) / sh) * cos(y)
        x, y = t + h * a3, p + h * b3
        if not (THETA_MIN <= abs(x) <= THETA_MAX) or y - y != 0.0 or a != a:
            _rhs(x, y, float(s[i]), (k1, k2, a, b), pinned)
        sh = sinh(x)
        a4 = a * sh + k1 * sin(y)
        b4 = 0.0 if pinned else b - k2 + k1 * (cosh(x) / sh) * cos(y)
        t = t + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        p = p + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        if not (THETA_MIN <= abs(t) <= THETA_MAX) or p - p != 0.0:
            _rhs(t, p, float(s[i]), (k1, k2, a, b), pinned)
        sh = sinh(t)
        a1 = a * sh + k1 * sin(p)
        b1 = 0.0 if pinned else b - k2 + k1 * (cosh(t) / sh) * cos(p)
        theta[i], phi[i], theta_p[i], phi_p[i] = t, p, a1, b1
    return AngleTrack(s.copy(), *(np.fromiter(x, float, n) for x in (theta, phi, theta_p, phi_p)))


def _line_of_curvature_track(params: SynthesisParams, directrix: FrenetCurve) -> AngleTrack:
    n_fn = as_curvature_fn(params.n)
    if not isinstance(n_fn, Constant):
        raise ParamDomainError("line_of_curvature takes a constant n")
    s = directrix.s
    phi = line_of_curvature_phi(directrix, float(params.C))
    n = float(n_fn.value)
    cos_phi = np.cos(phi)
    if float(np.min(np.abs(cos_phi))) < 1e-12:
        i = int(np.argmin(np.abs(cos_phi)))
        raise PhiSingularError(f"cos(phi) = 0 at s = {s[i]:.6g}")
    arg = n * directrix.k1 * cos_phi
    if float(np.max(np.abs(arg))) >= 1.0:
        i = int(np.argmax(np.abs(arg)))
        raise NoSolutionError(f"|n k1 cos(phi)| = {abs(arg[i]):.6g} >= 1 at s = {s[i]:.6g}")
    theta = np.arctanh(arg)
    # theta' has no closed form without k1'; second-order differences are
    # enough for the analytic invariants, which tolerate O(h^2) here.
    theta_p = finite_difference(theta, directrix.step)
    phi_p = -directrix.k2
    return AngleTrack(s=s.copy(), theta=theta, phi=phi, theta_prime=theta_p, phi_prime=phi_p)


def build_surface(track: AngleTrack, directrix: FrenetCurve) -> RuledSurfaceGrid:
    """Realize the track as a ruling field q_i on the directrix grid."""
    require_same_grid(track, directrix)
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


def line_of_curvature_phi(directrix: FrenetCurve, C: float) -> np.ndarray:
    """phi(s) = -cumulative integral of k2 + C on the directrix grid.

    phi' = -k2(s) does not depend on phi, so the 4th-order step reduces to
    a cumulative Simpson sum of the directrix's torsion at the samples and
    step midpoints.
    """
    node, mid = -directrix.k2, -directrix.k2_mid
    return np.cumsum(np.concatenate([[float(C)], (directrix.step / 6.0) * (node[:-1] + 4.0 * mid + node[1:])]))


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
