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
* CURVATURE_ANGLE    (d, v0) = n (sin^2(mu), sin(mu) cos(mu)) from prescribed (n, mu),
                     so mu counts modulo pi
* ASYMPTOTIC_LINE    the same with n forced to -1/k2 (constant k2 != 0) and
                     phi pinned at pi/2, so only theta is integrated
* CYLINDER           q' = 0: no (d, v0), a = b = 0, built in closed form:
                     the ruling is the seed's q0 at every arc length, and
                     the angles are q0 read in the frame at each sample
* LINE_OF_CURVATURE  no ODE: phi(s) = -integral(k2) + C by quadrature and
                     theta(s) = artanh(n k1 cos(phi)) pointwise.

Conventions: the ruling is q = cosh(theta) T + sinh(theta) (-sin(phi) N +
cos(phi) B) (``ruling_from_angles``), so theta is the hyperbolic angle
between q and T, and phi the spacelike angle between N and the surface
normal cos(phi) N + sin(phi) B along the directrix.

The seed (theta0, phi0) is the two-parameter freedom of the solution family.
The cylinder and the line of curvature are built in closed form
(``KindSpec.track``); every other kind is integrated at fixed-step classical
4th order on the directrix grid.  These systems can blow up in finite arc
length (the sinh terms); a track then aborts with the failure location
instead of clamping, because a clamped track would describe a surface the
systems do not define.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, NoReturn

import numpy as np

from .errors import (
    GridMismatchError,
    IntegrationDivergedError,
    NoSolutionError,
    ParamDomainError,
    PhiSingularError,
    ThetaSingularityError,
)
from .frenet import Constant, CurvatureFn, FrenetCurve, as_curvature_fn
from .lorentz import lorentz_inner
from .surface import RuledSurfaceGrid, dv0_from_n_mu

#: Guard against the coth(theta) singularity; tracks with |theta| below this
#: are rejected outright rather than clamped.
THETA_MIN = 1e-6

#: Abort threshold for |theta|; the determining systems blow up in finite s
#: once sinh(theta) dominates, and past this value the surface is numerically
#: meaningless anyway.
THETA_MAX = 50.0

HALF_PI = 0.5 * math.pi

#: Documented default seed grid for sweeps over the solution family.
DEFAULT_THETA0_GRID = (0.25, 0.5, 1.0)
DEFAULT_PHI0_GRID = (0.0, HALF_PI, math.pi, 1.5 * math.pi)


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

    An equal grid, the usual case (a synthesized track holds its directrix's
    own ``s``), skips the tolerance comparison.
    """
    if track.n_samples != directrix.n_samples or not (
        np.array_equal(track.s, directrix.s) or np.allclose(track.s, directrix.s, atol=1e-12)
    ):
        raise GridMismatchError("angle track and directrix grids differ")


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
        raise ParamDomainError(
            f"curvature_angle requires n > 0; n = {float(n[i]):.6g} at s = {float(s[i]):.6g}", s=float(s[i])
        )
    # (d, v0) depends on mu modulo pi only.  Its Chasles angle atan(v0/d) =
    # atan(cot(mu)) is pi/2 - mu on 0 < mu < pi; elsewhere math.sin and
    # math.cos reduce mu exactly, where mu % pi would not (its float pi is off
    # by about 1.2e-16 per turn)
    chasles = HALF_PI - p.mu if 0.0 < p.mu < math.pi else math.atan(math.cos(p.mu) / math.sin(p.mu))
    return {**_from_n_mu(n, p.mu), "mu": np.full(np.shape(s), chasles)}


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
                f"params.n = {float(n_given[i])} conflicts with -1/k2 = {float(n_k2[i])} at s = {s[i]:.6g}",
                s=float(s[i]),
            )
    return _from_n_mu(n_k2, p.mu)


def _line_of_curvature(p: SynthesisParams, s, k2) -> dict[str, np.ndarray]:
    n = as_curvature_fn(p.n)(s)
    return {"n": n, "K": 1.0 / (n * n)}


def _cylinder_track(params: SynthesisParams, directrix: FrenetCurve) -> AngleTrack:
    """The cylinder's track in closed form: q' = 0, so the ruling is the seed's q0 at every sample.

    Read in the frame, q0 has y = -<q0, N> = sinh(theta) sin(phi) and
    z = <q0, B> = sinh(theta) cos(phi), so theta = sign asinh(|(y, z)|) and
    phi = atan2(sign y, sign z), unwrapped from phi0.  The sign is the
    seed's, flipped wherever (y, z) reverses between two samples: there q0
    passes T and theta crosses 0, so AngleTrack rejects the crossing at the
    first sample past it.  The seed is checked as ``_rhs`` checks it, and
    the first sample with |theta| > THETA_MAX raises
    IntegrationDivergedError.  Sample 0 holds the seed itself.
    """
    s = directrix.s
    theta0, phi0 = float(params.theta0), float(params.phi0)
    _check_state(theta0, phi0, float(s[0]))
    q0 = ruling_from_angles(directrix.T[0], directrix.N[0], directrix.B[0], theta0, phi0)
    y, z = -lorentz_inner(directrix.N, q0), lorentz_inner(directrix.B, q0)
    flips = np.concatenate([[0], np.cumsum(y[1:] * y[:-1] + z[1:] * z[:-1] < 0.0)])
    sign = math.copysign(1.0, theta0) * np.where(flips % 2, -1.0, 1.0)
    theta = sign * np.arcsinh(np.hypot(y, z))
    phi = np.unwrap(np.arctan2(sign * y, sign * z))
    phi += 2.0 * math.pi * round((phi0 - phi[0]) / (2.0 * math.pi))
    theta[0], phi[0] = theta0, phi0
    over = np.flatnonzero(~(np.abs(theta) <= THETA_MAX))
    if over.size:
        i = int(over[0])
        AngleTrack(s[:i], theta[:i], phi[:i])  # a guard that trips before sample i raises first
        _check_state(float(theta[i]), float(phi[i]), float(s[i]))
    return AngleTrack(s, theta, phi)


def line_of_curvature_phi(directrix: FrenetCurve, C: float) -> np.ndarray:
    """phi(s) = -cumulative integral of k2 + C on the directrix grid.

    phi' = -k2(s) does not depend on phi, so the 4th-order step reduces to
    a cumulative Simpson sum of the directrix's torsion at the samples and
    step midpoints.
    """
    node, mid = -directrix.k2, -directrix.k2_mid
    return np.cumsum(np.concatenate([[float(C)], (directrix.step / 6.0) * (node[:-1] + 4.0 * mid + node[1:])]))


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
        raise PhiSingularError(f"cos(phi) = 0 at s = {s[i]:.6g}", s=float(s[i]))
    arg = n * directrix.k1 * cos_phi
    if float(np.max(np.abs(arg))) >= 1.0:
        i = int(np.argmax(np.abs(arg)))
        raise NoSolutionError(f"|n k1 cos(phi)| = {abs(arg[i]):.6g} >= 1 at s = {s[i]:.6g}", s=float(s[i]))
    return AngleTrack(s=s, theta=np.arctanh(arg), phi=phi)


@dataclass(frozen=True)
class KindSpec:
    """What one SystemKind prescribes.

    ``params`` are the parameters it needs beyond the seed (``missing_param``).
    ``seeded`` says whether it starts from a theta0 seed; the only seedless
    kind is the line of curvature.  ``track(params, directrix)`` builds the
    angle track of a kind that is built in closed form, the cylinder and
    the line of curvature; None integrates the general system on its
    ``angle_operands``.  ``prescribe(params, s, k2)`` gives the
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
    track: Callable[[SynthesisParams, FrenetCurve], AngleTrack] | None = None


KINDS: dict[SystemKind, KindSpec] = {
    SystemKind.GENERAL_DV0: KindSpec(("d", "v0"), True, _general),
    SystemKind.STRICTION_LINE: KindSpec(("d",), True, _striction, vanishing=("v0",)),
    SystemKind.CURVATURE_ANGLE: KindSpec(("n", "mu"), True, _curvature_angle),
    SystemKind.DEVELOPABLE: KindSpec(("v0",), True, _developable, vanishing=("d",)),
    SystemKind.CYLINDER: KindSpec((), True, _cylinder, defects=("qprime_norm",), track=_cylinder_track),
    SystemKind.ASYMPTOTIC_LINE: KindSpec(("mu",), True, _asymptotic, pin=HALF_PI),
    SystemKind.LINE_OF_CURVATURE: KindSpec(("n", "C"), False, _line_of_curvature, track=_line_of_curvature_track),
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


def _coefficients(kind: SystemKind, params: SynthesisParams, s, k2) -> tuple[np.ndarray, np.ndarray]:
    """The coefficients (a, b) of the general system at the arc lengths ``s``.

    ``kind`` is one whose track is integrated, so it prescribes (d, v0).
    Both are NaN where d^2 + v0^2 = 0; the right-hand side reports that at the
    stage that reaches it.  d and v0 are scaled by the power of two 2^-e
    that brings the larger of them into [0.5, 1) before they are squared,
    and a and b are scaled back by 2^-e, so d^2 + v0^2 neither overflows
    nor underflows.  Where the unscaled quotients and their denominator are
    normal floats, a and b are bit-identical to them.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        fixed = KINDS[kind].prescribe(params, s, k2)
        d, v0 = fixed["d"], fixed["v0"]
        e = np.frexp(np.maximum(np.abs(d), np.abs(v0)))[1]
        d, v0 = np.ldexp(d, -e), np.ldexp(v0, -e)
        denom = d * d + v0 * v0
        denom = np.where(denom > 0.0, denom, np.nan)
        return np.ldexp(v0 / denom, -e), np.ldexp(-d / denom, -e)


def _check_state(theta: float, phi: float, s: float) -> None:
    """The theta range and finite angles that every state of a track needs (see ``_rhs``)."""
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


def _rhs(theta: float, phi: float, s: float, c, pinned: bool) -> tuple[float, float]:
    """The general system (theta', phi') for c = (k1, a, b - k2), with every state guard.

    A ``pinned`` kind keeps phi fixed (phi' = 0).  Raises
    ThetaSingularityError when |theta| < THETA_MIN (coth(theta) blows up;
    the pinned asymptotic mode is guarded for consistency because
    sinh(theta) = 0 degenerates the ruling as well), IntegrationDivergedError
    when |theta| > THETA_MAX or either angle is not finite, and
    ParamDomainError where a is NaN, which ``_coefficients`` makes it where
    d^2 + v0^2 = 0.  These are the only state guards of the integration:
    ``_rk4_track`` tests the theta range of every stage inline and replays
    a step that trips through here (``_replay_step``), so every error comes
    from here, at the first stage whose guard fails.  The state guards are
    ``_check_state``, which the closed-form cylinder applies to its seed.
    """
    k1, a, bk = c
    _check_state(theta, phi, s)
    if math.isnan(a):
        raise ParamDomainError(f"d^2 + v0^2 = 0 at s = {s:.6g}", s=s)
    sh = math.sinh(theta)
    if pinned:
        return a * sh + k1, 0.0
    return a * sh + k1 * math.sin(phi), bk + k1 * (math.cosh(theta) / sh) * math.cos(phi)


def _replay_step(start, h: float, mid: tuple, end: tuple, pinned: bool) -> NoReturn:
    """Rerun one RK4 step through ``_rhs`` and raise the error of its first failing stage.

    ``start`` is (theta, phi, theta', phi') at the step's start, ``mid`` and
    ``end`` are (s, (k1, a, b - k2)) at its midpoint and end sample.  A step
    that passes every guard is still an IntegrationDivergedError.
    """
    t, p, a1, b1 = start
    half, sixth = 0.5 * h, h / 6.0
    a2, b2 = _rhs(t + half * a1, p + half * b1, *mid, pinned)
    a3, b3 = _rhs(t + half * a2, p + half * b2, *mid, pinned)
    a4, b4 = _rhs(t + h * a3, p + h * b3, *end, pinned)
    x = t + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
    y = p + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
    _rhs(x, y, *end, pinned)
    raise IntegrationDivergedError(
        f"the angle step leaving theta = {t:.6g}, phi = {p:.6g} tripped a guard that no stage "
        f"of its replay trips, at s = {end[0]:.6g}",
        s=end[0],
    )


@dataclass(frozen=True)
class AngleOperands:
    """What the RK4 of a kind without a closed form reads besides the seed: one kind, prescription and directrix.

    ``node`` and ``middle`` are (k1, a, b - k2) at the samples and at the
    step midpoints, the three numbers of the general system at each point
    (phi' adds its coth term to b - k2, as ``_rhs`` does).  k1 is the
    directrix's own array.  The RK4 loop, its first stage and a replayed
    step (``_replay_step``) all read these two tuples.
    """

    node: tuple[np.ndarray, np.ndarray, np.ndarray]
    middle: tuple[np.ndarray, np.ndarray, np.ndarray]


def angle_operands(kind: SystemKind, params: SynthesisParams, directrix: FrenetCurve) -> AngleOperands | None:
    """The operands ``integrate_system`` reads on ``directrix``, or None for a kind built in closed form.

    Checks ``params`` with ``validate_params`` and evaluates both
    ``_coefficients``, so it raises ParamDomainError where those do.  The
    seed angles are read only by that check, so the operands serve every
    seed of a sweep.  The closed-form kinds (``KindSpec.track``), the
    cylinder and the line of curvature, read no operands.
    """
    validate_params(kind, params)
    if KINDS[kind].track is not None:
        return None
    s, mid = directrix.s, directrix.s[:-1] + 0.5 * directrix.step
    a, b = _coefficients(kind, params, s, directrix.k2)
    am, bm = _coefficients(kind, params, mid, directrix.k2_mid)
    with np.errstate(over="ignore"):  # b - k2 overflows only for a k2 near the float limit
        return AngleOperands((directrix.k1, a, b - directrix.k2), (directrix.k1_mid, am, bm - directrix.k2_mid))


def integrate_system(
    kind: SystemKind, params: SynthesisParams, directrix: FrenetCurve, operands: AngleOperands | None = None
) -> AngleTrack:
    """Solve the determining system along the directrix grid.

    A kind with a closed-form ``KindSpec.track``, the cylinder or the line
    of curvature, is built by it.  Every other kind runs fixed-step
    4th-order integration of the general system on its operands
    (k1, a, b - k2) at the samples and step midpoints (``AngleOperands``,
    ``_rk4_track``); a kind with a ``pin`` integrates theta alone with phi
    held there.  A track aborts where |theta| leaves [THETA_MIN, THETA_MAX]
    (see ``_rhs``).

    ``operands`` are ``angle_operands`` of this kind and directrix for
    params that differ from ``params`` in the seed angles at most, as a
    sweep shares them among its seeds; None builds them here.
    """
    if operands is None:
        operands = angle_operands(kind, params, directrix)  # checks params
    else:
        validate_params(kind, params)
    spec = KINDS[kind]
    if spec.track is not None:
        return spec.track(params, directrix)
    pinned = spec.pin is not None
    return _rk4_track(directrix.s, operands, float(params.theta0), spec.pin if pinned else float(params.phi0), pinned)


def _rk4_track(s: np.ndarray, operands: AngleOperands, theta0: float, phi0: float, pinned: bool) -> AngleTrack:
    """The RK4 track of the general system on the grid ``s`` from the seed (theta0, phi0).

    ``operands`` hold (k1, a, b - k2) at the samples of ``s`` and at its
    step midpoints; a ``pinned`` track keeps phi at phi0, which must then
    be pi/2.  The four stages of each step evaluate ``_rhs`` inline, with
    its operands in the same order, so the track is bit-identical to
    calling it.  Each stage value tests only the theta range, and the step
    end also that phi is finite.  The other guards need no test of their
    own: a phi of +-inf makes ``math.sin`` raise ValueError, and a NaN phi
    or a NaN a makes that stage's theta' NaN, so the next theta test of the
    step trips.  On a trip or that ValueError the step is replayed from its
    start state through ``_rhs`` (``_replay_step``), which raises the first
    failing stage's error.
    """
    h = float(s[1] - s[0])
    # RK4 on the two angles as Python floats over memoryviews of the operands (the
    # floats of tolist, without the lists); the rhs at a step's end is the next one's first stage.
    node, middle = operands.node, operands.middle
    n = len(s)
    theta, phi = [0.0] * n, [0.0] * n
    t, p = theta0, phi0
    a1, b1 = _rhs(t, p, float(s[0]), [float(x[0]) for x in node], pinned)
    theta[0], phi[0] = t, p
    half, sixth = 0.5 * h, h / 6.0
    ends = [memoryview(x[1:]) for x in node]
    lo, hi, nlo, nhi = THETA_MIN, THETA_MAX, -THETA_MIN, -THETA_MAX
    sinh, cosh, sin, cos = math.sinh, math.cosh, math.sin, math.cos
    # A stage's theta x trips where it is NaN or |x| is outside
    # [THETA_MIN, THETA_MAX]; y - y is NaN for a phi of +-inf or NaN.  (t, p)
    # take a step's values only after its last test, when nothing left can
    # raise, so a trip leaves the step's start state for the replay.  A
    # pinned kind has phi = pi/2, where sin is exactly 1.0, so it gets _rhs's
    # a sinh(theta) + k1 and phi' = 0.
    try:
        for i, k1m, am, bkm, k1, a, bk in zip(range(1, n), *map(memoryview, middle), *ends):
            x, y = t + half * a1, p + half * b1
            if not (lo <= x <= hi or nhi <= x <= nlo):
                break
            sh = sinh(x)
            a2 = am * sh + k1m * sin(y)
            b2 = 0.0 if pinned else bkm + k1m * (cosh(x) / sh) * cos(y)
            x, y = t + half * a2, p + half * b2
            if not (lo <= x <= hi or nhi <= x <= nlo):
                break
            sh = sinh(x)
            a3 = am * sh + k1m * sin(y)
            b3 = 0.0 if pinned else bkm + k1m * (cosh(x) / sh) * cos(y)
            x, y = t + h * a3, p + h * b3
            if not (lo <= x <= hi or nhi <= x <= nlo):
                break
            sh = sinh(x)
            a4 = a * sh + k1 * sin(y)
            b4 = 0.0 if pinned else bk + k1 * (cosh(x) / sh) * cos(y)
            x = t + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
            y = p + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            if not (lo <= x <= hi or nhi <= x <= nlo) or y - y != 0.0:
                break
            t, p = x, y
            sh = sinh(t)
            a1 = a * sh + k1 * sin(p)
            b1 = 0.0 if pinned else bk + k1 * (cosh(t) / sh) * cos(p)
            theta[i], phi[i] = t, p
        else:
            return AngleTrack(s, np.fromiter(theta, float, n), np.fromiter(phi, float, n))
    except ValueError:  # math.sin or math.cos of a stage phi of +-inf
        pass
    at_mid = (float(s[i - 1]) + half, tuple(float(x[i - 1]) for x in middle))
    at_end = (float(s[i]), tuple(float(x[i]) for x in node))
    _replay_step((t, p, a1, b1), h, at_mid, at_end, pinned)


def ruling_from_angles(T, N, B, theta, phi) -> np.ndarray:
    """The unit timelike ruling q = cosh(theta) T + sinh(theta) (-sin(phi) N + cos(phi) B).

    Broadcasts over leading axes.
    """
    T = np.asarray(T, dtype=float)
    N = np.asarray(N, dtype=float)
    B = np.asarray(B, dtype=float)
    sp = np.sin(np.asarray(phi, dtype=float))[..., None]
    cp = np.cos(np.asarray(phi, dtype=float))[..., None]
    sh = np.sinh(np.asarray(theta, dtype=float))[..., None]
    ch = np.cosh(np.asarray(theta, dtype=float))[..., None]
    return ch * T + sh * (-sp * N + cp * B)


def build_surface(track: AngleTrack, directrix: FrenetCurve) -> RuledSurfaceGrid:
    """Realize the track as a ruling field q_i on the directrix grid; the surface keeps no angles."""
    require_same_grid(track, directrix)
    q = ruling_from_angles(directrix.T, directrix.N, directrix.B, track.theta, track.phi)
    return RuledSurfaceGrid(directrix=directrix, q=q)
