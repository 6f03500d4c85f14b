"""Closed forms of the paper that the tests check the package against.

No run needs them: the package synthesizes tracks with its inline RK4 or
in closed form and verifies surfaces from the raw samples.  Here are the right-hand side of a
determining system as one call, its linear form and the exact tracks that
follow from it, q' and <q',q'> in terms of the angles and their
derivatives, and the invariants d and v0 from the angle track.
"""

import math

import numpy as np

from minkruled import AngleTrack, FrenetCurve, SurfaceInvariants, SynthesisParams, SystemKind, curvature_relations
from minkruled.errors import GeometryError
from minkruled.surface import CYL_TOL
from minkruled.synthesis import KINDS, _coefficients, _rhs, require_same_grid


class CylindricalRulingError(GeometryError):
    """Operation undefined on a cylindrical sample (q' below tolerance)."""


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
    (d, v0); a kind that prescribes none, the cylinder, has a = b = 0, the
    system whose solutions keep q' = 0 (the package builds that track in
    closed form).  A kind with a ``pin`` keeps phi pinned (phi' = 0).
    Raises the state guards of ``synthesis._rhs``, and ParamDomainError
    where the kind's prescription rejects ``params`` at (s, k2).
    """
    spec = KINDS[kind]
    if not spec.seeded:
        raise ValueError(f"{kind.value} has no ODE right-hand side; it is built in closed form")
    if spec.track is not None:  # seeded and built in closed form: the cylinder
        a, b = (0.0,), (0.0,)
    else:
        a, b = _coefficients(kind, params, np.array([float(s)]), np.array([float(k2)]))
    return _rhs(theta, phi, s, (k1, float(a[0]), float(b[0]) - k2), spec.pin is not None)


def linear_generator(kind: SystemKind, params: SynthesisParams, k1: float, k2: float) -> np.ndarray:
    """The generator M of the linear form of the seeded kind ``kind`` on a directrix of constant (k1, k2).

    In frame components the ruling is (x, y, z) = (cosh theta,
    -sinh theta sin phi, sinh theta cos phi), and the general system reads

        x' = a (x^2 - 1) - k1 y,   y' = a x y - k1 x - c z,   z' = a x z + c y,   c = b - k2,

    a projective Riccati system: with (x, y, z) = U / lambda it is the linear
    system (U, lambda)' = M (U, lambda), which keeps -U0^2 + U1^2 + U2^2 +
    lambda^2 constant.  theta -> inf is lambda -> 0.  A kind with a ``pin``
    (phi = pi/2, so z = 0) zeroes c.  (a, b) are v0 / (d^2 + v0^2) and
    -d / (d^2 + v0^2) of the kind's prescription, which must be constant,
    read at s = 0; a kind that prescribes no (d, v0) has a = b = 0.
    """
    fixed = KINDS[kind].prescribe(params, np.zeros(1), np.full(1, float(k2)))
    a = b = 0.0
    if "d" in fixed:
        d, v0 = float(fixed["d"][0]), float(fixed["v0"][0])
        a, b = v0 / (d * d + v0 * v0), -d / (d * d + v0 * v0)
    c = 0.0 if KINDS[kind].pin is not None else b - k2
    return np.array([[0.0, -k1, 0.0, -a], [-k1, 0.0, -c, 0.0], [0.0, c, 0.0, 0.0], [-a, 0.0, 0.0, 0.0]])


def linear_seed(theta0: float, phi0: float) -> np.ndarray:
    """The linear state (U, lambda) of the seed, with lambda = 1."""
    sh = math.sinh(theta0)
    return np.array([math.cosh(theta0), -sh * math.sin(phi0), sh * math.cos(phi0), 1.0])


def exact_track(flow: np.ndarray, theta0: float, phi0: float) -> tuple[np.ndarray, np.ndarray]:
    """The exact (theta, phi) of the seed where ``flow`` holds expm((s - s0) M) (``linear_generator``).

    theta keeps the seed's sign and is read as asinh(|(y, z)|), which stays
    accurate near theta = 0; phi is unwrapped from phi0, so the flow must
    be sampled finely enough that phi moves by less than pi between
    samples.
    """
    u = flow @ linear_seed(theta0, phi0)
    sign = math.copysign(1.0, theta0)
    y, z = sign * u[:, 1] / u[:, 3], sign * u[:, 2] / u[:, 3]
    phi = np.unwrap(np.arctan2(-y, z))
    return sign * np.arcsinh(np.hypot(y, z)), phi + 2.0 * math.pi * round((phi0 - phi[0]) / (2.0 * math.pi))


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
    assembled vector.
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


def invariants_analytic(track: AngleTrack, directrix: FrenetCurve, theta_prime, phi_prime) -> SurfaceInvariants:
    """Invariants from the angle track and its derivatives via the closed forms

        v0 = sinh(theta) (theta' - k1 sin(phi)) / <q',q'>
        d  = sinh(theta) (k1 cosh(theta) cos(phi) - (phi'+k2) sinh(theta)) / <q',q'>

    ``theta_prime`` and ``phi_prime`` are per-sample arrays or constants.
    """
    require_same_grid(track, directrix)
    k1, k2 = directrix.k1, directrix.k2
    norm_sq = qprime_norm_sq(track.theta, track.phi, theta_prime, phi_prime, k1, k2)
    if float(np.min(norm_sq)) <= CYL_TOL:
        i = int(np.argmin(norm_sq))
        raise CylindricalRulingError(
            f"<q',q'> = {norm_sq[i]:.3e} at s = {track.s[i]:.6g}: ruling is cylindrical"
        )
    sh = np.sinh(track.theta)
    ch = np.cosh(track.theta)
    p = phi_prime + k2
    v0 = sh * (theta_prime - k1 * np.sin(track.phi)) / norm_sq
    d = sh * (k1 * ch * np.cos(track.phi) - p * sh) / norm_sq
    K, mu, n = curvature_relations(d, v0)
    return SurfaceInvariants(
        d=d,
        v0=v0,
        K=K,
        mu=mu,
        n=n,
        qprime_norm=np.sqrt(norm_sq),
        cylindrical=np.zeros(track.n_samples, dtype=bool),
    )
