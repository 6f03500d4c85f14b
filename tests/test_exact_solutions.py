"""The angle RK4 against exact solutions of the general determining system

    theta' = a sinh(theta) + k1 sin(phi)
    phi'   = b - k2 + k1 coth(theta) cos(phi),   (a, b) = (v0, -d) / (d^2 + v0^2).

A fixed point of the autonomous system must stay put to the last bit, and a
manufactured track (chosen angles, with the (d, v0) that makes them a
solution) must be reproduced at fourth order.  Each gate also rejects the
system with the sign of k2 flipped.
"""

import math
from dataclasses import dataclass

import numpy as np

from minkruled import CurvatureFn, Sinusoid, SynthesisParams, SystemKind, integrate_frenet, integrate_system

#: general_roundtrip.json's directrix and prescription
K1, K2, D, V0 = 1.0, 0.1, 0.5, 0.3
THETA_STAR, PHI_STAR = 0.5911252306725923, -0.5853512191326343


def _fixed_point(k2):
    """The seed where theta' = phi' = 0 for constant (k1, k2, d, v0), to the last bit.

    sin(phi) = -a sinh(theta)/k1 and cos(phi) = (k2 - b) tanh(theta)/k1
    leave one equation in theta, increasing in theta > 0, solved by bisection.
    """
    a, b = V0 / (D * D + V0 * V0), -D / (D * D + V0 * V0)
    lo, hi = 0.0, 5.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if (a * math.sinh(mid)) ** 2 + ((k2 - b) * math.tanh(mid)) ** 2 > K1 * K1:
            hi = mid
        else:
            lo = mid
    return lo, math.atan2(-a * math.sinh(lo), (k2 - b) * math.tanh(lo))


def _track(seed, length):
    curve = integrate_frenet(K1, K2, s_range=(0.0, length), step=1e-3)
    params = SynthesisParams(theta0=seed[0], phi0=seed[1], d=D, v0=V0)
    return integrate_system(SystemKind.GENERAL_DV0, params, curve)


def test_fixed_point_is_bit_constant():
    assert _fixed_point(K2) == (THETA_STAR, PHI_STAR)
    for length in (0.5, 5.0):
        track = _track((THETA_STAR, PHI_STAR), length)
        assert np.all(track.theta == THETA_STAR) and np.all(track.phi == PHI_STAR), length


def test_fixed_point_of_flipped_torsion_drifts():
    seed = _fixed_point(-K2)
    track = _track(seed, 0.5)
    assert float(np.max(np.abs(track.theta - seed[0]))) > 1e-2


# the directrix curvatures of the manufactured track on [0, 1]; its angles are _exact
MANUFACTURED_K1 = Sinusoid(0.3, 2.0, offset=1.0)
MANUFACTURED_K2 = Sinusoid(0.2, 3.0, phase=0.5, offset=0.1)


def _exact(s):
    """(theta, phi, theta', phi') of the manufactured track."""
    theta, theta_p = 1.0 + 0.2 * np.sin(3.0 * s), 0.6 * np.cos(3.0 * s)
    phi, phi_p = 0.3 + 0.5 * s + 0.1 * np.cos(2.0 * s), 0.5 - 0.2 * np.sin(2.0 * s)
    return theta, phi, theta_p, phi_p


@dataclass(frozen=True)
class Manufactured(CurvatureFn):
    """d (``part`` 0) or v0 (``part`` 1) that makes the exact angles solve the
    system whose torsion term is ``k2_sign * k2``."""

    part: int
    k2_sign: float = 1.0

    def _at(self, s):
        theta, phi, theta_p, phi_p = _exact(s)
        k1 = MANUFACTURED_K1(s)
        a = (theta_p - k1 * np.sin(phi)) / np.sinh(theta)
        b = phi_p + self.k2_sign * MANUFACTURED_K2(s) - k1 * np.cos(phi) / np.tanh(theta)
        return (-b, a)[self.part] / (a * a + b * b)


def _observed_orders(k2_sign):
    """log2 of the ratios of the max angle errors at h = 4e-3, 2e-3, 1e-3."""
    theta0, phi0, _, _ = _exact(0.0)
    params = SynthesisParams(
        theta0=float(theta0), phi0=float(phi0), d=Manufactured(0, k2_sign), v0=Manufactured(1, k2_sign)
    )
    errors = []
    for h in (4e-3, 2e-3, 1e-3):
        curve = integrate_frenet(MANUFACTURED_K1, MANUFACTURED_K2, s_range=(0.0, 1.0), step=h)
        track = integrate_system(SystemKind.GENERAL_DV0, params, curve)
        theta, phi, _, _ = _exact(curve.s)
        errors.append(max(float(np.max(np.abs(track.theta - theta))), float(np.max(np.abs(track.phi - phi)))))
    return [math.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])]


def test_manufactured_track_converges_at_fourth_order():
    orders = _observed_orders(1.0)
    assert all(3.8 <= order <= 4.2 for order in orders), orders


def test_manufactured_track_of_flipped_torsion_fails_the_order_gate():
    orders = _observed_orders(-1.0)
    assert not all(3.8 <= order <= 4.2 for order in orders), orders
