"""The synthesized angle tracks against exact solutions of the general determining system

    theta' = a sinh(theta) + k1 sin(phi)
    phi'   = b - k2 + k1 coth(theta) cos(phi),   (a, b) = (v0, -d) / (d^2 + v0^2).

A fixed point of the autonomous system must stay put to the last bit, and a
manufactured track (chosen angles, with the (d, v0) that makes them a
solution) must be reproduced at fourth order.  With constant (k1, k2, d, v0)
the system is linear in disguise (``reference.linear_generator``), so every
seed has an exact track expm(s M) (U0, 1): each default seed of every seeded
shipped config must stay within its recorded bound of it, and a track that
blows up must stop within one step after the exact THETA_MAX crossing.
Each gate also rejects the system with the sign of k2 flipped.
"""

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.optimize

from minkruled import CurvatureFn, RunConfig, Sinusoid, SynthesisParams, SystemKind, integrate_frenet, integrate_system
from minkruled.errors import GeometryError, IntegrationDivergedError, ThetaSingularityError
from minkruled.pipeline import build_directrix
from minkruled.synthesis import DEFAULT_PHI0_GRID, DEFAULT_THETA0_GRID, KINDS, THETA_MAX
from reference import exact_track, linear_generator, linear_seed

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


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SEEDED_CONFIGS = ("asymptotic_line", "cylinder", "developable", "general_roundtrip", "geodesic", "striction_line")
#: The steps of the exact-track gate, each with the stride of the samples compared.
STRIDES = {1e-3: 1, 1e-4: 10}
SEEDS = [(theta0, phi0) for theta0 in DEFAULT_THETA0_GRID for phi0 in DEFAULT_PHI0_GRID]

#: Per config and step, the bound on each default seed's largest angle error
#: against its exact track, in the order of SEEDS (rows theta0 = 0.25, 0.5, 1;
#: columns phi0 = 0, pi/2, pi, 3pi/2): twice the error measured, rounded up.
#: None marks a seed that ends in ThetaSingularityError, as its exact track
#: does: cylinder's phi0 = 3pi/2 keeps phi' = 0 and theta' = -k1, so theta
#: reaches 0 at s = theta0 / k1.  The cylinder's track is read off the frame
#: in closed form, so its bounds are the frame's roundoff.
TRACK_BOUNDS = {
    "asymptotic_line": {
        1e-3: (8e-15, 8e-15, 8e-15, 8e-15,
               8e-15, 8e-15, 8e-15, 8e-15,
               5e-13, 5e-13, 5e-13, 5e-13),
        1e-4: (2e-14, 2e-14, 2e-14, 2e-14,
               2e-14, 2e-14, 2e-14, 2e-14,
               9e-14, 9e-14, 9e-14, 9e-14),
    },
    "cylinder": {
        1e-3: (2e-14, 2e-14, 2e-14, None,
               2e-14, 2e-14, 2e-14, None,
               2e-14, 2e-14, 2e-14, None),
        1e-4: (2e-15, 9e-16, 2e-15, None,
               9e-16, 9e-16, 9e-16, None,
               9e-16, 2e-15, 9e-16, None),
    },
    "developable": {
        1e-3: (3e-12, 6e-15, 3e-12, 3e-5,
               2e-13, 5e-15, 3e-13, 2e-7,
               4e-14, 9e-15, 4e-14, 2e-9),
        1e-4: (2e-14, 3e-14, 2e-14, 3e-9,
               1e-14, 9e-15, 2e-14, 2e-11,
               2e-14, 1e-14, 3e-14, 2e-13),
    },
    "general_roundtrip": {
        1e-3: (6e-13, 2e-13, 3e-12, 5e-10,
               7e-14, 5e-14, 3e-13, 2e-12,
               6e-14, 8e-12, 2e-12, 9e-14),
        1e-4: (5e-15, 9e-15, 3e-14, 8e-14,
               9e-15, 2e-14, 2e-14, 3e-14,
               2e-14, 4e-14, 2e-14, 7e-14),
    },
    "geodesic": {
        1e-3: (6e-14, 2e-14, 5e-13, 9e-11,
               3e-15, 8e-15, 5e-14, 9e-13,
               4e-15, 5e-15, 1e-14, 6e-14),
        1e-4: (6e-15, 2e-14, 3e-14, 3e-14,
               7e-15, 8e-15, 3e-14, 5e-14,
               2e-14, 3e-14, 2e-14, 5e-14),
    },
    "striction_line": {
        1e-3: (4e-13, 2e-13, 4e-12, 6e-10,
               6e-15, 7e-14, 4e-13, 6e-12,
               3e-14, 5e-14, 6e-14, 3e-13),
        1e-4: (6e-15, 8e-15, 2e-14, 7e-14,
               4e-15, 5e-15, 2e-14, 6e-14,
               5e-15, 7e-15, 8e-15, 4e-14),
    },
}


def _flipped(curve):
    return dataclasses.replace(curve, k2=-curve.k2, k2_mid=-curve.k2_mid)


def _seed_errors(name, h, flip=False):
    """{seed: largest angle error against the exact track, or the GeometryError the track ends in}.

    expm(s M) is built once and shared by the seeds; ``flip`` synthesizes on
    the directrix with the sign of k2 flipped, against the exact tracks of
    the true one.
    """
    cfg = RunConfig.from_file(CONFIG_DIR / f"{name}.json").with_overrides(step=h)
    curve = build_directrix(cfg)
    k1, k2 = float(curve.k1[0]), float(curve.k2[0])
    assert np.all(curve.k1 == k1) and np.all(curve.k2 == k2)
    s = curve.s[:: STRIDES[h]]
    flow = scipy.linalg.expm((s - s[0])[:, None, None] * linear_generator(cfg.system, cfg.params, k1, k2))
    pin = KINDS[cfg.system].pin
    errors = {}
    for seed in SEEDS:
        try:
            track = integrate_system(cfg.system, cfg.with_seed(*seed).params, _flipped(curve) if flip else curve)
        except GeometryError as err:
            errors[seed] = err
            continue
        theta, phi = exact_track(flow, seed[0], seed[1] if pin is None else pin)
        off = np.maximum(np.abs(track.theta[:: STRIDES[h]] - theta), np.abs(track.phi[:: STRIDES[h]] - phi))
        errors[seed] = float(np.max(off))
    return errors


def _bound_misses(name, h, errors):
    """The seeds of ``errors`` that leave their TRACK_BOUNDS entry, with what they gave."""
    misses = []
    for seed, bound in zip(SEEDS, TRACK_BOUNDS[name][h]):
        got = errors[seed]
        if bound is None:  # k1 = 1 on cylinder.json
            ok = isinstance(got, ThetaSingularityError) and abs(got.s - seed[0]) <= h
        else:
            ok = isinstance(got, float) and got <= bound
        if not ok:
            misses.append((name, h, seed, got))
    return misses


def test_default_seeds_stay_within_their_bounds_of_the_exact_track():
    errors = {(name, h): _seed_errors(name, h) for name in SEEDED_CONFIGS for h in STRIDES}
    assert [miss for (name, h), errs in errors.items() for miss in _bound_misses(name, h, errs)] == []
    # the worst seed stands far enough above roundoff at both steps to show the order
    coarse = [(errs[seed], name, seed) for (name, h), errs in errors.items() if h == 1e-3 for seed in SEEDS]
    worst, name, seed = max((e, name, seed) for e, name, seed in coarse if isinstance(e, float))
    order = math.log10(worst / errors[name, 1e-4][seed])
    assert 3.8 <= order <= 4.2, (name, seed, worst, order)


#: theta0 of general_roundtrip.json's (k1, k2, d, v0) seeds that all blow up on [0, 4]
DIVERGENT_THETA0 = (0.25, 0.5, 1.0, 2.0, 3.0)


def _exact_crossings():
    """{seed: the s in [0, 4] where the exact track's theta first reaches THETA_MAX}.

    There sinh(theta) lambda = |(U1, U2)| crosses sinh(THETA_MAX) lambda; a
    shared grid of expm(s M) brackets the crossing, and brentq finds it.
    """
    M = linear_generator(SystemKind.GENERAL_DV0, SynthesisParams(d=D, v0=V0), K1, K2)
    grid = np.linspace(0.0, 4.0, 401)
    flow = scipy.linalg.expm(grid[:, None, None] * M)
    crossings = {}
    for seed in [(theta0, phi0) for theta0 in DIVERGENT_THETA0 for phi0 in DEFAULT_PHI0_GRID]:
        u0 = linear_seed(*seed)

        def excess(s):
            u = scipy.linalg.expm(s * M) @ u0
            return math.hypot(u[1], u[2]) - math.sinh(THETA_MAX) * u[3]

        u = flow @ u0
        k = int(np.argmax(np.hypot(u[:, 1], u[:, 2]) - math.sinh(THETA_MAX) * u[:, 3] > 0.0))
        assert k > 0, seed
        crossings[seed] = scipy.optimize.brentq(excess, grid[k - 1], grid[k], xtol=1e-15)
    return crossings


def _crossing_misses(h, crossings, flip=False):
    """The divergent seeds whose track does not end in IntegrationDivergedError within one step after its crossing."""
    curve = integrate_frenet(K1, K2, s_range=(0.0, 4.0), step=h)
    misses = []
    for seed, crossing in crossings.items():
        params = SynthesisParams(theta0=seed[0], phi0=seed[1], d=D, v0=V0)
        try:
            got = integrate_system(SystemKind.GENERAL_DV0, params, _flipped(curve) if flip else curve)
        except GeometryError as err:
            got = err
        if not (isinstance(got, IntegrationDivergedError) and 0.0 < got.s - crossing <= h):
            misses.append((h, seed, crossing, got))
    return misses


def test_divergent_seeds_stop_within_a_step_after_the_exact_crossing():
    crossings = _exact_crossings()
    assert [miss for h in STRIDES for miss in _crossing_misses(h, crossings)] == []


def test_a_track_of_flipped_torsion_fails_both_exact_gates():
    for name in SEEDED_CONFIGS:
        if name != "cylinder":  # the only shipped directrix with k2 = 0
            assert _bound_misses(name, 1e-3, _seed_errors(name, 1e-3, flip=True)), name
    assert _crossing_misses(1e-3, _exact_crossings(), flip=True)
