import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from minkruled import (
    AngleTrack,
    Constant,
    Polynomial,
    RunConfig,
    Sinusoid,
    SynthesisParams,
    SystemKind,
    build_surface,
    dv0_from_n_mu,
    integrate_frenet,
    integrate_system,
    invariants_numeric,
    line_of_curvature_phi,
    lorentz_inner,
    ruling_from_angles,
)
from minkruled.errors import (
    GeometryError,
    GridMismatchError,
    IntegrationDivergedError,
    NoSolutionError,
    ParamDomainError,
    PhiSingularError,
    ThetaSingularityError,
)
from minkruled.surface import finite_difference
from minkruled.pipeline import build_directrix
from minkruled.verify import recompute_report
from minkruled.synthesis import (
    DEFAULT_PHI0_GRID,
    DEFAULT_THETA0_GRID,
    KINDS,
    AngleOperands,
    _coefficients,
    _replay_step,
    _rk4_track,
    angle_operands,
)
from conftest import random_boosted_frame
from reference import CylindricalRulingError, invariants_analytic, system_rhs

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = sorted(p.name for p in CONFIG_DIR.glob("*.json"))


class TestSystemRhs:
    def test_cylinder_at_phi_zero(self):
        params = SynthesisParams(theta0=1.0)
        tp, pp = system_rhs(SystemKind.CYLINDER, 0.8, 0.0, 0.0, params, 1.3, 0.4)
        assert tp == 0.0
        assert pp == pytest.approx(-0.4 + 1.3 * math.cosh(0.8) / math.sinh(0.8))

    def test_general_with_zero_d_reduces_to_developable(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            theta = rng.uniform(0.2, 2.0)
            phi = rng.uniform(0, 2 * math.pi)
            v0 = rng.uniform(0.2, 2.0) * rng.choice([-1, 1])
            k1, k2 = rng.uniform(0.1, 2.0, 2)
            general = SynthesisParams(theta0=1.0, d=0.0, v0=v0)
            developable = SynthesisParams(theta0=1.0, v0=v0)
            a = system_rhs(SystemKind.GENERAL_DV0, theta, phi, 0.0, general, k1, k2)
            b = system_rhs(SystemKind.DEVELOPABLE, theta, phi, 0.0, developable, k1, k2)
            assert a == pytest.approx(b, abs=1e-14)

    def test_curvature_angle_matches_general_under_map(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            theta = rng.uniform(0.1, 2.0)
            phi = rng.uniform(0, 2 * math.pi)
            n = rng.uniform(0.2, 10.0)
            mu = rng.uniform(0.1, math.pi - 0.1)
            k1, k2 = rng.uniform(0.1, 2.0, 2)
            d, v0 = dv0_from_n_mu(n, mu)
            a = system_rhs(
                SystemKind.CURVATURE_ANGLE, theta, phi, 0.0, SynthesisParams(theta0=1, n=n, mu=mu), k1, k2
            )
            b = system_rhs(
                SystemKind.GENERAL_DV0, theta, phi, 0.0, SynthesisParams(theta0=1, d=d, v0=v0), k1, k2
            )
            assert abs(a[0] - b[0]) < 1e-12
            assert abs(a[1] - b[1]) < 1e-12

    def test_theta_guard(self):
        with pytest.raises(ThetaSingularityError):
            system_rhs(SystemKind.CYLINDER, 1e-9, 0.0, 0.3, SynthesisParams(theta0=1), 1.0, 0.0)

    def test_line_of_curvature_has_no_rhs(self):
        with pytest.raises(ValueError):
            system_rhs(SystemKind.LINE_OF_CURVATURE, 1.0, 0.0, 0.0, SynthesisParams(n=1.0, C=0.0), 1.0, 0.1)

    def test_param_domain_checked(self):
        with pytest.raises(ParamDomainError):
            system_rhs(SystemKind.GENERAL_DV0, 1.0, 0.0, 0.0, SynthesisParams(theta0=1, d=0.0, v0=0.0), 1.0, 0.1)


#: (kind, k2, params, message) of a prescription the kind's rules reject
DOMAIN_REJECTIONS = [
    pytest.param(
        SystemKind.CURVATURE_ANGLE, 0.1, SynthesisParams(theta0=0.6, n=-1.0, mu=math.pi / 3), "requires n > 0",
        id="curvature-angle-negative-n",
    ),
    pytest.param(
        SystemKind.CURVATURE_ANGLE, 0.1, SynthesisParams(theta0=0.6, n=Polynomial((-1.0,)), mu=math.pi / 3),
        r"requires n > 0; n = -1 at s = 0$", id="curvature-angle-negative-polynomial-n",
    ),
    pytest.param(
        SystemKind.CURVATURE_ANGLE, 0.1, SynthesisParams(theta0=0.6, n=Polynomial((0.05, -1.0)), mu=math.pi / 3),
        r"requires n > 0; n = \S+ at s = 0\.05", id="curvature-angle-n-crossing-zero",
    ),
    pytest.param(
        SystemKind.LINE_OF_CURVATURE, 0.1, SynthesisParams(n=Polynomial((1.0, 0.1)), C=0.3), "takes a constant n",
        id="line-of-curvature-varying-n",
    ),
    pytest.param(
        SystemKind.ASYMPTOTIC_LINE, 0.0, SynthesisParams(theta0=0.6, mu=math.pi / 3), "requires k2 != 0",
        id="asymptotic-zero-torsion",
    ),
    pytest.param(
        SystemKind.ASYMPTOTIC_LINE, Sinusoid(0.2, 3.0, offset=-0.5), SynthesisParams(theta0=0.6, mu=math.pi / 3),
        "constant k2", id="asymptotic-varying-torsion",
    ),
    pytest.param(
        SystemKind.ASYMPTOTIC_LINE, -0.5, SynthesisParams(theta0=0.6, mu=math.pi / 3, n=3.0), "conflicts with -1/k2",
        id="asymptotic-inconsistent-n",
    ),
    pytest.param(
        SystemKind.ASYMPTOTIC_LINE, -0.5, SynthesisParams(theta0=0.6, mu=math.pi / 3, n=Polynomial((2.0, 0, 0, 0, 5.0))),
        "conflicts with -1/k2", id="asymptotic-drifting-n",  # n(0.1) = 2.0005 against -1/k2 = 2
    ),
    pytest.param(
        SystemKind.CURVATURE_ANGLE, 0.1, SynthesisParams(theta0=0.6, n=2.0, mu=0.0), r"sin\(mu\) = 0",
        id="curvature-angle-zero-mu",
    ),
    pytest.param(
        SystemKind.ASYMPTOTIC_LINE, -0.5, SynthesisParams(theta0=0.6, mu=0.0), r"sin\(mu\) = 0",
        id="asymptotic-zero-mu",
    ),
    # a needed param left unset: None or a non-finite number
    pytest.param(
        SystemKind.GENERAL_DV0, 0.1, SynthesisParams(theta0=0.6, d=0.5), r"^general_dv0 requires params\.v0$",
        id="general-without-v0",
    ),
    pytest.param(
        SystemKind.GENERAL_DV0, 0.1, SynthesisParams(theta0=0.6, d=math.inf, v0=0.3),
        r"^general_dv0 requires params\.d$", id="general-infinite-d",
    ),
    pytest.param(
        SystemKind.CURVATURE_ANGLE, 0.1, SynthesisParams(theta0=0.6, n=2.0, mu=math.inf),
        r"^curvature_angle requires params\.mu$", id="curvature-angle-infinite-mu",
    ),
    pytest.param(
        SystemKind.DEVELOPABLE, 0.1, SynthesisParams(theta0=-math.inf, v0=0.5), r"^developable requires params\.theta0$",
        id="developable-infinite-theta0",
    ),
]


class TestDomainRules:
    @pytest.mark.parametrize("kind, k2, params, message", DOMAIN_REJECTIONS)
    def test_integrate_system_rejects(self, kind, k2, params, message):
        curve = integrate_frenet(1.0, k2, s_range=(0.0, 0.1), step=1e-3)
        with pytest.raises(ParamDomainError, match=message):
            integrate_system(kind, params, curve)

    @pytest.mark.parametrize(
        "kind, k2, params, message", [row for row in DOMAIN_REJECTIONS if "theta0" not in row.values[3]]
    )
    def test_the_oracle_rejects_what_synthesis_rejects(self, kind, k2, params, message):
        """The oracle reads a prescription through synthesis's gate: the same error, on any surface."""
        curve = integrate_frenet(1.0, k2, s_range=(0.0, 0.1), step=1e-3)
        surface = build_surface(integrate_system(SystemKind.CYLINDER, SynthesisParams(theta0=0.6), curve), curve)
        with pytest.raises(ParamDomainError) as synthesized:
            integrate_system(kind, params, curve)
        with pytest.raises(ParamDomainError, match=message) as verified:
            recompute_report(surface, params, kind)
        assert (str(verified.value), verified.value.s) == (str(synthesized.value), synthesized.value.s)

    @pytest.mark.parametrize(
        "kind, n, message",
        [
            pytest.param(SystemKind.ASYMPTOTIC_LINE, 3.0, "conflicts with -1/k2", id="asymptotic-inconsistent-n"),
            pytest.param(SystemKind.CURVATURE_ANGLE, -1.0, "requires n > 0", id="curvature-angle-negative-n"),
        ],
    )
    def test_system_rhs_rejects(self, kind, n, message):
        params = SynthesisParams(theta0=0.6, mu=math.pi / 3, n=n)  # -1/k2 = 2 below
        with pytest.raises(ParamDomainError, match=message):
            system_rhs(kind, 0.6, 0.0, 0.0, params, 1.0, -0.5)


#: (kind, directrix (k1, k2), params, error, message, s) of a domain error that names an arc length
LOCATED_DOMAIN_ERRORS = [
    pytest.param(
        SystemKind.CURVATURE_ANGLE, (1.0, 0.1), SynthesisParams(theta0=0.6, mu=math.pi / 3, n=Polynomial((0.5, -1.0))),
        ParamDomainError, "curvature_angle requires n > 0; n = 0 at s = 0.5", 0.5, id="curvature-angle-n-not-positive",
    ),
    pytest.param(
        SystemKind.ASYMPTOTIC_LINE, (1.0, -0.5),
        SynthesisParams(theta0=0.6, mu=math.pi / 3, n=Polynomial((2.0, 0.0, 1.0))), ParamDomainError,
        "params.n = 2.000001 conflicts with -1/k2 = 2.0 at s = 0.001", 0.001, id="asymptotic-n-conflicts",
    ),
    pytest.param(
        SystemKind.LINE_OF_CURVATURE, (1.0, -1.0), SynthesisParams(n=1.0, C=math.pi / 2 - 0.5), PhiSingularError,
        "cos(phi) = 0 at s = 0.5", 0.5, id="phi-singular",
    ),
    pytest.param(
        SystemKind.LINE_OF_CURVATURE, (Polynomial((0.5, 1.0)), 0.0), SynthesisParams(n=1.0, C=0.0), NoSolutionError,
        "|n k1 cos(phi)| = 1.5 >= 1 at s = 1", 1.0, id="no-solution",
    ),
]


@pytest.mark.parametrize("kind, directrix, params, error, message, s", LOCATED_DOMAIN_ERRORS)
def test_domain_error_carries_the_arc_length_it_names(kind, directrix, params, error, message, s):
    curve = integrate_frenet(*directrix, s_range=(0.0, 1.0), step=1e-3)
    with pytest.raises(error) as err:
        integrate_system(kind, params, curve)
    assert (str(err.value), err.value.s) == (message, s)


class TestCylinderMode:
    def test_ruling_field_is_constant(self, flat_directrix):
        params = SynthesisParams(theta0=1.0, phi0=0.5)
        track = integrate_system(SystemKind.CYLINDER, params, flat_directrix)
        surf = build_surface(track, flat_directrix)
        qp = finite_difference(surf.q, surf.step)
        norms = np.sqrt(np.abs(lorentz_inner(qp, qp)))
        assert float(np.max(norms)) < 1e-6

    def test_theta_singularity_reports_location(self, flat_directrix):
        # phi = 3*pi/2 with k2 = 0 pins phi, so theta falls linearly and
        # crosses zero near s = theta0
        params = SynthesisParams(theta0=0.5, phi0=1.5 * math.pi)
        with pytest.raises(ThetaSingularityError) as err:
            integrate_system(SystemKind.CYLINDER, params, flat_directrix)
        assert err.value.s == pytest.approx(0.5, abs=0.05)

    def test_theta_crossing_between_samples_rejected(self, flat_directrix):
        # theta falls from 4.9e-4 at s = 0.5 to -5.1e-4 at s = 0.501; no
        # stage value comes within THETA_MIN of zero
        params = SynthesisParams(theta0=0.50049, phi0=1.5 * math.pi)
        with pytest.raises(ThetaSingularityError, match="changes sign") as err:
            integrate_system(SystemKind.CYLINDER, params, flat_directrix)
        assert err.value.s == pytest.approx(0.501, abs=1e-12)

    def test_theta_past_the_max_guard_fails_at_the_first_sample_past_it(self, flat_directrix):
        # with k2 = 0 and phi0 = pi/2, theta = theta0 + s rises through
        # THETA_MAX = 50 at s = 0.0995; the track fails with the band's error
        # at the next sample
        params = SynthesisParams(theta0=49.9005, phi0=0.5 * math.pi)
        with pytest.raises(IntegrationDivergedError, match="blows up") as err:
            integrate_system(SystemKind.CYLINDER, params, flat_directrix)
        assert err.value.s == pytest.approx(0.1, abs=1e-12)

    @pytest.mark.parametrize(
        "k1, theta0, past",
        [(1.0, 0.5005, 0.501), (1.0, 0.25037, 0.251), (Polynomial((1.0, 10.0)), 0.151002, 0.101)],
        ids=["midpoint", "off-midpoint", "growing-k1"],
    )
    def test_off_grid_crossing_ends_at_the_first_sample_past_it(self, k1, theta0, past):
        # with k2 = 0 and phi0 = 3 pi/2, theta = theta0 - integral(k1) crosses 0
        # between two samples (at s = 0.5005, 0.25037 and 0.1005004); the track
        # is rejected at the sample after the crossing, not at an RK4 stage
        curve = integrate_frenet(k1, 0.0, s_range=(0.0, 1.0), step=1e-3)
        params = SynthesisParams(theta0=theta0, phi0=1.5 * math.pi)
        with pytest.raises(ThetaSingularityError, match="changes sign") as err:
            integrate_system(SystemKind.CYLINDER, params, curve)
        assert err.value.s == pytest.approx(past, abs=1e-12)

    @pytest.mark.parametrize("theta0, phi0", [(0.3, 0.7), (2.0, 4.0), (-0.8, 1.0)])
    def test_ruling_is_the_seed_ruling_at_every_sample_of_a_turning_frame(self, theta0, phi0):
        # the torsion turns N and B about T, so phi moves along the track; the
        # ruling built from the track is q0 within 1e-13 of its size (at most
        # 9e-15 was measured on four boosted seed frames at h = 1e-3 and 1e-4)
        frame = np.array([[0.3, -0.2, 0.1], *random_boosted_frame(np.random.default_rng(2))])
        curve = integrate_frenet(
            Sinusoid(0.3, 2.0, 0.4, 1.2), Sinusoid(0.8, 3.0, 0.5, 0.4), s_range=(0.0, 1.0), step=1e-4,
            initial_frame=frame,
        )
        track = integrate_system(SystemKind.CYLINDER, SynthesisParams(theta0=theta0, phi0=phi0), curve)
        assert float(np.ptp(track.phi)) > 0.4
        q = build_surface(track, curve).q
        q0 = ruling_from_angles(curve.T[0], curve.N[0], curve.B[0], theta0, phi0)
        assert float(np.max(np.abs(q - q0))) <= 1e-13 * float(np.max(np.abs(q0)))


_WAVY_TORSION = Sinusoid(amplitude=0.05, frequency=3.0, offset=0.1)

#: (kind, k2, params) for every seeded kind; the directrix has k1 = 1 + s/2
#: on [0, 0.5], and the asymptotic kind needs constant torsion
SEEDED_CASES = [
    pytest.param(
        SystemKind.GENERAL_DV0, _WAVY_TORSION, SynthesisParams(theta0=0.8, phi0=0.4, d=Polynomial((0.5, 0.2)), v0=0.3),
        id="general_dv0",
    ),
    pytest.param(
        SystemKind.STRICTION_LINE, _WAVY_TORSION, SynthesisParams(theta0=0.8, phi0=0.4, d=Polynomial((0.5, 0.2))),
        id="striction_line",
    ),
    pytest.param(
        SystemKind.CURVATURE_ANGLE, _WAVY_TORSION,
        SynthesisParams(theta0=0.8, phi0=0.4, n=Polynomial((1.5, 0.3)), mu=1.1), id="curvature_angle",
    ),
    pytest.param(
        SystemKind.DEVELOPABLE, _WAVY_TORSION, SynthesisParams(theta0=0.9, phi0=1.2, v0=Polynomial((-2.0, 0.5))),
        id="developable",
    ),
    pytest.param(
        SystemKind.GENERAL_DV0, _WAVY_TORSION,
        SynthesisParams(theta0=-0.8, phi0=2.0, d=Polynomial((0.5, 0.2)), v0=0.3), id="general_dv0-negative-theta0",
    ),
    pytest.param(SystemKind.CYLINDER, _WAVY_TORSION, SynthesisParams(theta0=0.8, phi0=0.4), id="cylinder"),
    pytest.param(SystemKind.ASYMPTOTIC_LINE, -0.5, SynthesisParams(theta0=0.6, mu=math.pi / 3), id="asymptotic_line"),
]

#: (kind, directrix, params, error, message, located s) of a state guard
#: that trips at a stage, on the directrix ``_trip_directrix(**directrix)``.
#: With k2 = 0 and phi at 3 pi/2 the cylinder's theta falls as
#: integral(k1) from theta0: on k1 = 1 it reaches 0 at the second stage of
#: the step leaving s = 0.5 from theta0 = 0.5005 and at the fourth from
#: 0.501; on k1 = 1 + 10 s the midpoint k1 exceeds the sample's, so the
#: third stage falls below the guard where the second does not.  d = s -
#: 0.0125 with v0 = 0 vanishes at the midpoint 0.0125 of the step leaving
#: s = 0.012, and d = s - 0.25 exactly at the sample 0.25, the fourth stage
#: of the step leaving s = 0.249.  The rest trip only by propagation: a k1
#: of 1e308 at s = 0 makes the first phi' inf, so stage 2's phi is inf and
#: math.sin raises; d = 1.0003e308 (1 + s) first overflows to inf at the
#: midpoint 0.7975, where a = 0 and b = NaN, so stage 3's phi is NaN, and
#: d = 1e308 (1 + s) first at the sample 0.798, so the phi of that step's
#: end is NaN; and the developable's theta overshoots THETA_MAX at a stage 3.
STAGE_TRIPS = [
    pytest.param(
        SystemKind.CYLINDER, dict(k2=0.0), SynthesisParams(theta0=0.5005, phi0=1.5 * math.pi), ThetaSingularityError,
        "|theta| = 4.922e-16 below guard 1.0e-06 at s = 0.5005", 0.5005, id="theta-singularity",
    ),
    pytest.param(
        SystemKind.STRICTION_LINE, dict(k2=0.1), SynthesisParams(theta0=0.8, phi0=0.4, d=Polynomial((-0.0125, 1.0))),
        ParamDomainError, "d^2 + v0^2 = 0 at s = 0.0125", 0.0125, id="vanishing-d-and-v0",
    ),
    pytest.param(
        SystemKind.STRICTION_LINE, dict(k2=0.1), SynthesisParams(theta0=0.8, phi0=0.4, d=Polynomial((-0.25, 1.0))),
        ParamDomainError, "d^2 + v0^2 = 0 at s = 0.25", 0.25, id="vanishing-d-and-v0-at-sample",
    ),
    pytest.param(
        SystemKind.CYLINDER, dict(k1=Polynomial((1.0, 10.0)), k2=0.0),
        SynthesisParams(theta0=0.151002, phi0=1.5 * math.pi), ThetaSingularityError,
        "|theta| = 5.000e-07 below guard 1.0e-06 at s = 0.1005", 0.1005, id="theta-singularity-at-stage-3",
    ),
    pytest.param(
        SystemKind.CYLINDER, dict(k2=0.0), SynthesisParams(theta0=0.501, phi0=1.5 * math.pi), ThetaSingularityError,
        "|theta| = 4.372e-16 below guard 1.0e-06 at s = 0.501", 0.501, id="theta-singularity-at-stage-4",
    ),
    pytest.param(
        SystemKind.CYLINDER, dict(k2=0.0, k1_first=1e308), SynthesisParams(theta0=0.5, phi0=0.0),
        IntegrationDivergedError,
        "theta = 0.5, phi = inf at s = 0.0005: the prescribed system blows up in finite arc length on this interval",
        0.0005, id="phi-inf-at-stage-2",
    ),
    pytest.param(
        SystemKind.STRICTION_LINE, dict(k2=0.0),
        SynthesisParams(theta0=0.5, phi0=math.pi / 2, d=Polynomial((1.0003e308, 1.0003e308))),
        IntegrationDivergedError,
        "theta = 1.2975, phi = nan at s = 0.7975: the prescribed system blows up in finite arc length on this interval",
        0.7975, id="phi-nan-at-stage-3",
    ),
    pytest.param(
        SystemKind.STRICTION_LINE, dict(k2=0.0),
        SynthesisParams(theta0=0.5, phi0=math.pi / 2, d=Polynomial((1e308, 1e308))),
        IntegrationDivergedError,
        "theta = 1.298, phi = nan at s = 0.798: the prescribed system blows up in finite arc length on this interval",
        0.798, id="phi-nan-at-step-end",
    ),
    pytest.param(
        SystemKind.DEVELOPABLE, dict(k2=0.0), SynthesisParams(theta0=1.0, phi0=0.2, v0=0.3), IntegrationDivergedError,
        "theta = 7383.15, phi = 0.434175 at s = 0.2245: the prescribed system blows up in finite arc length on this "
        "interval", 0.2245, id="theta-above-max-at-stage-3",
    ),
]


def _trip_directrix(k2, k1=1.0, k1_first=None):
    """The directrix (k1, k2) on [0, 1] at step 1e-3, with k1 at s = 0 set to ``k1_first`` if given."""
    curve = integrate_frenet(k1, k2, s_range=(0.0, 1.0), step=1e-3)
    if k1_first is None:
        return curve
    return dataclasses.replace(curve, k1=np.concatenate([[k1_first], curve.k1[1:]]))


def _integrated(kind, params, curve, operands=None):
    """The RK4 track of ``kind``: ``integrate_system``, or for the cylinder,
    which it builds in closed form, its RK4 loop on the general system with
    a = b = 0, whose operands are (k1, 0, -k2)."""
    if KINDS[kind].track is None:
        return integrate_system(kind, params, curve, operands)
    zero, zero_mid = np.zeros_like(curve.k2), np.zeros_like(curve.k2_mid)
    operands = AngleOperands((curve.k1, zero, zero - curve.k2), (curve.k1_mid, zero_mid, zero_mid - curve.k2_mid))
    return _rk4_track(curve.s, operands, float(params.theta0), float(params.phi0), False)


def _stage_by_stage_rk4(kind, params, curve):
    """The angle RK4 by its definition: four ``system_rhs`` stages per step,
    fed the directrix curvatures at the samples and step midpoints."""
    h = curve.step
    half, sixth = 0.5 * h, h / 6.0
    mid = curve.s[:-1] + h / 2
    pin = KINDS[kind].pin
    t, p = float(params.theta0), float(params.phi0) if pin is None else pin

    def rhs(x, y, s, k1, k2):
        return system_rhs(kind, x, y, float(s), params, float(k1), float(k2))

    a1, b1 = rhs(t, p, curve.s[0], curve.k1[0], curve.k2[0])
    out = [(t, p)]
    for i in range(1, curve.n_samples):
        a2, b2 = rhs(t + half * a1, p + half * b1, mid[i - 1], curve.k1_mid[i - 1], curve.k2_mid[i - 1])
        a3, b3 = rhs(t + half * a2, p + half * b2, mid[i - 1], curve.k1_mid[i - 1], curve.k2_mid[i - 1])
        a4, b4 = rhs(t + h * a3, p + h * b3, curve.s[i], curve.k1[i], curve.k2[i])
        t = t + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        p = p + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        a1, b1 = rhs(t, p, curve.s[i], curve.k1[i], curve.k2[i])
        out.append((t, p))
    return [np.array(col) for col in zip(*out)]


class TestGeneralMode:
    def test_round_trip_recovers_prescription(self, unit_directrix):
        params = SynthesisParams(theta0=1.0, phi0=0.2, d=0.5, v0=0.3)
        track = integrate_system(SystemKind.GENERAL_DV0, params, unit_directrix)
        surf = build_surface(track, unit_directrix)
        inv = invariants_numeric(surf)
        sl = slice(1, -1)
        assert np.max(np.abs(inv.d[sl] - 0.5) / 0.5) <= 1e-4
        assert np.max(np.abs(inv.v0[sl] - 0.3) / 0.3) <= 1e-4

    def test_function_valued_prescription(self, unit_directrix):
        d_fn = Sinusoid(amplitude=0.1, frequency=2.0, offset=0.5)
        params = SynthesisParams(theta0=0.8, phi0=0.4, d=d_fn, v0=0.3)
        track = integrate_system(SystemKind.GENERAL_DV0, params, unit_directrix)
        surf = build_surface(track, unit_directrix)
        inv = invariants_numeric(surf)
        sl = slice(1, -1)
        expected = d_fn(unit_directrix.s)[sl]
        assert np.max(np.abs(inv.d[sl] - expected) / np.abs(expected)) <= 1e-4

    def test_finite_s_blowup_raises(self):
        curve = integrate_frenet(1.0, 0.1, s_range=(0.0, 1.0), step=1e-3)
        params = SynthesisParams(theta0=1.0, phi0=0.2, d=0.5, v0=0.3)
        with pytest.raises(IntegrationDivergedError) as err:
            integrate_system(SystemKind.GENERAL_DV0, params, curve)
        assert 0.7 < err.value.s <= 1.0

    def test_blowup_sample_is_pinned(self):
        # the divergence guard trips at one exact sample and state
        curve = integrate_frenet(1.0, 0.1, s_range=(0.0, 1.0), step=1e-3)
        params = SynthesisParams(theta0=1.0, phi0=0.2, d=0.5, v0=0.3)
        with pytest.raises(IntegrationDivergedError) as err:
            integrate_system(SystemKind.GENERAL_DV0, params, curve)
        assert err.value.s == curve.s[842]
        assert "theta = 1.54819e+07" in str(err.value)

    @pytest.mark.parametrize("kind, k2, params", SEEDED_CASES)
    def test_closed_forms_reproduce_prescription(self, kind, k2, params):
        # the paper's closed forms for (d, v0), fed the track and the system's
        # (theta', phi') at every sample, give back what the kind prescribes;
        # a kind that prescribes nothing, the cylinder, has q' = 0 everywhere
        curve = integrate_frenet(Polynomial((1.0, 0.5)), k2, s_range=(0.0, 0.5), step=1e-3)
        track = integrate_system(kind, params, curve)
        rates = np.array(
            [
                system_rhs(kind, float(x), float(y), float(s), params, float(k1), float(k2))
                for x, y, s, k1, k2 in zip(track.theta, track.phi, track.s, curve.k1, curve.k2)
            ]
        )
        prescribed = KINDS[kind].prescribe(params, curve.s, curve.k2)
        if not prescribed:
            with pytest.raises(CylindricalRulingError):
                invariants_analytic(track, curve, *rates.T)
            return
        inv = invariants_analytic(track, curve, *rates.T)
        for name, want in prescribed.items():
            off = np.abs(getattr(inv, name) - want) - 1e-13 * np.maximum(1.0, np.abs(want))
            assert float(np.max(off)) <= 0.0, name

    @pytest.mark.parametrize("kind, k2, params", SEEDED_CASES)
    def test_track_equals_stage_by_stage_rk4(self, kind, k2, params):
        curve = integrate_frenet(Polynomial((1.0, 0.5)), k2, s_range=(0.0, 0.5), step=1e-3)
        track = _integrated(kind, params, curve)
        theta, phi = _stage_by_stage_rk4(kind, params, curve)
        assert np.array_equal(track.theta, theta)
        assert np.array_equal(track.phi, phi)

    @given(
        case=st.sampled_from([case.id for case in SEEDED_CASES]),
        theta0=st.floats(0.05, 3.0),
        negative=st.booleans(),
        phi0=st.floats(0.0, 2.0 * math.pi),
        steps=st.integers(1, 300),
    )
    @example(case="cylinder", theta0=0.05, negative=False, phi0=1.5 * math.pi, steps=300)
    @example(case="general_dv0", theta0=1.0, negative=False, phi0=0.2, steps=300)
    @example(case="curvature_angle", theta0=1.0, negative=True, phi0=1.0, steps=300)
    @example(case="asymptotic_line", theta0=3.0, negative=False, phi0=0.0, steps=300)
    def test_track_or_error_equals_stage_by_stage_rk4(self, case, theta0, negative, phi0, steps):
        # the examples fail: the cylinder's theta changes sign near s = 0.05,
        # and the other three blow up, the curvature-angle one to -inf
        kind, k2, params = next(c.values for c in SEEDED_CASES if c.id == case)
        params = dataclasses.replace(params, theta0=-theta0 if negative else theta0, phi0=phi0)
        curve = integrate_frenet(Polynomial((1.0, 0.5)), k2, s_range=(0.0, steps * 1e-2), step=1e-2)

        def outcome(run):
            try:
                track = run()
            except GeometryError as err:
                return type(err), str(err), getattr(err, "s", None)
            return track.theta.tobytes(), track.phi.tobytes()

        assert outcome(lambda: _integrated(kind, params, curve)) == outcome(
            lambda: AngleTrack(curve.s.copy(), *_stage_by_stage_rk4(kind, params, curve))
        )

    @pytest.mark.parametrize("kind, directrix, params, error, message, s", STAGE_TRIPS)
    def test_guard_trips_at_its_stage(self, kind, directrix, params, error, message, s):
        curve = _trip_directrix(**directrix)
        with pytest.raises(error) as err:
            _integrated(kind, params, curve)
        assert (str(err.value), err.value.s) == (message, s)
        with pytest.raises(error) as shared:  # the replay reads the same operands when a sweep shares them
            _integrated(kind, params, curve, angle_operands(kind, params, curve))
        assert (str(shared.value), shared.value.s) == (message, s)
        with pytest.raises(error) as ref:
            _stage_by_stage_rk4(kind, params, curve)
        assert (str(ref.value), ref.value.s) == (message, s)

    def test_replay_of_a_step_that_trips_no_guard_raises_a_located_error(self):
        c = (1.0, 0.3 / 0.34, -0.5 / 0.34 - 0.1)  # k1, a and b - k2 of d = 0.5, v0 = 0.3 and k2 = 0.1
        with pytest.raises(IntegrationDivergedError, match="no stage of its replay trips") as err:
            _replay_step((0.8, 0.4, 0.0, 0.0), 1e-3, (0.0005, c), (0.001, c), False)
        assert err.value.s == 0.001

    def test_seed_below_guard_rejected_at_start(self, unit_directrix):
        params = SynthesisParams(theta0=1e-9, phi0=0.2, d=0.5, v0=0.3)
        with pytest.raises(ThetaSingularityError) as err:
            integrate_system(SystemKind.GENERAL_DV0, params, unit_directrix)
        assert err.value.s == pytest.approx(0.0)

    def test_distinct_seeds_give_distinct_tracks(self, unit_directrix):
        base = dict(d=0.5, v0=0.3)
        t1 = integrate_system(SystemKind.GENERAL_DV0, SynthesisParams(theta0=0.5, phi0=0.0, **base), unit_directrix)
        t2 = integrate_system(SystemKind.GENERAL_DV0, SynthesisParams(theta0=0.5, phi0=math.pi / 2, **base), unit_directrix)
        assert float(np.max(np.abs(t1.theta - t2.theta))) > 1e-3

    def test_missing_params_rejected(self, unit_directrix):
        with pytest.raises(ParamDomainError):
            integrate_system(SystemKind.GENERAL_DV0, SynthesisParams(theta0=1.0, d=0.5), unit_directrix)


class TestStrictionAndDevelopable:
    def test_striction_mode(self, unit_directrix):
        params = SynthesisParams(theta0=1.0, phi0=0.5, d=0.5)
        track = integrate_system(SystemKind.STRICTION_LINE, params, unit_directrix)
        surf = build_surface(track, unit_directrix)
        inv = invariants_numeric(surf)
        sl = slice(1, -1)
        assert float(np.max(np.abs(inv.v0[sl]))) < 1e-6
        assert np.max(np.abs(inv.d[sl] - 0.5) / 0.5) <= 1e-4

    def test_central_points_equal_base(self, unit_directrix):
        from minkruled.lorentz import lorentz_norm

        params = SynthesisParams(theta0=1.0, phi0=0.5, d=0.5)
        track = integrate_system(SystemKind.STRICTION_LINE, params, unit_directrix)
        surf = build_surface(track, unit_directrix)
        inv = invariants_numeric(surf)
        c = unit_directrix.k + inv.v0[:, None] * surf.q  # the striction curve
        assert float(np.max(lorentz_norm(c - unit_directrix.k))) < 1e-5

    def test_developable_mode(self):
        curve = integrate_frenet(1.0, 0.15, s_range=(0.0, 1.0), step=1e-3)
        params = SynthesisParams(theta0=0.9, phi0=1.2, v0=-2.0)
        track = integrate_system(SystemKind.DEVELOPABLE, params, curve)
        surf = build_surface(track, curve)
        inv = invariants_numeric(surf)
        sl = slice(1, -1)
        assert float(np.max(np.abs(inv.d[sl]))) < 1e-6
        assert np.max(np.abs(inv.v0[sl] + 2.0) / 2.0) <= 1e-4



class TestCoefficients:
    """``_coefficients``: a = v0 / (d^2 + v0^2) and b = -d / (d^2 + v0^2), whatever the size of (d, v0)."""

    @staticmethod
    def coefficients(kind, **params):
        s = np.linspace(0.0, 1.0, 3)
        return _coefficients(kind, SynthesisParams(theta0=0.5, **params), s, np.zeros(3))

    # d^2 underflows into the subnormals (the first two) or to zero, or overflows
    @pytest.mark.parametrize("d", [1e-158, 2.3e-162, -1e-300, 1e200, 1e308])
    def test_striction_line_b_is_minus_one_over_d(self, d):
        a, b = self.coefficients(SystemKind.STRICTION_LINE, d=d)
        assert np.all(a == 0.0)
        np.testing.assert_allclose(b, -1.0 / d, rtol=4e-16, atol=0.0)

    @pytest.mark.parametrize("v0", [1e-158, -2.3e-162, 1e-300])
    def test_developable_a_is_one_over_v0(self, v0):
        a, b = self.coefficients(SystemKind.DEVELOPABLE, v0=v0)
        assert np.all(b == 0.0)
        np.testing.assert_allclose(a, 1.0 / v0, rtol=4e-16, atol=0.0)

    def test_unscaled_quotients_kept_where_they_are_normal(self):
        rng = np.random.default_rng(11)
        tiny, checked = np.finfo(float).tiny, 0
        for d, v0 in rng.choice([-1.0, 1.0], (300, 2)) * 10.0 ** rng.uniform(-150.0, 150.0, (300, 2)):
            denom = d * d + v0 * v0
            want = np.array([v0 / denom, -d / denom])
            if tiny <= denom < math.inf and np.all(np.abs(want) >= tiny):
                a, b = self.coefficients(SystemKind.GENERAL_DV0, d=float(d), v0=float(v0))
                assert np.all(a == want[0]) and np.all(b == want[1])
                checked += 1
        assert checked > 200

    def test_zero_d_and_v0_give_nan(self):
        a, b = self.coefficients(SystemKind.GENERAL_DV0, d=0.0, v0=0.0)
        assert np.all(np.isnan(a)) and np.all(np.isnan(b))

class TestBuildSurface:
    def test_constant_track_example(self, flat_directrix):
        from minkruled import AngleTrack

        n = flat_directrix.n_samples
        track = AngleTrack(s=flat_directrix.s, theta=np.ones(n), phi=np.zeros(n))
        surf = build_surface(track, flat_directrix)
        expected = math.cosh(1) * flat_directrix.T + math.sinh(1) * flat_directrix.B
        assert np.max(np.abs(surf.q - expected)) < 1e-12

    def test_unit_ruling_invariant(self, unit_directrix):
        params = SynthesisParams(theta0=0.7, phi0=1.0, d=0.4, v0=0.2)
        track = integrate_system(SystemKind.GENERAL_DV0, params, unit_directrix)
        surf = build_surface(track, unit_directrix)
        assert np.max(np.abs(lorentz_inner(surf.q, surf.q) + 1.0)) < 1e-12

    def test_grid_mismatch_rejected(self, unit_directrix, flat_directrix):
        params = SynthesisParams(theta0=1.0, phi0=0.5)
        track = integrate_system(SystemKind.CYLINDER, params, unit_directrix)
        with pytest.raises(GridMismatchError):
            build_surface(track, flat_directrix)

    def test_shifted_grid_of_the_same_length_rejected(self, unit_directrix):
        params = SynthesisParams(theta0=1.0, phi0=0.5)
        track = integrate_system(SystemKind.CYLINDER, params, unit_directrix)
        shifted = dataclasses.replace(track, s=track.s + 0.1)
        with pytest.raises(GridMismatchError):
            build_surface(shifted, unit_directrix)


class TestGeodesic:
    def test_fixed_point_holds(self):
        n, k1, k2 = 1.0, 0.6, 0.2
        curve = integrate_frenet(k1, k2, s_range=(0.0, 1.0), step=1e-3)
        theta0 = math.atanh(0.5)  # tanh(theta) = n k1 / (n k2 + 1)
        params = SynthesisParams(theta0=theta0, phi0=0.0, n=n, mu=math.pi / 2)
        track = integrate_system(SystemKind.CURVATURE_ANGLE, params, curve)
        assert float(np.max(np.abs(track.theta - theta0))) < 1e-8
        assert float(np.max(np.abs(track.phi))) < 1e-8


class TestAsymptoticMode:
    def test_phi_pinned_and_consistent(self):
        curve = integrate_frenet(1.0, -0.5, s_range=(0.0, 1.0), step=1e-3)
        params = SynthesisParams(theta0=0.6, mu=math.pi / 3, n=2.0)
        track = integrate_system(SystemKind.ASYMPTOTIC_LINE, params, curve)
        assert np.array_equal(track.phi, np.full_like(track.phi, math.pi / 2))


class TestLineOfCurvature:
    def test_phi_quadrature_constant_torsion(self):
        curve = integrate_frenet(1.0, Constant(0.4), s_range=(0.0, 1.0), step=1e-2)
        s = curve.s
        assert s.shape == (101,)
        phi = line_of_curvature_phi(curve, 0.3)
        assert np.allclose(phi, -0.4 * s + 0.3, atol=1e-13)

    def test_phi_quadrature_zero_torsion(self):
        curve = integrate_frenet(1.0, Constant(0.0), s_range=(0.0, 1.0), step=2e-2)
        s = curve.s
        assert s.shape == (51,)
        phi = line_of_curvature_phi(curve, 0.7)
        assert np.array_equal(phi, np.full_like(s, 0.7))

    def test_phi_prime_matches_minus_torsion(self):
        k2 = Sinusoid(0.3, 5.0, offset=0.1)
        curve = integrate_frenet(1.0, k2, s_range=(0.0, 1.0), step=1e-3)
        s = curve.s
        assert s.shape == (1001,)
        phi = line_of_curvature_phi(curve, 0.0)
        h = s[1] - s[0]
        fd = (phi[2:] - phi[:-2]) / (2 * h)
        assert np.max(np.abs(fd + k2(s[1:-1]))) < 5 * h**2

    def test_angle_relation_errors(self):
        # k2 = 0 holds phi at C; tanh(theta) = n k1 cos(phi) needs cos(phi) != 0 and |n k1 cos(phi)| < 1
        curve = integrate_frenet(1.0, 0.0, s_range=(0.0, 0.1), step=1e-3)
        with pytest.raises(PhiSingularError, match="cos"):
            integrate_system(SystemKind.LINE_OF_CURVATURE, SynthesisParams(n=1.0, C=math.pi / 2), curve)
        with pytest.raises(NoSolutionError, match="n k1 cos"):
            integrate_system(SystemKind.LINE_OF_CURVATURE, SynthesisParams(n=3.0, C=0.0), curve)

    def test_track_satisfies_angle_relation(self):
        curve = integrate_frenet(0.6, 0.2, s_range=(0.0, 1.0), step=1e-3)
        params = SynthesisParams(n=1.0, C=0.3)
        track = integrate_system(SystemKind.LINE_OF_CURVATURE, params, curve)
        lhs = np.tanh(track.theta) / np.cos(track.phi)
        assert np.max(np.abs(lhs - 1.0 * curve.k1)) < 1e-12

    def test_theta_guard_names_nearest_sample(self):
        # phi = C - 0.1 s passes pi/2 + 3e-7 at s = 0.5, where
        # |theta| = |artanh(n k1 cos(phi))| is about 2.4e-7, below THETA_MIN
        curve = integrate_frenet(0.8, 0.1, s_range=(0.0, 1.0), step=1e-3)
        params = SynthesisParams(n=1.0, C=math.pi / 2 + 0.05 + 3e-7)
        with pytest.raises(ThetaSingularityError) as err:
            integrate_system(SystemKind.LINE_OF_CURVATURE, params, curve)
        assert err.value.s == 0.5


@pytest.mark.parametrize("name", SHIPPED)
def test_shared_operands_give_the_tracks_and_errors_of_each_seed(name):
    """A sweep's operands, built once from the config's params, give every seed its own track or error."""
    cfg = RunConfig.from_file(CONFIG_DIR / name)
    curve = build_directrix(cfg)
    seeds = [(theta0, phi0) for theta0 in (math.nan, 0.0, 0.05, *DEFAULT_THETA0_GRID) for phi0 in DEFAULT_PHI0_GRID]
    operands = angle_operands(cfg.system, cfg.params, curve)
    assert (operands is None) == (KINDS[cfg.system].track is not None)
    seeded = KINDS[cfg.system].seeded

    def outcome(params, *shared):
        try:
            track = integrate_system(cfg.system, params, curve, *shared)
        except GeometryError as err:
            return type(err), str(err), err.s
        return track

    errors = 0
    for seed in seeds:
        params = cfg.with_seed(*seed).params
        own, shared = outcome(params), outcome(params, operands)
        if isinstance(own, AngleTrack):
            assert all(np.array_equal(getattr(own, x), getattr(shared, x)) for x in ("s", "theta", "phi"))
        else:
            assert own == shared
            errors += 1
        if seeded and math.isnan(seed[0]):
            assert own[:2] == (ParamDomainError, f"{cfg.system.value} requires params.theta0")
    assert errors >= (8 if seeded else 0)  # theta0 = nan and 0 at least


@pytest.mark.parametrize("name", SHIPPED)
def test_angle_operands_are_k1_a_and_b_minus_k2_at_samples_and_midpoints(name):
    """One layout, (k1, a, b - k2), at the samples and step midpoints, with the directrix's own k1;
    a kind built in closed form has none."""
    cfg = RunConfig.from_file(CONFIG_DIR / name)
    curve = build_directrix(cfg)
    operands = angle_operands(cfg.system, cfg.params, curve)
    if KINDS[cfg.system].track is not None:
        assert operands is None
        return
    assert [f.name for f in dataclasses.fields(operands)] == ["node", "middle"]
    assert operands.node[0] is curve.k1 and operands.middle[0] is curve.k1_mid
    mid = curve.s[:-1] + 0.5 * curve.step
    for at, s, k2 in ((operands.node, curve.s, curve.k2), (operands.middle, mid, curve.k2_mid)):
        assert len(at) == 3 and all(isinstance(x, np.ndarray) and x.shape == s.shape for x in at)
        a, b = _coefficients(cfg.system, cfg.params, s, k2)
        assert np.array_equal(at[1], a) and np.array_equal(at[2], b - k2)
