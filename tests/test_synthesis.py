import math

import numpy as np
import pytest

from minkruled import (
    Constant,
    Polynomial,
    Sinusoid,
    SynthesisParams,
    SystemKind,
    build_surface,
    dv0_from_n_mu,
    geodesic_theta,
    helix_relation_defect,
    integrate_frenet,
    integrate_system,
    invariants_numeric,
    line_of_curvature_phi,
    locus_theta,
    lorentz_inner,
    phi_from_theta_mu,
    system_rhs,
)
from minkruled.errors import (
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
from minkruled.surface import finite_difference


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

    def test_stored_derivatives_equal_rhs(self):
        curve = integrate_frenet(
            Polynomial((1.0, 0.5)), Sinusoid(amplitude=0.05, frequency=3.0, offset=0.1), s_range=(0.0, 0.5), step=1e-3
        )
        params = SynthesisParams(theta0=0.8, phi0=0.4, d=Polynomial((0.5, 0.2)), v0=0.3)
        kind = SystemKind.GENERAL_DV0
        track = integrate_system(kind, params, curve)
        for i in range(track.n_samples):
            rhs = system_rhs(
                kind, float(track.theta[i]), float(track.phi[i]), float(track.s[i]), params, curve.k1[i], curve.k2[i]
            )
            assert rhs == (track.theta_prime[i], track.phi_prime[i])

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

    def test_step_mismatch_rejected(self, unit_directrix):
        params = SynthesisParams(theta0=1.0, phi0=0.2, d=0.5, v0=0.3, step=2e-3)
        with pytest.raises(GridMismatchError):
            integrate_system(SystemKind.GENERAL_DV0, params, unit_directrix)


class TestStrictionAndDevelopable:
    def test_striction_mode(self, unit_directrix):
        params = SynthesisParams(theta0=1.0, phi0=0.5, d=0.5)
        track = integrate_system(SystemKind.STRICTION_LINE, params, unit_directrix)
        surf = build_surface(track, unit_directrix)
        inv = invariants_numeric(surf)
        sl = slice(1, -1)
        assert float(np.max(np.abs(inv.v0[sl]))) < 1e-6
        assert np.max(np.abs(inv.d[sl] - 0.5) / 0.5) <= 1e-4

    def test_striction_curve_equals_base(self, unit_directrix):
        from minkruled import striction_curve
        from minkruled.lorentz import lorentz_norm

        params = SynthesisParams(theta0=1.0, phi0=0.5, d=0.5)
        track = integrate_system(SystemKind.STRICTION_LINE, params, unit_directrix)
        surf = build_surface(track, unit_directrix)
        inv = invariants_numeric(surf)
        c = striction_curve(surf, inv)
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


class TestBuildSurface:
    def test_constant_track_example(self, flat_directrix):
        from minkruled import AngleTrack

        n = flat_directrix.n_samples
        track = AngleTrack(
            s=flat_directrix.s,
            theta=np.ones(n),
            phi=np.zeros(n),
            theta_prime=np.zeros(n),
            phi_prime=np.zeros(n),
        )
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


class TestGeodesic:
    def test_angle_formula(self):
        assert geodesic_theta(1.0, 0.6, 0.2) == pytest.approx(math.atanh(0.5))

    def test_no_solution(self):
        with pytest.raises(NoSolutionError):
            geodesic_theta(1.0, 2.0, 0.0)

    def test_degenerate_denominator(self):
        with pytest.raises(DegenerateDenominatorError):
            geodesic_theta(2.0, 1.0, -0.5)

    def test_vanishing_curvature_flagged_downstream(self, unit_directrix):
        # k1 -> 0 gives theta = 0, which the seed guard must reject
        theta0 = geodesic_theta(1.0, 1e-13, 0.2)
        assert theta0 == pytest.approx(0.0, abs=1e-12)
        params = SynthesisParams(theta0=theta0, phi0=0.0, n=1.0, mu=math.pi / 2)
        with pytest.raises(ThetaSingularityError):
            integrate_system(SystemKind.CURVATURE_ANGLE, params, unit_directrix)

    def test_fixed_point_holds(self):
        n, k1, k2 = 1.0, 0.6, 0.2
        curve = integrate_frenet(k1, k2, s_range=(0.0, 1.0), step=1e-3)
        theta0 = geodesic_theta(n, k1, k2)
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
        assert np.array_equal(track.phi_prime, np.zeros_like(track.phi_prime))

    def test_inconsistent_n_rejected(self):
        curve = integrate_frenet(1.0, -0.5, s_range=(0.0, 0.1), step=1e-3)
        params = SynthesisParams(theta0=0.6, mu=math.pi / 3, n=3.0)  # -1/k2 = 2
        with pytest.raises(ParamDomainError):
            integrate_system(SystemKind.ASYMPTOTIC_LINE, params, curve)

    def test_varying_torsion_rejected(self):
        curve = integrate_frenet(1.0, Sinusoid(0.2, 3.0, offset=-0.5), s_range=(0.0, 0.2), step=1e-3)
        params = SynthesisParams(theta0=0.6, mu=math.pi / 3)
        with pytest.raises(ParamDomainError):
            integrate_system(SystemKind.ASYMPTOTIC_LINE, params, curve)


class TestLineOfCurvature:
    def test_phi_quadrature_constant_torsion(self):
        s = np.linspace(0.0, 1.0, 101)
        phi = line_of_curvature_phi(Constant(0.4), 0.3, s)
        assert np.allclose(phi, -0.4 * s + 0.3, atol=1e-13)

    def test_phi_quadrature_zero_torsion(self):
        s = np.linspace(0.0, 1.0, 51)
        phi = line_of_curvature_phi(Constant(0.0), 0.7, s)
        assert np.array_equal(phi, np.full_like(s, 0.7))

    def test_phi_prime_matches_minus_torsion(self):
        s = np.linspace(0.0, 1.0, 1001)
        k2 = Sinusoid(0.3, 5.0, offset=0.1)
        phi = line_of_curvature_phi(k2, 0.0, s)
        h = s[1] - s[0]
        fd = (phi[2:] - phi[:-2]) / (2 * h)
        assert np.max(np.abs(fd + k2(s[1:-1]))) < 5 * h**2

    def test_locus_theta_values(self):
        assert locus_theta(1.0, 0.5, math.acos(1.0)) == pytest.approx(math.atanh(0.5))
        assert locus_theta(1.0, math.tanh(1.0), 0.0) == pytest.approx(1.0)

    def test_locus_theta_errors(self):
        with pytest.raises(PhiSingularError):
            locus_theta(1.0, 0.5, math.pi / 2)
        with pytest.raises(NoSolutionError):
            locus_theta(3.0, 1.0, 0.0)

    def test_track_satisfies_angle_relation(self):
        curve = integrate_frenet(0.6, 0.2, s_range=(0.0, 1.0), step=1e-3)
        params = SynthesisParams(n=1.0, C=0.3)
        track = integrate_system(SystemKind.LINE_OF_CURVATURE, params, curve)
        lhs = np.tanh(track.theta) / np.cos(track.phi)
        assert np.max(np.abs(lhs - 1.0 * curve.k1)) < 1e-12
        assert np.array_equal(track.phi_prime, -curve.k2)


class TestPhiFromThetaMu:
    def test_right_angle(self):
        assert phi_from_theta_mu(1.3, math.pi / 2) == pytest.approx(0.0, abs=1e-12)

    def test_zero_theta(self):
        assert phi_from_theta_mu(0.0, math.pi / 4) == pytest.approx(-math.pi / 4)

    def test_degenerate(self):
        with pytest.raises(DegenerateAngleError):
            phi_from_theta_mu(1.0, 0.0)

    def test_consistent_with_component_pair(self):
        # dividing k1 sin(phi) = -(1/n) sinh(theta) cot(mu) by
        # k1 cos(phi) = (1/n) tanh(theta) reproduces the phi relation
        theta, mu, n = 0.8, 1.1, 1.5
        phi = phi_from_theta_mu(theta, mu)
        k1 = math.tanh(theta) / (n * math.cos(phi))
        lhs = k1 * math.sin(phi)
        rhs = -(1.0 / n) * math.sinh(theta) * math.cos(mu) / math.sin(mu)
        assert lhs == pytest.approx(rhs, abs=1e-14)


class TestHelixDefect:
    def test_matching_helix(self):
        curve = integrate_frenet(2.0, 1.0, s_range=(0.0, 0.3), step=1e-3)
        theta = 1.0
        mu = math.atan2(math.sinh(theta), 2.0)  # sinh(theta) cot(mu) = 2
        assert helix_relation_defect(theta, mu, curve) < 1e-12

    def test_mismatched_target(self):
        curve = integrate_frenet(2.0, 1.0, s_range=(0.0, 0.3), step=1e-3)
        theta = 1.0
        mu = math.atan2(math.sinh(theta), 1.5)
        assert helix_relation_defect(theta, mu, curve) == pytest.approx(0.5, abs=1e-12)

    def test_non_helix_has_positive_defect(self):
        curve = integrate_frenet(Polynomial((1.0, 1.0)), 1.0, s_range=(0.0, 1.0), step=1e-3)
        theta = 1.0
        mu = math.atan2(math.sinh(theta), 1.5)
        assert helix_relation_defect(theta, mu, curve) > 0.1

    def test_vanishing_torsion(self):
        curve = integrate_frenet(1.0, 0.0, s_range=(0.0, 0.1), step=1e-3)
        with pytest.raises(TorsionVanishesError):
            helix_relation_defect(1.0, 1.0, curve)
