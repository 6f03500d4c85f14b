import math
from pathlib import Path

import numpy as np
import pytest

from minkruled import (
    AngleTrack,
    RuledSurfaceGrid,
    RunConfig,
    build_surface,
    curvature_relations,
    dv0_from_n_mu,
    integrate_frenet,
    invariants_numeric,
    lorentz_inner,
    ruling_from_angles,
)
from minkruled.errors import (
    AllCylindricalError,
    GridMismatchError,
    IntegrationDivergedError,
    NotUnitTimelikeError,
    ThetaSingularityError,
)
from minkruled.pipeline import build_directrix, run_config, synthesize_surface
from minkruled.surface import finite_difference
from minkruled.verify import _normals_along_directrix
from conftest import random_boosted_frame
from reference import CylindricalRulingError, invariants_analytic, q_prime_analytic

E1, E2, E3 = np.eye(3)
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def planar_surface(step=1e-3):
    """Hyperbolic directrix in the x3 = 0 plane with the constant ruling e1."""
    curve = integrate_frenet(1.0, 0.0, s_range=(0.0, 1.0), step=step)
    q = np.tile(E1, (curve.n_samples, 1))
    return RuledSurfaceGrid(directrix=curve, q=q)


def assert_frame_components(q, T, N, B, theta, phi):
    """-<q,T> = cosh(theta), <q,N> = -sinh(theta) sin(phi), <q,B> = sinh(theta) cos(phi)."""
    assert -lorentz_inner(q, T) == pytest.approx(math.cosh(theta), abs=1e-12)
    assert lorentz_inner(q, N) == pytest.approx(-math.sinh(theta) * math.sin(phi), abs=1e-12)
    assert lorentz_inner(q, B) == pytest.approx(math.sinh(theta) * math.cos(phi), abs=1e-12)


class TestRulingFromAngles:
    def test_theta_zero_gives_tangent(self):
        for phi in (0.0, 1.0, 4.0):
            q = ruling_from_angles(E1, E2, E3, 0.0, phi)
            assert np.allclose(q, E1)

    def test_phi_zero(self):
        a = 0.8
        q = ruling_from_angles(E1, E2, E3, a, 0.0)
        assert np.allclose(q, math.cosh(a) * E1 + math.sinh(a) * E3)
        assert_frame_components(q, E1, E2, E3, a, 0.0)

    def test_theta_one_phi_half_pi(self):
        q = ruling_from_angles(E1, E2, E3, 1.0, math.pi / 2)
        assert np.allclose(q, math.cosh(1) * E1 - math.sinh(1) * E2)
        assert_frame_components(q, E1, E2, E3, 1.0, math.pi / 2)

    def test_unit_and_frame_components(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            T, N, B = random_boosted_frame(rng)
            theta = rng.uniform(-2, 2)
            phi = rng.uniform(0, 2 * math.pi)
            q = ruling_from_angles(T, N, B, theta, phi)
            assert q.shape == (3,)
            assert lorentz_inner(q, q) == pytest.approx(-1.0, abs=1e-12)
            assert_frame_components(q, T, N, B, theta, phi)

    def test_vectorized_over_grid(self):
        T = np.tile(E1, (5, 1))
        N = np.tile(E2, (5, 1))
        B = np.tile(E3, (5, 1))
        theta = np.linspace(0.2, 1.0, 5)
        q = ruling_from_angles(T, N, B, theta, np.zeros(5))
        assert q.shape == (5, 3)
        assert np.allclose(lorentz_inner(q, q), -1.0)


class TestAnglesFromRuling:
    def test_round_trip(self):
        # the frame components of q give back cosh(theta), sinh(theta) sin(phi) and sinh(theta) cos(phi)
        rng = np.random.default_rng(9)
        for _ in range(200):
            T, N, B = random_boosted_frame(rng)
            theta = rng.uniform(1e-3, 2.0)
            phi = rng.uniform(0, 2 * math.pi)
            assert_frame_components(ruling_from_angles(T, N, B, theta, phi), T, N, B, theta, phi)

    def test_phi_places_the_oracles_normal(self):
        # the oracle's normal along the directrix, from the raw samples, is
        # +-(cos(phi) N + sin(phi) B) up to its O(h^2) difference stencil;
        # that error enters 1 - |<., .>| squared, so it reads about 5e-14,
        # and a phi of the opposite sign reads 0.079 here
        cfg = RunConfig.from_file(CONFIG_DIR / "general_roundtrip.json")
        curve = build_directrix(cfg)
        track, surface = synthesize_surface(cfg, curve)
        m = _normals_along_directrix(surface)
        cp, sp = np.cos(track.phi)[:, None], np.sin(track.phi)[:, None]
        off = np.abs(np.abs(lorentz_inner(m, cp * curve.N + sp * curve.B)) - 1.0)
        h = curve.step
        assert h == 1e-3
        assert np.max(off) < h * h


class TestQPrimeAnalytic:
    def test_cylinder_conditions_zero_everything(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            theta = rng.uniform(0.2, 2.0)
            phi = rng.uniform(0, 2 * math.pi)
            k1, k2 = rng.uniform(0.1, 2.0, 2)
            theta_p = k1 * math.sin(phi)
            phi_p = -k2 + k1 * math.cos(phi) * math.cosh(theta) / math.sinh(theta)
            qp, nsq = q_prime_analytic(E1, E2, E3, theta, phi, theta_p, phi_p, k1, k2)
            assert np.max(np.abs(qp)) < 1e-12
            assert abs(nsq) < 1e-12

    def test_zero_theta_prime_phi_zero(self):
        theta, phi_p, k1, k2 = 0.9, 0.4, 1.3, 0.2
        qp, nsq = q_prime_analytic(E1, E2, E3, theta, 0.0, 0.0, phi_p, k1, k2)
        coeff = k1 * math.cosh(theta) - (phi_p + k2) * math.sinh(theta)
        assert np.allclose(qp, coeff * E2, atol=1e-14)
        assert nsq == pytest.approx(coeff**2)

    def test_slice_value(self):
        # theta'=2, phi=pi/2, theta=1, phi'+k2=1, k1=1
        _, nsq = q_prime_analytic(E1, E2, E3, 1.0, math.pi / 2, 2.0, 0.7, 1.0, 0.3)
        assert nsq == pytest.approx(1.0 + math.sinh(1.0) ** 2, abs=1e-12)

    def test_closed_form_matches_assembled_norm(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            T, N, B = random_boosted_frame(rng)
            theta = rng.uniform(0.1, 2.0)
            phi = rng.uniform(0, 2 * math.pi)
            tp, pp, k1, k2 = rng.uniform(-2, 2, 4)
            qp, nsq = q_prime_analytic(T, N, B, theta, phi, tp, pp, k1, k2)
            assert lorentz_inner(qp, qp) == pytest.approx(nsq, abs=1e-10)


def linear_theta_track(s, theta_at_mid, slope, phi_const):
    """A track with theta linear in s and phi constant, and its (theta', phi')."""
    mid = 0.5 * (s[0] + s[-1])
    track = AngleTrack(s=s, theta=theta_at_mid + slope * (s - mid), phi=np.full_like(s, phi_const))
    return track, (np.full_like(s, slope), np.zeros_like(s))


class TestInvariants:
    def example_setup(self):
        """theta = 1 + 2(s - 0.2), phi = pi/2, k1 = 1, k2 = 1 (so phi'+k2 = 1)."""
        curve = integrate_frenet(1.0, 1.0, s_range=(0.0, 0.4), step=1e-3)
        track, rates = linear_theta_track(curve.s, 1.0, 2.0, math.pi / 2)
        return curve, track, rates

    def test_analytic_example_values(self):
        curve, track, rates = self.example_setup()
        inv = invariants_analytic(track, curve, *rates)
        i = 200  # s = 0.2, where theta = 1
        v0_expected = math.sinh(1) / math.cosh(1) ** 2  # ~0.4936
        d_expected = -math.tanh(1) ** 2  # ~-0.5800
        assert inv.v0[i] == pytest.approx(v0_expected, abs=1e-12)
        assert inv.d[i] == pytest.approx(d_expected, abs=1e-12)
        assert v0_expected == pytest.approx(0.4936, abs=1e-4)
        assert d_expected == pytest.approx(-0.5800, abs=1e-4)

    def test_v0_vanishes_when_theta_prime_matches(self):
        curve = integrate_frenet(1.0, 0.2, s_range=(0.0, 0.2), step=1e-3)
        phi = 0.7
        track, rates = linear_theta_track(curve.s, 0.8, math.sin(phi), phi)  # theta' = k1 sin(phi)
        inv = invariants_analytic(track, curve, *rates)
        assert np.max(np.abs(inv.v0)) < 1e-12

    def test_cylinder_conditions_rejected(self):
        curve = integrate_frenet(1.0, 0.0, s_range=(0.0, 0.2), step=1e-2)
        theta = np.full_like(curve.s, 0.9)
        phi = np.zeros_like(curve.s)
        track = AngleTrack(s=curve.s, theta=theta, phi=phi)
        phi_prime = 1.0 * np.cosh(0.9) / np.sinh(0.9) * np.ones_like(curve.s)
        with pytest.raises(CylindricalRulingError):
            invariants_analytic(track, curve, np.zeros_like(curve.s), phi_prime)

    def test_numeric_cross_checks_analytic(self):
        curve, track, rates = self.example_setup()
        inv_a = invariants_analytic(track, curve, *rates)
        surf = build_surface(track, curve)
        inv_n = invariants_numeric(surf)
        sl = slice(1, -1)
        assert np.max(np.abs(inv_n.d[sl] - inv_a.d[sl]) / np.abs(inv_a.d[sl])) < 1e-4
        assert np.max(np.abs(inv_n.v0[sl] - inv_a.v0[sl]) / np.abs(inv_a.v0[sl])) < 1e-4

    def test_numeric_converges_quadratically(self):
        discrepancies = []
        for step in (2e-3, 1e-3):
            curve = integrate_frenet(1.0, 1.0, s_range=(0.0, 0.4), step=step)
            track, rates = linear_theta_track(curve.s, 1.0, 2.0, math.pi / 2)
            surf = build_surface(track, curve)
            inv_a = invariants_analytic(track, curve, *rates)
            inv_n = invariants_numeric(surf)
            sl = slice(1, -1)
            discrepancies.append(float(np.max(np.abs(inv_n.d[sl] - inv_a.d[sl]))))
        assert 3.5 <= discrepancies[0] / discrepancies[1] <= 4.5

    def test_all_cylindrical_rejected(self):
        surf = planar_surface(step=1e-2)
        with pytest.raises(AllCylindricalError):
            invariants_numeric(surf)

    def test_internal_consistency_of_relations(self):
        curve, track, rates = self.example_setup()
        inv = invariants_analytic(track, curve, *rates)
        denom = inv.d**2 + inv.v0**2
        assert np.max(np.abs(inv.K - inv.d**2 / denom**2)) < 1e-12
        assert np.max(np.abs(inv.n - denom / inv.d)) < 1e-12

    def test_striction_orthogonality(self):
        curve, track, _ = self.example_setup()
        surf = build_surface(track, curve)
        inv = invariants_numeric(surf)
        c = curve.k + inv.v0[:, None] * surf.q
        h = surf.step
        cp = finite_difference(c, h)
        qp = finite_difference(surf.q, h)
        vals = np.abs(lorentz_inner(cp, qp))[2:-2]
        assert np.max(vals) < 1e-4

    def test_striction_orthogonality_second_order(self):
        worst = []
        for step in (2e-3, 1e-3):
            curve = integrate_frenet(1.0, 1.0, s_range=(0.0, 0.4), step=step)
            track, _ = linear_theta_track(curve.s, 1.0, 2.0, math.pi / 2)
            surf = build_surface(track, curve)
            inv = invariants_numeric(surf)
            c = curve.k + inv.v0[:, None] * surf.q
            cp = finite_difference(c, step)
            qp = finite_difference(surf.q, step)
            worst.append(float(np.max(np.abs(lorentz_inner(cp, qp))[2:-2])))
        assert 3.5 <= worst[0] / worst[1] <= 4.5


class TestTrackAndGridValidation:
    def test_theta_min_guard(self):
        s = np.linspace(0.0, 1.0, 11)
        with pytest.raises(ThetaSingularityError):
            AngleTrack(s=s, theta=s - 0.5, phi=s)

    def test_theta_sign_change_rejected(self):
        # theta steps from -0.05 to 0.05 between s = 0.5 and 0.6 without a
        # sample below THETA_MIN
        s = np.linspace(0.0, 1.0, 11)
        with pytest.raises(ThetaSingularityError, match="changes sign") as err:
            AngleTrack(s=s, theta=s - 0.55, phi=s)
        assert err.value.s == s[6]

    # Every track passes the band rule of an integration's stages, and fails
    # at its first sample that leaves the band or the seed's sign; where a
    # sample does both (-60), the band's error wins.
    @pytest.mark.parametrize("far", [60.0, -60.0])
    def test_theta_past_the_max_guard_rejected(self, far):
        s = np.linspace(0.0, 1.0, 11)
        theta = np.full(11, 0.3)
        theta[4] = far
        with pytest.raises(IntegrationDivergedError, match="blows up") as err:
            AngleTrack(s=s, theta=theta, phi=s)
        assert err.value.s == s[4]

    def test_theta_min_guard_fails_at_the_first_sample_below_it(self):
        s = np.linspace(0.0, 0.4, 5)
        with pytest.raises(ThetaSingularityError, match="below guard") as err:
            AngleTrack(s=s, theta=[0.3, 5e-7, 0.3, 2e-7, 0.3], phi=s)
        assert err.value.s == s[1]

    def test_a_sign_change_before_a_sample_below_the_guard_fails_first(self):
        s = np.linspace(0.0, 0.5, 6)
        with pytest.raises(ThetaSingularityError, match="changes sign") as err:
            AngleTrack(s=s, theta=[0.3, 0.2, -0.1, -0.2, -0.3, -5e-7], phi=s)
        assert err.value.s == s[2]

    def test_non_finite_phi_rejected(self):
        s = np.linspace(0.0, 0.4, 5)
        with pytest.raises(ValueError, match="non-finite"):
            AngleTrack(s=s, theta=np.full(5, 0.3), phi=[0.0, 0.1, np.nan, 0.3, 0.4])

    def test_non_unit_ruling_rejected(self):
        curve = integrate_frenet(1.0, 0.0, s_range=(0.0, 0.1), step=1e-2)
        q = curve.T.copy()
        q[3] *= 1.001
        q[7] *= 1.1  # a larger defect later on
        with pytest.raises(NotUnitTimelikeError) as err:
            RuledSurfaceGrid(directrix=curve, q=q)
        assert (str(err.value), err.value.s) == ("|<q,q> + 1| = 2.001e-03 exceeds 1e-9 at s = 0.03", curve.s[3])

    def test_nan_ruling_rejected(self):
        curve = integrate_frenet(1.0, 0.1, s_range=(0.0, 0.1))
        q = curve.T.copy()
        q[50] = np.nan
        with pytest.raises(NotUnitTimelikeError) as err:
            RuledSurfaceGrid(directrix=curve, q=q)
        assert (str(err.value), err.value.s) == ("|<q,q> + 1| = nan exceeds 1e-9 at s = 0.05", curve.s[50])

    @pytest.mark.parametrize("name", ["cylinder.json", "striction_line.json", "geodesic.json", "line_of_curvature.json"])
    def test_a_run_holds_its_grid_once(self, name):
        result = run_config(RunConfig.from_file(CONFIG_DIR / name), write_outputs=False)
        assert result.track.s is result.surface.s

    # The frame's Gram defect grows in <q,q> as cosh^2(theta).  Carried as
    # step increments, the frame's defect is about 3e-15 at h = 1e-3, so a
    # seed at theta = 6 stays under the fixed bound of 1e-9; the bound still
    # ignores the defect, and steeper seeds, far inside THETA_MAX = 50, trip it.
    @pytest.mark.parametrize("name", ["cylinder.json", "striction_line.json", "geodesic.json"])
    def test_a_steep_seed_inside_the_theta_range_yields_a_report(self, name):
        cfg = RunConfig.from_file(CONFIG_DIR / name)
        assert run_config(cfg.with_seed(6.0, cfg.params.phi0), write_outputs=False).report is not None

    def test_grid_mismatch_rejected(self):
        curve = integrate_frenet(1.0, 0.0, s_range=(0.0, 0.1), step=1e-2)
        q = np.tile(E1, (curve.n_samples - 1, 1))
        with pytest.raises(GridMismatchError):
            RuledSurfaceGrid(directrix=curve, q=q)

    def test_track_on_other_grid_rejected_by_build_surface(self):
        curve = integrate_frenet(1.0, 0.0, s_range=(0.0, 0.1), step=1e-2)
        track, _ = linear_theta_track(curve.s[:-1], 1.0, 0.0, 0.0)
        with pytest.raises(GridMismatchError):
            build_surface(track, curve)

    def test_track_within_tolerance_of_the_grid_accepted_by_build_surface(self):
        curve = integrate_frenet(1.0, 0.0, s_range=(0.0, 0.1), step=1e-2)
        track, _ = linear_theta_track(curve.s + 1e-14, 1.0, 0.0, 0.0)
        assert not np.array_equal(track.s, curve.s)
        exact, _ = linear_theta_track(curve.s, 1.0, 0.0, 0.0)
        assert np.array_equal(build_surface(track, curve).q, build_surface(exact, curve).q)

    def test_track_on_other_grid_rejected_by_analytic_invariants(self):
        curve = integrate_frenet(1.0, 1.0, s_range=(0.0, 0.4), step=1e-3)
        track, rates = linear_theta_track(curve.s + 0.1, 1.0, 2.0, math.pi / 2)
        with pytest.raises(GridMismatchError):
            invariants_analytic(track, curve, *rates)


class TestCurvatureRelations:
    def test_unit_distribution(self):
        K, mu, n = curvature_relations(1.0, 0.0)
        assert (K, mu, n) == (pytest.approx(1.0), pytest.approx(0.0), pytest.approx(1.0))

    def test_equal_pair(self):
        K, mu, n = curvature_relations(1.0, 1.0)
        assert mu == pytest.approx(math.pi / 4)
        assert K == pytest.approx(0.25)
        assert n == pytest.approx(2.0)

    def test_developable_rejected(self):
        K, mu, n = curvature_relations(0.0, 1.0)
        assert K == 0.0
        assert np.isnan(mu) and np.isnan(n)
        assert all(np.isnan(x) for x in curvature_relations(0.0, 0.0))

    def test_vector_matches_scalar_calls(self):
        rng = np.random.default_rng(11)
        d = np.concatenate([rng.uniform(-3.0, 3.0, 50), [0.0, 0.0]])
        v0 = np.concatenate([rng.uniform(-3.0, 3.0, 50), [1.0, 0.0]])
        vector = np.stack(curvature_relations(d, v0))
        scalar = np.array([curvature_relations(a, b) for a, b in zip(d.tolist(), v0.tolist())]).T
        assert np.array_equal(vector, scalar, equal_nan=True)

    def test_n_is_inverse_sqrt_K_for_positive_d(self):
        rng = np.random.default_rng(12)
        d = rng.uniform(0.05, 3.0, 100)
        v0 = rng.uniform(-3.0, 3.0, 100)
        K, _, n = curvature_relations(d, v0)
        assert np.max(np.abs(n * np.sqrt(K) - 1.0)) < 1e-12


class TestNMuMap:
    def test_right_angle(self):
        d, v0 = dv0_from_n_mu(2.0, math.pi / 2)
        assert d == pytest.approx(2.0)
        assert v0 == pytest.approx(0.0, abs=1e-12)

    def test_quarter_angle(self):
        d, v0 = dv0_from_n_mu(2.0, math.pi / 4)
        assert d == pytest.approx(1.0)
        assert v0 == pytest.approx(1.0)

    def test_vector_matches_scalar_calls(self):
        n = np.random.default_rng(15).uniform(0.1, 5.0, 50)
        d, v0 = dv0_from_n_mu(n, 1.1)
        pairs = np.array([dv0_from_n_mu(x, 1.1) for x in n.tolist()])
        assert np.array_equal(d, pairs[:, 0]) and np.array_equal(v0, pairs[:, 1])

    def test_round_trip_via_relations(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            n = rng.uniform(1e-6, 10.0)
            mu = rng.uniform(0.1, math.pi - 0.1)
            d, v0 = dv0_from_n_mu(n, mu)
            _, _, n_back = curvature_relations(d, v0)
            assert abs(n_back - n) < 1e-12 * max(1.0, n)

    def test_inverse_map(self):
        # for d > 0 the curvature-angle mu is the complement of the Chasles angle
        rng = np.random.default_rng(14)
        for _ in range(100):
            n = rng.uniform(0.1, 5.0)
            mu = rng.uniform(0.1, math.pi - 0.1)
            d, v0 = dv0_from_n_mu(n, mu)
            _, chasles, n_back = curvature_relations(d, v0)
            assert n_back == pytest.approx(n, rel=1e-12)
            assert math.pi / 2 - chasles == pytest.approx(mu, rel=1e-12)
