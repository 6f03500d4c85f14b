import json
import math

import numpy as np
import pytest

from minkruled import (
    RuledSurfaceGrid,
    SpecialCase,
    SynthesisParams,
    SystemKind,
    Tolerances,
    build_surface,
    geodesic_theta,
    integrate_frenet,
    integrate_system,
    lorentz_inner,
    recompute_report,
    special_case_defects,
)
from minkruled.errors import AllCylindricalError


def general_surface(directrix, theta0=1.0, phi0=0.2, d=0.5, v0=0.3):
    params = SynthesisParams(theta0=theta0, phi0=phi0, d=d, v0=v0)
    track = integrate_system(SystemKind.GENERAL_DV0, params, directrix)
    return build_surface(track, directrix), params


class TestRecomputeReport:
    def test_round_trip_passes(self, unit_directrix):
        surf, params = general_surface(unit_directrix)
        report = recompute_report(surf, params, SystemKind.GENERAL_DV0)
        assert report.passed
        assert report.errors["d"].max_rel <= 1e-4
        assert report.errors["v0"].max_rel <= 1e-4
        assert report.n_cylindrical == 0

    def test_margin_tracks_the_pass_rule(self, unit_directrix):
        surf, params = general_surface(unit_directrix)
        report = recompute_report(surf, params, SystemKind.GENERAL_DV0)
        strict = recompute_report(surf, params, SystemKind.GENERAL_DV0, Tolerances(rel=1e-9, abs=0.0))
        for name, st in report.errors.items():
            assert 0.0 < st.margin <= 1.0
            assert report.to_dict()["errors"][name]["margin"] == st.margin
            assert (strict.errors[name].margin > 1.0) == (name in strict.failures)

    def test_oracle_ignores_track_provenance(self, unit_directrix):
        surf, params = general_surface(unit_directrix)
        bare = RuledSurfaceGrid(directrix=surf.directrix, q=surf.q.copy())  # no track
        report = recompute_report(bare, params, SystemKind.GENERAL_DV0)
        assert report.passed

    def test_noisy_rulings_fail(self, unit_directrix):
        surf, params = general_surface(unit_directrix)
        rng = np.random.default_rng(0)
        q = surf.q + 1e-3 * rng.standard_normal(surf.q.shape)
        q = q / np.sqrt(-lorentz_inner(q, q))[:, None]  # keep unit timelike
        noisy = RuledSurfaceGrid(directrix=surf.directrix, q=q)
        report = recompute_report(noisy, params, SystemKind.GENERAL_DV0)
        assert not report.passed
        assert "d" in report.failures or "v0" in report.failures

    def test_cylinder_report_skips_invariants(self, flat_directrix):
        params = SynthesisParams(theta0=1.0, phi0=0.5)
        track = integrate_system(SystemKind.CYLINDER, params, flat_directrix)
        surf = build_surface(track, flat_directrix)
        report = recompute_report(surf, params, SystemKind.CYLINDER)
        assert report.passed
        assert report.errors == {}
        assert report.defects["qprime_norm"] < 1e-6
        assert report.recomputed is None

    def test_cylinder_surface_under_other_kind_propagates(self, flat_directrix):
        params = SynthesisParams(theta0=1.0, phi0=0.5)
        track = integrate_system(SystemKind.CYLINDER, params, flat_directrix)
        surf = build_surface(track, flat_directrix)
        with pytest.raises(AllCylindricalError):
            recompute_report(surf, SynthesisParams(theta0=1, d=0.5, v0=0.3), SystemKind.GENERAL_DV0)

    def test_tolerance_override_flips_verdict(self, unit_directrix):
        surf, params = general_surface(unit_directrix)
        strict = Tolerances(rel=1e-9, abs=1e-12)
        report = recompute_report(surf, params, SystemKind.GENERAL_DV0, strict)
        assert not report.passed

    def test_report_serializes_to_json(self, unit_directrix):
        surf, params = general_surface(unit_directrix)
        report = recompute_report(surf, params, SystemKind.GENERAL_DV0)
        text = json.dumps(report.to_dict(), sort_keys=True, allow_nan=False)
        assert '"verdict": "pass"' in text

    def test_striction_defect_reported(self, unit_directrix):
        params = SynthesisParams(theta0=1.0, phi0=0.5, d=0.5)
        track = integrate_system(SystemKind.STRICTION_LINE, params, unit_directrix)
        surf = build_surface(track, unit_directrix)
        report = recompute_report(surf, params, SystemKind.STRICTION_LINE)
        assert report.passed
        assert report.defects["strictional_distance"] < 1e-6

    def test_developable_defect_reported(self):
        curve = integrate_frenet(1.0, 0.15, s_range=(0.0, 1.0), step=1e-3)
        params = SynthesisParams(theta0=0.9, phi0=1.2, v0=-2.0)
        track = integrate_system(SystemKind.DEVELOPABLE, params, curve)
        surf = build_surface(track, curve)
        report = recompute_report(surf, params, SystemKind.DEVELOPABLE)
        assert report.passed
        assert report.defects["distribution_parameter"] < 1e-6

    def test_convergence_is_second_order(self):
        errs = []
        for step in (2e-3, 1e-3):
            curve = integrate_frenet(1.0, 0.1, s_range=(0.0, 0.5), step=step)
            surf, params = general_surface(curve)
            report = recompute_report(surf, params, SystemKind.GENERAL_DV0)
            errs.append(report.errors["d"].max_abs)
        assert 3.5 <= errs[0] / errs[1] <= 4.5


class TestSpecialCaseDefects:
    def geodesic_surface(self):
        n, k1, k2 = 1.0, 0.6, 0.2
        curve = integrate_frenet(k1, k2, s_range=(0.0, 1.0), step=1e-3)
        theta0 = geodesic_theta(n, k1, k2)
        params = SynthesisParams(theta0=theta0, phi0=0.0, n=n, mu=math.pi / 2)
        track = integrate_system(SystemKind.CURVATURE_ANGLE, params, curve)
        return build_surface(track, curve), curve

    def test_geodesic_defect_small(self):
        surf, _ = self.geodesic_surface()
        defects = special_case_defects(surf, SpecialCase.GEODESIC)
        assert defects["geodesic"] < 1e-6

    def test_geodesic_negative_control(self):
        curve = integrate_frenet(0.6, 0.2, s_range=(0.0, 1.0), step=1e-3)
        surf, _ = general_surface(curve, theta0=0.5, phi0=1.2)
        defects = special_case_defects(surf, SpecialCase.GEODESIC)
        assert defects["geodesic"] > 100 * 1e-6

    def test_asymptotic_defect_small(self):
        curve = integrate_frenet(1.0, -0.5, s_range=(0.0, 1.0), step=1e-3)
        params = SynthesisParams(theta0=0.6, mu=math.pi / 3, n=2.0)
        track = integrate_system(SystemKind.ASYMPTOTIC_LINE, params, curve)
        surf = build_surface(track, curve)
        defects = special_case_defects(surf, SpecialCase.ASYMPTOTIC_LINE)
        assert defects["asymptotic_line"] < 1e-6
        report = recompute_report(surf, params, SystemKind.ASYMPTOTIC_LINE)
        assert report.passed

    def test_asymptotic_negative_control(self):
        curve = integrate_frenet(1.0, -0.5, s_range=(0.0, 1.0), step=1e-3)
        surf, _ = general_surface(curve, theta0=0.5, phi0=0.2)
        defects = special_case_defects(surf, SpecialCase.ASYMPTOTIC_LINE)
        assert defects["asymptotic_line"] > 100 * 1e-6

    def line_of_curvature_surface(self):
        curve = integrate_frenet(0.6, 0.2, s_range=(0.0, 1.0), step=1e-3)
        params = SynthesisParams(n=1.0, C=0.3)
        track = integrate_system(SystemKind.LINE_OF_CURVATURE, params, curve)
        return build_surface(track, curve), curve, params

    def test_line_of_curvature_defect_small(self):
        surf, _, params = self.line_of_curvature_surface()
        defects = special_case_defects(surf, SpecialCase.LINE_OF_CURVATURE)
        assert defects["line_of_curvature"] < 1e-5
        report = recompute_report(surf, params, SystemKind.LINE_OF_CURVATURE)
        assert report.passed
        assert report.errors["n"].max_rel < 1e-4

    def test_line_of_curvature_negative_control(self):
        _, curve, _ = self.line_of_curvature_surface()
        surf, _ = general_surface(curve, theta0=0.5, phi0=0.2)
        defects = special_case_defects(surf, SpecialCase.LINE_OF_CURVATURE)
        assert defects["line_of_curvature"] > 1e-3

    def test_line_of_curvature_defect_converges(self):
        vals = []
        for step in (2e-3, 1e-3):
            curve = integrate_frenet(0.6, 0.2, s_range=(0.0, 1.0), step=step)
            params = SynthesisParams(n=1.0, C=0.3)
            track = integrate_system(SystemKind.LINE_OF_CURVATURE, params, curve)
            surf = build_surface(track, curve)
            vals.append(special_case_defects(surf, SpecialCase.LINE_OF_CURVATURE)["line_of_curvature"])
        assert 3.5 <= vals[0] / vals[1] <= 4.5

    def test_helix_defect(self):
        curve = integrate_frenet(2.0, 1.0, s_range=(0.0, 0.5), step=1e-3)
        theta = 1.0
        mu = math.atan2(math.sinh(theta), 2.0)
        defects = special_case_defects(curveless_surface(curve), SpecialCase.HELIX, theta=theta, mu=mu)
        assert defects["helix"] < 1e-10

    def test_helix_requires_aux(self):
        curve = integrate_frenet(2.0, 1.0, s_range=(0.0, 0.1), step=1e-3)
        with pytest.raises(ValueError):
            special_case_defects(curveless_surface(curve), SpecialCase.HELIX)


def curveless_surface(curve):
    """Any valid surface over the directrix (helix defect only reads the curve)."""
    track = integrate_system(SystemKind.CYLINDER, SynthesisParams(theta0=1.0, phi0=0.3), curve)
    return build_surface(track, curve)
