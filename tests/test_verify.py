import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from minkruled import (
    Constant,
    RuledSurfaceGrid,
    RunConfig,
    SynthesisParams,
    SystemKind,
    Tolerances,
    build_surface,
    integrate_frenet,
    integrate_system,
    lorentz_inner,
    lorentz_norm,
    recompute_report,
    surface_defects,
)
from minkruled.errors import AllCylindricalError, ConfigError, SingularPointError
from minkruled.pipeline import build_directrix, run_config, run_seed
from minkruled.surface import finite_difference
from minkruled.synthesis import HALF_PI, KINDS
from minkruled.verify import DEFAULT_DEFECT_TOLS, SURFACE_DEFECTS, VANISHING_DEFECTS

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = sorted(p.name for p in CONFIG_DIR.glob("*.json"))


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

    def test_nan_defect_fails(self, monkeypatch, flat_directrix):
        params = SynthesisParams(theta0=1.0, phi0=0.5)
        surf = build_surface(integrate_system(SystemKind.CYLINDER, params, flat_directrix), flat_directrix)
        monkeypatch.setitem(SURFACE_DEFECTS, "qprime_norm", (lambda surf: np.full(surf.n_samples, np.nan), 1))
        report = recompute_report(surf, params, SystemKind.CYLINDER)
        assert math.isnan(report.defects["qprime_norm"])
        assert (report.verdict, report.failures) == ("fail", ("qprime_norm",))

    def test_an_infinite_prescription_fails_closed(self, unit_directrix):
        # the error and its bound are both inf at every sample, and inf <= inf; the gate passes it,
        # since only a float d = inf counts as unset
        surf, _ = general_surface(unit_directrix)
        report = recompute_report(surf, SynthesisParams(d=Constant(math.inf), v0=0.3), SystemKind.GENERAL_DV0)
        assert (report.verdict, report.failures) == ("fail", ("d",))
        assert report.errors["d"].max_abs == math.inf

    def test_a_vanishing_n_prescribes_an_infinite_k_that_fails(self, unit_directrix):
        # n * n underflows to 0, so K = 1 / n^2 is inf: no warning, and the K check fails closed
        surf, _ = general_surface(unit_directrix)
        report = recompute_report(surf, SynthesisParams(n=1e-200, mu=math.pi / 3), SystemKind.CURVATURE_ANGLE)
        assert "K" in report.failures
        assert report.errors["K"].max_abs == math.inf

    def test_a_surface_with_no_usable_interior_sample_fails_closed(self):
        # the rulings zigzag, so every interior central difference of q vanishes and only the ends are usable
        directrix = integrate_frenet(1.0, 0.1, s_range=(0.0, 0.006), step=1e-3)
        zig = np.array([[1.0, 0.0, 0.0], [np.cosh(0.3), np.sinh(0.3), 0.0]])
        surf = RuledSurfaceGrid(directrix=directrix, q=zig[np.arange(directrix.n_samples) % 2])
        report = recompute_report(surf, SynthesisParams(theta0=1.0, d=0.5, v0=0.3), SystemKind.GENERAL_DV0)
        assert (report.verdict, report.failures) == ("fail", ("d", "v0"))
        assert (report.n_cylindrical, report.n_samples) == (5, 7)
        errors = json.loads(json.dumps(report.to_dict(), allow_nan=False))["errors"]
        for name in ("d", "v0"):
            assert {k: v for k, v in errors[name].items() if v is None}.keys() == {"max_abs", "max_rel", "mean_abs", "margin"}
            assert math.isfinite(errors[name]["endpoint_max_abs"])

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

    @pytest.mark.parametrize("name", ["helix", "geodesic", "qprime"])
    def test_tolerances_reject_defects_no_kind_checks(self, name):
        with pytest.raises(ConfigError, match=rf"'tolerances\.defects\.{name}': unknown key"):
            Tolerances(defects={"qprime_norm": 1e-6, name: 1e-10})

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


@pytest.mark.parametrize("step", [1e-3, 1e-4])
@pytest.mark.parametrize("name", SHIPPED)
def test_report_from_positions_and_rulings_alone(name, step):
    """The oracle gives a run's report from the directrix positions and the rulings alone.

    The surface it reads has a directrix whose frame T = N = B is zero, and
    a surface holds no angle track, so neither can reach the verdict.
    """
    cfg = RunConfig.from_file(CONFIG_DIR / name).with_overrides(step=step)
    result = run_seed(cfg, build_directrix(cfg))
    zero = np.zeros_like(result.surface.directrix.T)
    frameless = dataclasses.replace(result.surface.directrix, T=zero, N=zero, B=zero)
    report = recompute_report(RuledSurfaceGrid(frameless, result.surface.q.copy()), cfg.params, cfg.system, cfg.tolerances)
    assert json.dumps(report.to_dict(), sort_keys=True) == json.dumps(result.report.to_dict(), sort_keys=True)


#: Curvature angles off (0, pi): (d, v0) depends on mu modulo pi only.
#: 1e14 mod pi is 0.21096981170701126 (50-digit arithmetic).
MU_MODULO_PI = [math.pi / 3, math.pi - 1.0, math.pi / 3 + math.pi, math.pi / 3 - math.pi, -1.0, 1e14]


class TestCurvatureAngleModuloPi:
    def prescribed(self, mu):
        s = np.zeros(1)
        return KINDS[SystemKind.CURVATURE_ANGLE].prescribe(SynthesisParams(n=1.0, mu=mu), s, s)

    @pytest.mark.parametrize("mu", MU_MODULO_PI)
    def test_geodesic_config_passes(self, mu):
        cfg = RunConfig.from_file(CONFIG_DIR / "geodesic.json")
        cfg = dataclasses.replace(cfg, params=dataclasses.replace(cfg.params, mu=mu))
        if mu == 1e14:  # the seed is off this angle's fixed point, and theta blows up past s = 0.28
            cfg = dataclasses.replace(cfg, directrix=dataclasses.replace(cfg.directrix, s_range=(0.0, 0.25)))
        report = run_config(cfg, write_outputs=False).report
        assert report.passed, report.failures
        assert report.errors["mu"].max_abs < 1e-5

    @pytest.mark.parametrize("mu", MU_MODULO_PI)
    def test_prescribed_angle_is_the_chasles_angle_of_the_prescribed_pair(self, mu):
        fixed = self.prescribed(mu)
        assert -HALF_PI < fixed["mu"][0] < HALF_PI
        assert fixed["mu"][0] == pytest.approx(math.atan(fixed["v0"][0] / fixed["d"][0]), abs=1e-15)

    def test_exact_reduction_of_a_far_angle(self):
        assert self.prescribed(1e14)["mu"][0] == pytest.approx(HALF_PI - 0.21096981170701126, abs=1e-15)

    @pytest.mark.parametrize("mu", [1e-3, math.pi / 3, HALF_PI, math.pi - 1.0, math.pi - 1e-3])
    def test_angle_in_range_keeps_its_complement(self, mu):
        assert self.prescribed(mu)["mu"][0] == HALF_PI - mu


def test_every_checked_defect_has_a_definition_and_a_tolerance():
    table = {name for spec in KINDS.values() for name in spec.defects}
    vanishing = {VANISHING_DEFECTS[name] for spec in KINDS.values() for name in spec.vanishing}
    assert table <= SURFACE_DEFECTS.keys()
    # a tolerance no kind reads would be accepted by the config and silently ignored
    assert DEFAULT_DEFECT_TOLS.keys() == table | vanishing


class TestSpecialCaseDefects:
    def geodesic_surface(self):
        n, k1, k2 = 1.0, 0.6, 0.2
        curve = integrate_frenet(k1, k2, s_range=(0.0, 1.0), step=1e-3)
        theta0 = math.atanh(0.5)  # tanh(theta) = n k1 / (n k2 + 1)
        params = SynthesisParams(theta0=theta0, phi0=0.0, n=n, mu=math.pi / 2)
        track = integrate_system(SystemKind.CURVATURE_ANGLE, params, curve)
        return build_surface(track, curve), curve

    def test_geodesic_defect_small(self):
        surf, _ = self.geodesic_surface()
        defects = surface_defects(surf, "geodesic")
        assert defects["geodesic"] < 1e-6

    def test_geodesic_negative_control(self):
        curve = integrate_frenet(0.6, 0.2, s_range=(0.0, 1.0), step=1e-3)
        surf, _ = general_surface(curve, theta0=0.5, phi0=1.2)
        defects = surface_defects(surf, "geodesic")
        assert defects["geodesic"] > 100 * 1e-6

    def test_asymptotic_defect_small(self):
        curve = integrate_frenet(1.0, -0.5, s_range=(0.0, 1.0), step=1e-3)
        params = SynthesisParams(theta0=0.6, mu=math.pi / 3, n=2.0)
        track = integrate_system(SystemKind.ASYMPTOTIC_LINE, params, curve)
        surf = build_surface(track, curve)
        defects = surface_defects(surf, "asymptotic_line")
        assert defects["asymptotic_line"] < 1e-6
        report = recompute_report(surf, params, SystemKind.ASYMPTOTIC_LINE)
        assert report.passed

    def test_asymptotic_negative_control(self):
        curve = integrate_frenet(1.0, -0.5, s_range=(0.0, 1.0), step=1e-3)
        surf, _ = general_surface(curve, theta0=0.5, phi0=0.2)
        defects = surface_defects(surf, "asymptotic_line")
        assert defects["asymptotic_line"] > 100 * 1e-6

    def line_of_curvature_surface(self):
        curve = integrate_frenet(0.6, 0.2, s_range=(0.0, 1.0), step=1e-3)
        params = SynthesisParams(n=1.0, C=0.3)
        track = integrate_system(SystemKind.LINE_OF_CURVATURE, params, curve)
        return build_surface(track, curve), curve, params

    def test_line_of_curvature_defect_small(self):
        surf, _, params = self.line_of_curvature_surface()
        defects = surface_defects(surf, "line_of_curvature")
        assert defects["line_of_curvature"] < 1e-5
        report = recompute_report(surf, params, SystemKind.LINE_OF_CURVATURE)
        assert report.passed
        assert report.errors["n"].max_rel < 1e-4

    def test_line_of_curvature_negative_control(self):
        _, curve, _ = self.line_of_curvature_surface()
        surf, _ = general_surface(curve, theta0=0.5, phi0=0.2)
        defects = surface_defects(surf, "line_of_curvature")
        assert defects["line_of_curvature"] > 1e-3

    def test_line_of_curvature_defect_converges(self):
        vals = []
        for step in (2e-3, 1e-3):
            curve = integrate_frenet(0.6, 0.2, s_range=(0.0, 1.0), step=step)
            params = SynthesisParams(n=1.0, C=0.3)
            track = integrate_system(SystemKind.LINE_OF_CURVATURE, params, curve)
            surf = build_surface(track, curve)
            vals.append(surface_defects(surf, "line_of_curvature")["line_of_curvature"])
        assert 3.5 <= vals[0] / vals[1] <= 4.5

    @pytest.mark.parametrize("name", sorted(SURFACE_DEFECTS))
    def test_grid_without_interior_samples_names_the_samples_needed(self, name):
        layer = SURFACE_DEFECTS[name][1]
        small = self.surface_on(2 * layer)
        message = rf"^the {name} defect needs at least {2 * layer + 1} samples; the grid has {2 * layer}$"
        with pytest.raises(ValueError, match=message):
            surface_defects(small, name)
        assert set(surface_defects(self.surface_on(2 * layer + 1), name)) == {name, f"{name}_endpoints"}

    def test_singular_point_carries_the_arc_length_of_its_first_sample(self):
        curve = integrate_frenet(1.0, 0.1, s_range=(0.0, 0.1), step=1e-3)
        q = general_surface(curve)[0].q.copy()
        kp = finite_difference(curve.k, curve.step)
        for i in (40, 70):  # the ruling along the directrix's tangent: no normal there
            q[i] = kp[i] / lorentz_norm(kp[i])
        with pytest.raises(SingularPointError) as err:
            surface_defects(RuledSurfaceGrid(directrix=curve, q=q), "geodesic")
        assert (str(err.value), err.value.s) == ("singular surface point along the directrix at s = 0.04", curve.s[40])

    def surface_on(self, n_samples):
        return general_surface(integrate_frenet(0.6, 0.2, s_range=(0.0, 1e-2 * (n_samples - 1)), step=1e-2))[0]
