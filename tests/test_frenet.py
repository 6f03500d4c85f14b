import math

import numpy as np
import pytest

from minkruled import (
    CausalClass,
    Constant,
    FrenetCurve,
    Polynomial,
    Samples,
    Sinusoid,
    causal_character,
    frame_defect,
    helix_ratio,
    integrate_frenet,
)
from minkruled.errors import (
    NonOrthonormalSeedError,
    NonPositiveCurvatureError,
    StepTooLargeError,
    TorsionVanishesError,
)
from minkruled.frenet import default_initial_frame, uniform_grid


def closed_form_errors(step):
    """Max position / frame errors of the k1=1, k2=0 run vs the exact curve."""
    c = integrate_frenet(1.0, 0.0, s_range=(0.0, 1.0), step=step)
    exact = np.stack([np.sinh(c.s), np.cosh(c.s) - 1.0, np.zeros_like(c.s)], axis=1)
    return float(np.max(np.abs(c.k - exact))), frame_defect(c)


class TestCurvatureFns:
    def test_constant(self):
        f = Constant(2.5)
        assert f(0.3) == 2.5
        assert np.array_equal(f(np.array([0.0, 1.0])), [2.5, 2.5])

    def test_polynomial_ascending_coefficients(self):
        f = Polynomial((1.0, 1.0))  # 1 + s
        assert f(0.25) == pytest.approx(1.25)

    def test_sinusoid(self):
        f = Sinusoid(amplitude=0.5, frequency=2.0, phase=0.1, offset=1.0)
        assert f(0.3) == pytest.approx(0.5 * math.sin(0.7) + 1.0)

    def test_samples_interpolates_through_data(self):
        s = np.linspace(0, 1, 11)
        vals = 1.0 + 0.2 * s**2
        f = Samples(s, vals)
        assert np.allclose(f(s), vals, atol=1e-12)
        assert f(0.55) == pytest.approx(1.0 + 0.2 * 0.55**2, abs=1e-4)


class TestIntegrateFrenet:
    def test_initial_condition(self):
        c = integrate_frenet(1.0, 0.0, s_range=(0.0, 0.1), step=1e-3)
        assert np.array_equal(c.k[0], np.zeros(3))
        assert np.array_equal(c.T[0], [1, 0, 0])
        assert np.array_equal(c.N[0], [0, 1, 0])
        assert np.array_equal(c.B[0], [0, 0, 1])

    def test_closed_form_at_unit_arc_length(self):
        c = integrate_frenet(1.0, 0.0, s_range=(0.0, 1.0), step=1e-3)
        assert c.k[-1] == pytest.approx([math.sinh(1), math.cosh(1) - 1, 0], abs=1e-8)
        assert c.T[-1] == pytest.approx([math.cosh(1), math.sinh(1), 0], abs=1e-8)

    def test_closed_form_error_bounds(self):
        pos_err, fd = closed_form_errors(1e-3)
        assert pos_err < 1e-8
        assert fd < 1e-8

    def test_fourth_order_convergence(self):
        # measured in the truncation-dominated regime; at step 1e-3 both
        # errors already sit at the double-precision roundoff floor (~1e-14)
        coarse = closed_form_errors(8e-3)
        fine = closed_form_errors(4e-3)
        assert 8.0 <= coarse[0] / fine[0] <= 32.0
        assert 8.0 <= coarse[1] / fine[1] <= 32.0

    def test_tangent_consistency(self, flat_directrix):
        c = flat_directrix
        h = c.step
        fd_T = (c.k[2:] - c.k[:-2]) / (2 * h)
        err = np.max(np.abs(fd_T - c.T[1:-1]))
        assert err < 2.0 * h**2  # |T''|/6 ~ cosh(1)/6 < 2

    def test_causal_stability(self, unit_directrix):
        for i in range(0, unit_directrix.n_samples, 50):
            assert causal_character(unit_directrix.T[i]) is CausalClass.TIMELIKE_FUTURE

    def test_torsion_couples_binormal(self):
        c = integrate_frenet(1.0, 0.5, s_range=(0.0, 1.0), step=1e-3)
        assert frame_defect(c) < 1e-10
        assert np.max(np.abs(c.k[:, 2])) > 1e-3  # leaves the x3 = 0 plane

    def test_nonorthonormal_seed_rejected(self):
        frame = default_initial_frame()
        frame[2] = [0.0, 1.01, 0.0]
        with pytest.raises(NonOrthonormalSeedError):
            integrate_frenet(1.0, 0.0, s_range=(0.0, 0.1), step=1e-3, initial_frame=frame)

    def test_flipped_orientation_rejected(self):
        frame = default_initial_frame()
        frame[3] = [0.0, 0.0, -1.0]  # orthonormal but mirror-oriented
        with pytest.raises(NonOrthonormalSeedError):
            integrate_frenet(1.0, 0.0, s_range=(0.0, 0.1), step=1e-3, initial_frame=frame)

    def test_nonpositive_curvature_rejected(self):
        with pytest.raises(NonPositiveCurvatureError):
            integrate_frenet(Polynomial((0.5, -1.0)), 0.0, s_range=(0.0, 1.0), step=1e-2)

    def test_step_too_large(self):
        with pytest.raises(StepTooLargeError) as err:
            integrate_frenet(5.0, 0.0, s_range=(0.0, 1.0), step=0.25, frame_tol=1e-9)
        assert err.value.s == 0.25

    def test_grid_must_divide_evenly(self):
        with pytest.raises(ValueError):
            uniform_grid((0.0, 1.0), 3e-4)


class TestFrameDefect:
    def test_exact_seed_frame_is_zero(self):
        f = default_initial_frame()
        c = FrenetCurve(
            s=np.array([0.0]),
            k=f[0:1],
            T=f[1:2],
            N=f[2:3],
            B=f[3:4],
            k1=np.array([1.0]),
            k2=np.array([0.0]),
        )
        assert frame_defect(c) == 0.0

    def test_integrated_curve_is_tight(self):
        c = integrate_frenet(1.0, 0.0, s_range=(0.0, 1.0), step=1e-3)
        assert frame_defect(c) < 1e-8

    def test_scaled_normal_detected(self):
        f = default_initial_frame()
        c = FrenetCurve(
            s=np.array([0.0]),
            k=f[0:1],
            T=f[1:2],
            N=1.01 * f[2:3],
            B=f[3:4],
            k1=np.array([1.0]),
            k2=np.array([0.0]),
        )
        assert frame_defect(c) == pytest.approx(0.0201, abs=1e-12)


class TestHelixRatio:
    def test_constant_ratio_two(self):
        c = integrate_frenet(2.0, 1.0, s_range=(0.0, 0.2), step=1e-3)
        assert helix_ratio(c) == (pytest.approx(2.0), pytest.approx(0.0, abs=1e-12))

    def test_constant_ratio_one(self):
        c = integrate_frenet(1.0, 1.0, s_range=(0.0, 0.2), step=1e-3)
        assert helix_ratio(c) == (pytest.approx(1.0), pytest.approx(0.0, abs=1e-12))

    def test_linear_curvature(self):
        c = integrate_frenet(Polynomial((1.0, 1.0)), 1.0, s_range=(0.0, 1.0), step=1e-3)
        mean, dev = helix_ratio(c)
        assert mean == pytest.approx(1.5, abs=1e-12)
        assert dev == pytest.approx(0.5, abs=1e-12)

    def test_vanishing_torsion_rejected(self):
        c = integrate_frenet(1.0, 0.0, s_range=(0.0, 0.1), step=1e-3)
        with pytest.raises(TorsionVanishesError):
            helix_ratio(c)
