import dataclasses
import math

import numpy as np
import pytest

from minkruled import (
    Constant,
    FrenetCurve,
    Polynomial,
    Samples,
    Sinusoid,
    frame_defect,
    integrate_frenet,
    lorentz_inner,
)
from minkruled.errors import (
    FarPositionError,
    IntegrationDivergedError,
    NonOrthonormalSeedError,
    NonPositiveCurvatureError,
    StepTooLargeError,
)
from minkruled.config import _FUNCTIONS, curvature_fn_from_spec
from minkruled.frenet import MAX_STEPS, default_initial_frame, grid_size, uniform_grid

from conftest import random_boosted_frame


def closed_form_errors(step):
    """Max position / frame errors of the k1=1, k2=0 run vs the exact curve."""
    c = integrate_frenet(1.0, 0.0, s_range=(0.0, 1.0), step=step)
    exact = np.stack([np.sinh(c.s), np.cosh(c.s) - 1.0, np.zeros_like(c.s)], axis=1)
    return float(np.max(np.abs(c.k - exact))), frame_defect(c)


def stagewise_rk4(k1, k2, s, frame):
    """Classical RK4 on the moving-frame equations, one stage at a time."""

    def rhs(si, y):
        a, b = float(k1(si)), float(k2(si))
        return np.array([y[1], a * y[2], a * y[1] + b * y[3], -b * y[2]])

    h = s[1] - s[0]
    y = [np.asarray(frame, dtype=float)]
    for i in range(len(s) - 1):
        yi, mid = y[-1], s[i] + 0.5 * h
        d1 = rhs(s[i], yi)
        d2 = rhs(mid, yi + 0.5 * h * d1)
        d3 = rhs(mid, yi + 0.5 * h * d2)
        d4 = rhs(s[i + 1], yi + h * d3)
        y.append(yi + (h / 6.0) * (d1 + 2.0 * d2 + 2.0 * d3 + d4))
    return np.array(y)


def boosted_frame(seed):
    T, N, B = random_boosted_frame(np.random.default_rng(seed))
    return np.array([[0.3, -0.2, 0.1], T, N, B])


S_KNOTS = np.linspace(0.0, 0.7, 8)
S_SPAN = np.linspace(0.0, 1.0, 11)

#: (k1, k2, s_range, step, initial frame).  The frame is built in blocks of
#: 1024 steps and, inside a block, in chunks of 32 steps: 1, 31, 32, 33,
#: 1024 and 1025 steps sit on those edges, 15, 16, 17, 257, 700 and 301
#: steps end inside a chunk, and the two 10,000-step cases accumulate the
#: roundoff of a fine-step run, one of them on splines as the benchmark
#: runs them.
REFERENCE_CASES = [
    pytest.param(Polynomial((1.0, 0.5, -0.2)), Sinusoid(0.05, 3.0, 0.0, 0.1), (0.0, 0.7), 1e-3, None, id="polynomial"),
    pytest.param(Sinusoid(0.3, 2.0, 0.4, 1.2), Polynomial((0.2, -0.4)), (0.0, 0.7), 1e-3, None, id="sinusoid"),
    pytest.param(
        Samples(S_KNOTS, 1.0 + 0.3 * S_KNOTS**2), Samples(S_KNOTS, 0.1 * np.cos(S_KNOTS)), (0.0, 0.7), 1e-3, None,
        id="samples",
    ),
    pytest.param(Sinusoid(0.3, 2.0, 0.4, 1.2), 0.5, (0.2, 0.501), 1e-3, boosted_frame(7), id="boosted-frame"),
    *(
        pytest.param(
            Polynomial((1.0, 0.5, -0.2)), Sinusoid(0.05, 3.0, 0.0, 0.1), (0.0, n * 1e-3), 1e-3, None, id=f"{n}-steps"
        )
        for n in (1, 15, 16, 17, 31, 32, 33, 257, 1024, 1025)
    ),
    pytest.param(
        Sinusoid(0.3, 2.0, 0.4, 1.2), Polynomial((0.2, -0.4)), (0.0, 1.0), 1e-4, boosted_frame(3), id="10000-steps"
    ),
    pytest.param(
        Samples(S_SPAN, 1.2 + 0.2 * np.sin(4.0 * S_SPAN)), Samples(S_SPAN, 0.3 - 0.1 * S_SPAN**2), (0.0, 1.0), 1e-4, None,
        id="samples-10000-steps",
    ),
]


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

    @pytest.mark.parametrize(
        "fn, spec",
        [
            pytest.param(Constant(2.5), {"type": "constant", "value": 2.5}, id="constant"),
            pytest.param(
                Polynomial((1.0, 0.5, -0.2)), {"type": "polynomial", "coefficients": [1.0, 0.5, -0.2]}, id="polynomial"
            ),
            pytest.param(
                Sinusoid(0.3, 2.0),
                {"type": "sinusoid", "amplitude": 0.3, "frequency": 2.0, "phase": 0.0, "offset": 0.0},
                id="sinusoid",
            ),
            pytest.param(
                Samples([0.0, 0.5, 1.0], [1.0, 1.2, 0.9]),
                {"type": "samples", "s": [0.0, 0.5, 1.0], "values": [1.0, 1.2, 0.9]},
                id="samples",
            ),
        ],
    )
    def test_spec_round_trip(self, fn, spec):
        assert fn.to_spec() == spec and list(fn.to_spec()) == list(spec)
        assert spec["type"] in _FUNCTIONS
        assert curvature_fn_from_spec(fn.to_spec(), "f").to_spec() == spec


class TestSamplesSpline:
    @pytest.mark.parametrize(
        "s",
        [
            pytest.param(np.array([0.0, 1.0]), id="2-knots"),
            pytest.param(np.array([0.0, 0.4, 1.0]), id="3-knots"),
            pytest.param(np.linspace(0.0, 1.0, 11), id="11-uniform"),
            pytest.param(np.array([-0.3, 0.0, 0.05, 0.2, 0.55, 0.6, 1.1, 1.4]), id="non-uniform"),
        ],
    )
    def test_matches_scipy_natural_spline(self, s):
        CubicSpline = pytest.importorskip("scipy.interpolate").CubicSpline
        values = 1.0 + 0.4 * np.sin(3.0 * s) + 0.2 * s**2
        span = s[-1] - s[0]
        mid = (s[:-1] + s[1:]) / 2
        x = np.concatenate([s, mid, np.linspace(s[0] - 0.3 * span, s[-1] + 0.3 * span, 101)])
        expected = CubicSpline(s, values, bc_type="natural")(x)
        assert np.abs(Samples(s, values)(x) - expected).max() <= 1e-14 * np.abs(values).max()

    def test_two_knots_give_a_straight_line(self):
        f = Samples([0.0, 2.0], [1.0, 2.0])
        x = np.linspace(-1.0, 3.0, 9)
        assert np.allclose(f(x), 1.0 + 0.5 * x, rtol=0.0, atol=1e-15)

    def test_scalar_input_returns_float(self):
        f = Samples([0.0, 0.5, 1.0], [1.0, 1.2, 0.9])
        assert type(f(0.25)) is float
        assert type(f(np.float64(2.0))) is float
        assert f(0.5) == 1.2

    @pytest.mark.parametrize(
        "s, values",
        [
            pytest.param([0.0], [1.0], id="one-knot"),
            pytest.param([0.0, 1.0, 2.0], [1.0, 2.0], id="shape-mismatch"),
            pytest.param([[0.0, 1.0]], [[1.0, 2.0]], id="not-1d"),
            pytest.param([0.0, math.nan, 2.0], [1.0, 2.0, 3.0], id="nan-s"),
            pytest.param([0.0, 1.0, math.inf], [1.0, 2.0, 3.0], id="inf-s"),
            pytest.param([0.0, 1.0, 2.0], [1.0, math.nan, 3.0], id="nan-values"),
            pytest.param([0.0, 1.0, 2.0], [1.0, -math.inf, 3.0], id="inf-values"),
            pytest.param([0.0, 1.0, 1.0], [1.0, 2.0, 3.0], id="repeated-s"),
            pytest.param([0.0, 2.0, 1.0], [1.0, 2.0, 3.0], id="decreasing-s"),
        ],
    )
    def test_rejects_unusable_tables(self, s, values):
        with pytest.raises(ValueError):
            Samples(s, values)


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
        # T stays timelike and future pointing at every sample
        T = unit_directrix.T
        assert np.all(lorentz_inner(T, T) < 0.0)
        assert np.all(T[:, 0] > 0.0)

    def test_torsion_couples_binormal(self):
        c = integrate_frenet(1.0, 0.5, s_range=(0.0, 1.0), step=1e-3)
        assert frame_defect(c) < 1e-10
        assert np.max(np.abs(c.k[:, 2])) > 1e-3  # leaves the x3 = 0 plane

    def test_nonorthonormal_seed_rejected(self):
        frame = default_initial_frame()
        frame[2] = [0.0, 1.01, 0.0]
        with pytest.raises(NonOrthonormalSeedError):
            integrate_frenet(1.0, 0.0, s_range=(0.0, 0.1), step=1e-3, initial_frame=frame)

    @pytest.mark.parametrize("row", [0, 1, 2, 3], ids=["position", "T", "N", "B"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_seed_rejected(self, row, value):
        frame = default_initial_frame()
        frame[row, 1] = value
        with pytest.raises(NonOrthonormalSeedError, match="non-finite"):
            integrate_frenet(1.0, 0.0, s_range=(0.0, 0.1), step=1e-3, initial_frame=frame)

    @pytest.mark.parametrize("row", [1, 2, 3], ids=["T", "N", "B"])
    def test_overflowing_seed_rejected_without_warning(self, row):
        frame = default_initial_frame()
        frame[row] *= 1e300  # the Gram products overflow
        with pytest.raises(NonOrthonormalSeedError, match="Gram defect"):
            integrate_frenet(1.0, 0.0, s_range=(0.0, 0.1), step=1e-3, initial_frame=frame)

    def test_translated_seed_moves_only_the_positions(self):
        k1, k2, frame = Sinusoid(0.3, 2.0, 0.4, 1.2), Polynomial((0.2, -0.4)), boosted_frame(5)
        c = integrate_frenet(k1, k2, s_range=(0.0, 1.0), step=1e-3, initial_frame=frame)
        frame[0] = (1e3, -2e3, 5e2)
        moved = integrate_frenet(k1, k2, s_range=(0.0, 1.0), step=1e-3, initial_frame=frame)
        for name in ("T", "N", "B"):
            assert np.array_equal(getattr(moved, name), getattr(c, name)), name
        assert np.array_equal(moved.k[0], frame[0])
        # each step's position sum rounds at the seed's magnitude
        assert np.max(np.abs(moved.k - frame[0] - (c.k - c.k[0]))) <= c.n_samples * np.spacing(2e3)

    def test_position_passing_h_over_eps_fails_at_its_sample(self):
        step = 1e-3
        limit = step / np.finfo(float).eps
        frame = default_initial_frame()
        frame[0, 0] = limit - 0.25  # x grows as sinh(s) and passes the limit near s = 0.247
        c = integrate_frenet(1.0, 0.0, s_range=(0.0, 0.2), step=step, initial_frame=frame)
        assert np.abs(c.k).max() <= limit
        with pytest.raises(FarPositionError, match=r"h / eps") as err:
            integrate_frenet(1.0, 0.0, s_range=(0.0, 0.5), step=step, initial_frame=frame)
        assert 0.24 < err.value.s < 0.26

    @pytest.mark.parametrize("position", [(1e308, 0.0, 0.0), (0.0, -1e13, 0.0)], ids=["overflow", "coarse"])
    def test_far_seed_position_fails_at_the_seed(self, position):
        frame = default_initial_frame()
        frame[0] = position
        with pytest.raises(FarPositionError) as err:
            integrate_frenet(1.0, 0.1, s_range=(0.0, 0.5), step=1e-3, initial_frame=frame)
        assert err.value.s == 0.0

    def test_flipped_orientation_rejected(self):
        frame = default_initial_frame()
        frame[3] = [0.0, 0.0, -1.0]  # orthonormal but mirror-oriented
        with pytest.raises(NonOrthonormalSeedError):
            integrate_frenet(1.0, 0.0, s_range=(0.0, 0.1), step=1e-3, initial_frame=frame)

    def test_nonpositive_curvature_rejected(self):
        with pytest.raises(NonPositiveCurvatureError) as err:
            integrate_frenet(Polynomial((0.5, -1.0)), 0.0, s_range=(0.0, 1.0), step=1e-2)
        assert (str(err.value), err.value.s) == ("k1(s=1) = -0.5 is not positive", 1.0)

    def test_step_too_large(self):
        with pytest.raises(StepTooLargeError) as err:
            integrate_frenet(5.0, 0.0, s_range=(0.0, 1.0), step=0.25)
        assert err.value.s == 0.25

    @pytest.mark.parametrize("step", [1e-3, 2.5e-4])
    def test_long_boost_is_bounded_relative_to_the_frame_size(self, step):
        # T = (cosh s, sinh s, 0) reaches 1.6e6: the absolute Gram defect passes 1e-6
        # near s = 11.2 (2e-3 at s = 15), the defect relative to |T|^2 stays near 5e-16
        c = integrate_frenet(1.0, 0.0, s_range=(0.0, 15.0), step=step)
        exact = np.stack([np.cosh(c.s), np.sinh(c.s), np.zeros_like(c.s)], axis=1)
        assert np.max(np.abs(c.T - exact) / np.cosh(c.s)[:, None]) < 1e-12

    @pytest.mark.parametrize("k1, k2", [(1e308, 0.0), (1.0, 1e308)], ids=["k1", "k2"])
    def test_overflowing_frame_fails_at_its_sample(self, k1, k2):
        # the RK4 step matrices overflow and the frame turns NaN at the first step
        with pytest.raises(StepTooLargeError) as err:
            integrate_frenet(k1, k2, s_range=(0.0, 1.0), step=1e-3)
        assert err.value.s == 1e-3

    @pytest.mark.parametrize("name", ["k1", "k2"])
    def test_non_finite_curvature_names_function_and_first_arc_length(self, name):
        step = 1e-2
        overflowing = Polynomial((1.0, 1e308, 1e308))  # first inf near s = 0.93
        fns = {"k1": Constant(1.0), "k2": Constant(0.0), name: overflowing}
        with pytest.raises(IntegrationDivergedError, match=rf"^{name}\(s=") as err:
            integrate_frenet(fns["k1"], fns["k2"], s_range=(0.0, 1.0), step=step)
        s = err.value.s
        with np.errstate(over="ignore"):
            assert not math.isfinite(overflowing(s)) and math.isfinite(overflowing(s - step / 2))
        assert 0.5 < s < 1.0

    def test_keeps_the_curvatures_at_the_step_midpoints(self):
        k1, k2 = Polynomial((1.0, 0.5)), Sinusoid(0.3, 5.0, offset=0.1)
        c = integrate_frenet(k1, k2, s_range=(0.0, 1.0), step=1e-2)
        mid = c.s[:-1] + 0.5 * c.step
        assert np.array_equal(c.k1_mid, k1(mid)) and np.array_equal(c.k2_mid, k2(mid))

    @pytest.mark.parametrize("field", ["k1_mid", "k2_mid"])
    @pytest.mark.parametrize("shape", [(1,), (3,), (2, 1), ()])
    def test_curve_rejects_midpoint_arrays_of_the_wrong_shape(self, field, shape):
        c = integrate_frenet(1.0, 0.0, s_range=(0.0, 0.02), step=1e-2)  # 3 samples, 2 midpoints
        with pytest.raises(ValueError, match=r"shape \(n - 1,\)"):
            dataclasses.replace(c, **{field: np.ones(shape)})

    def test_curve_rejects_non_finite_midpoints(self):
        c = integrate_frenet(1.0, 0.0, s_range=(0.0, 0.02), step=1e-2)
        with pytest.raises(ValueError, match="non-finite"):
            dataclasses.replace(c, k2_mid=np.array([0.0, np.nan]))

    def test_grid_must_divide_evenly(self):
        with pytest.raises(ValueError):
            uniform_grid((0.0, 1.0), 3e-4)

    def test_grid_size_is_bounded(self):
        # arithmetic only: neither grid is allocated
        assert grid_size((0.0, 1.0), 1.0 / MAX_STEPS) == MAX_STEPS
        for step in (1.0 / (MAX_STEPS + 1), 1e-9, 5e-324):
            with pytest.raises(ValueError, match="limit"):
                grid_size((0.0, 1.0), step)

    @pytest.mark.parametrize("k1, k2, s_range, step, frame", REFERENCE_CASES)
    def test_matches_stagewise_rk4(self, k1, k2, s_range, step, frame):
        c = integrate_frenet(k1, k2, s_range=s_range, step=step, initial_frame=frame)
        ref = stagewise_rk4(k1, k2 if callable(k2) else Constant(k2), c.s, default_initial_frame() if frame is None else frame)
        for j, name in enumerate(("k", "T", "N", "B")):
            assert np.max(np.abs(getattr(c, name) - ref[:, j])) <= 1e-12, name


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
            k1_mid=np.array([]),
            k2_mid=np.array([]),
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
            k1_mid=np.array([]),
            k2_mid=np.array([]),
        )
        assert frame_defect(c) == pytest.approx(0.0201, abs=1e-12)
