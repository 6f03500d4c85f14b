"""Timelike directrix reconstruction from prescribed curvature and torsion.

A directrix is never given as points here: it is defined intrinsically by
curvature k1(s) > 0 and torsion k2(s), and rebuilt together with its frame
(T, N, B) by integrating the moving-frame equations

    k' = T,   T' = k1 N,   N' = k1 T + k2 B,   B' = -k2 N

with <T,T> = -1 and <N,N> = <B,B> = 1.  Integration is fixed-step classical
4th order so grids are bit-stable and reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import (
    NonOrthonormalSeedError,
    NonPositiveCurvatureError,
    StepTooLargeError,
    TorsionVanishesError,
)
from .lorentz import lorentz_inner, mixed_product

DEFAULT_STEP = 1e-3
DEFAULT_S_RANGE = (0.0, 1.0)
DEFAULT_FRAME_TOL = 1e-6
#: Largest accepted grid, in steps; the frame alone takes 96 bytes per sample.
MAX_STEPS = 1_000_000


# ---------------------------------------------------------------------------
# curvature functions
# ---------------------------------------------------------------------------


class CurvatureFn:
    """A scalar function of arc length, evaluable anywhere on the interval."""

    def __call__(self, s):
        raise NotImplementedError

    def to_spec(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class Constant(CurvatureFn):
    value: float

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        out = np.full_like(s, self.value)
        return float(out) if out.ndim == 0 else out

    def to_spec(self) -> dict:
        return {"type": "constant", "value": float(self.value)}


@dataclass(frozen=True)
class Polynomial(CurvatureFn):
    """Polynomial in s, coefficients in ascending order (constant term first)."""

    coefficients: tuple[float, ...]

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        out = np.polynomial.polynomial.polyval(s, np.asarray(self.coefficients, dtype=float))
        return float(out) if out.ndim == 0 else out

    def to_spec(self) -> dict:
        return {"type": "polynomial", "coefficients": [float(c) for c in self.coefficients]}


@dataclass(frozen=True)
class Sinusoid(CurvatureFn):
    """amplitude * sin(frequency * s + phase) + offset (angular frequency)."""

    amplitude: float
    frequency: float
    phase: float = 0.0
    offset: float = 0.0

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        out = self.amplitude * np.sin(self.frequency * s + self.phase) + self.offset
        return float(out) if out.ndim == 0 else out

    def to_spec(self) -> dict:
        return {
            "type": "sinusoid",
            "amplitude": float(self.amplitude),
            "frequency": float(self.frequency),
            "phase": float(self.phase),
            "offset": float(self.offset),
        }


class Samples(CurvatureFn):
    """Tabulated values, interpolated by a natural cubic spline."""

    def __init__(self, s_grid, values):
        s_grid = np.asarray(s_grid, dtype=float)
        values = np.asarray(values, dtype=float)
        if s_grid.ndim != 1 or s_grid.shape != values.shape:
            raise ValueError("s_grid and values must be matching 1-d arrays")
        self.s_grid = s_grid
        self.values = values
        self._spline = CubicSpline(s_grid, values, bc_type="natural")

    def __call__(self, s):
        out = self._spline(np.asarray(s, dtype=float))
        return float(out) if out.ndim == 0 else out

    def to_spec(self) -> dict:
        return {
            "type": "samples",
            "s": [float(v) for v in self.s_grid],
            "values": [float(v) for v in self.values],
        }


def as_curvature_fn(value) -> CurvatureFn:
    """Coerce a number or CurvatureFn to a CurvatureFn."""
    if isinstance(value, CurvatureFn):
        return value
    return Constant(float(value))


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FrenetCurve:
    """A sampled timelike directrix with per-sample frame and curvatures.

    ``s`` is a uniform arc-length grid; ``k`` holds positions and T, N, B
    the frame vectors, one row per sample.  ``k1_fn``/``k2_fn`` keep the
    generating functions when known so downstream integrators can evaluate
    curvatures off-grid; they default to spline interpolants of the samples.
    """

    s: np.ndarray
    k: np.ndarray
    T: np.ndarray
    N: np.ndarray
    B: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    k1_fn: CurvatureFn | None = field(default=None, repr=False, compare=False)
    k2_fn: CurvatureFn | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        for name in ("s", "k", "T", "N", "B", "k1", "k2"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        n = self.s.shape[0]
        if self.k.shape != (n, 3) or self.T.shape != (n, 3):
            raise ValueError("position/frame arrays must have shape (n, 3)")
        if not all(np.all(np.isfinite(getattr(self, name))) for name in ("s", "k", "T", "N", "B", "k1", "k2")):
            raise ValueError("curve contains non-finite samples")

    @property
    def n_samples(self) -> int:
        return self.s.shape[0]

    @property
    def step(self) -> float:
        if self.n_samples < 2:
            raise ValueError("single-sample curve has no step")
        return float(self.s[1] - self.s[0])

    def curvature_fns(self) -> tuple[CurvatureFn, CurvatureFn]:
        k1 = self.k1_fn if self.k1_fn is not None else Samples(self.s, self.k1)
        k2 = self.k2_fn if self.k2_fn is not None else Samples(self.s, self.k2)
        return k1, k2


def default_initial_frame() -> np.ndarray:
    """Rows (position, T, N, B) = (0, e1, e2, e3)."""
    return np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


_GRAM_TARGETS = ((0, 0, -1.0), (1, 1, 1.0), (2, 2, 1.0), (0, 1, 0.0), (0, 2, 0.0), (1, 2, 0.0))


def _frame_gram_defect(T, N, B) -> np.ndarray:
    """Max deviation of the six Gram conditions, per sample."""
    vecs = (T, N, B)
    worst = None
    for i, j, target in _GRAM_TARGETS:
        dev = np.abs(lorentz_inner(vecs[i], vecs[j]) - target)
        worst = dev if worst is None else np.maximum(worst, dev)
    return worst


#: Steps whose RK4 step matrices are built in one batch; bounds the scratch
#: memory of a long grid to a few blocks of 4 x 4 matrices.
_BLOCK = 256


def _frame_matrices(k1: np.ndarray, k2: np.ndarray) -> np.ndarray:
    """Coefficient matrices C with y' = C y on the rows (position, T, N, B).

    The moving-frame equations k' = T, T' = k1 N, N' = k1 T + k2 B and
    B' = -k2 N, one 4 x 4 matrix per curvature pair.
    """
    C = np.zeros(k1.shape + (4, 4))
    C[:, 0, 1] = 1.0
    C[:, 1, 2] = C[:, 2, 1] = k1
    C[:, 2, 3] = k2
    C[:, 3, 2] = -k2
    return C


def _rk4_frames(frame: np.ndarray, h: float, k1, k2, k1_mid, k2_mid) -> np.ndarray:
    """Classical RK4 on the linear frame equations, one step matrix per step.

    ``k1``, ``k2`` hold the curvatures at the samples and ``k1_mid``,
    ``k2_mid`` at the step midpoints.  RK4 on y' = C(s) y is exactly
    y_{n+1} = M_n y_n with C1 = C(s_n), C2 = C(s_n + h/2), C4 = C(s_{n+1}),
    K2 = C2 (I + h/2 C1), K3 = C2 (I + h/2 K2), K4 = C4 (I + h K3) and
    M_n = I + h/6 (C1 + 2 K2 + 2 K3 + K4).  The M_n are built in batches of
    ``_BLOCK`` steps and applied in order.
    """
    eye = np.eye(4)
    n_steps = k1_mid.shape[0]
    y = np.empty((n_steps + 1, 4, 3))
    y[0] = frame
    for lo in range(0, n_steps, _BLOCK):
        hi = min(lo + _BLOCK, n_steps)
        C1 = _frame_matrices(k1[lo:hi], k2[lo:hi])
        C2 = _frame_matrices(k1_mid[lo:hi], k2_mid[lo:hi])
        C4 = _frame_matrices(k1[lo + 1 : hi + 1], k2[lo + 1 : hi + 1])
        K2 = C2 @ (eye + (0.5 * h) * C1)
        K3 = C2 @ (eye + (0.5 * h) * K2)
        K4 = C4 @ (eye + h * K3)
        M = eye + (h / 6.0) * (C1 + 2.0 * K2 + 2.0 * K3 + K4)
        for M_i, y_i, y_next in zip(M, y[lo:hi], y[lo + 1 : hi + 1]):
            np.dot(M_i, y_i, out=y_next)
    return y


def grid_size(s_range: tuple[float, float], step: float) -> int:
    """Number of steps of the uniform grid; the span must be a multiple of step.

    Grids of more than ``MAX_STEPS`` steps are rejected before anything is
    allocated.
    """
    span = float(s_range[1]) - float(s_range[0])
    if not (math.isfinite(step) and step > 0):
        raise ValueError("step must be positive")
    if not (math.isfinite(span) and span > 0):
        raise ValueError("s_range must be increasing")
    if span / step > MAX_STEPS + 0.5:
        raise ValueError(f"s_range span {span} at step {step} exceeds the limit of {MAX_STEPS} steps")
    n = int(round(span / step))
    if n < 1 or abs(n * step - span) > 1e-9 * max(1.0, abs(span)):
        raise ValueError(f"s_range span {span} is not an integer multiple of step {step}")
    return n


def uniform_grid(s_range: tuple[float, float], step: float) -> np.ndarray:
    """Uniform grid covering s_range; the span must be a multiple of step."""
    return float(s_range[0]) + step * np.arange(grid_size(s_range, step) + 1)


def integrate_frenet(
    k1,
    k2,
    *,
    s_range: tuple[float, float] = DEFAULT_S_RANGE,
    step: float = DEFAULT_STEP,
    initial_frame: np.ndarray | None = None,
    frame_tol: float = DEFAULT_FRAME_TOL,
) -> FrenetCurve:
    """Rebuild a timelike curve and its frame from k1(s) and k2(s).

    Parameters
    ----------
    k1, k2:
        Curvature and torsion, as CurvatureFn or plain numbers.  k1 must be
        strictly positive on the grid.
    s_range, step:
        Uniform grid specification; the span must divide evenly by step.
    initial_frame:
        4 x 3 array of rows (position, T, N, B).  Defaults to the origin with
        the standard basis.  Must be Lorentz-orthonormal within 1e-12 and
        positively oriented (<T x N, B> = -1, matching the standard basis);
        a flipped orientation would silently negate every mixed product
        downstream.
    frame_tol:
        Integration fails with StepTooLargeError, naming the first sample
        whose frame orthonormality defect exceeds this bound.
    """
    k1_fn = as_curvature_fn(k1)
    k2_fn = as_curvature_fn(k2)
    s = uniform_grid(s_range, step)

    frame = np.asarray(default_initial_frame() if initial_frame is None else initial_frame, dtype=float)
    if frame.shape != (4, 3):
        raise ValueError("initial_frame must be a 4 x 3 array (position, T, N, B)")
    T0, N0, B0 = frame[1], frame[2], frame[3]
    seed_defect = float(_frame_gram_defect(T0, N0, B0))
    if seed_defect > 1e-12:
        raise NonOrthonormalSeedError(f"seed frame Gram defect {seed_defect:.3e} exceeds 1e-12")
    orient = float(mixed_product(T0, N0, B0))
    if abs(orient + 1.0) > 1e-9:
        raise NonOrthonormalSeedError(f"seed frame orientation <T x N, B> = {orient:.3e}, expected -1")

    k1_grid = np.asarray(k1_fn(s), dtype=float)
    k2_grid = np.asarray(k2_fn(s), dtype=float)
    if not (np.all(np.isfinite(k1_grid)) and np.all(np.isfinite(k2_grid))):
        raise ValueError("curvature functions produced non-finite values on the grid")
    if np.min(k1_grid) <= 0.0:
        i = int(np.argmin(k1_grid))
        raise NonPositiveCurvatureError(f"k1(s={s[i]:.6g}) = {k1_grid[i]:.6g} is not positive")

    h = float(s[1] - s[0])
    mid = s[:-1] + 0.5 * h
    k1_mid, k2_mid = np.asarray(k1_fn(mid), dtype=float), np.asarray(k2_fn(mid), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        y = _rk4_frames(frame, h, k1_grid, k2_grid, k1_mid, k2_mid)
        defect = _frame_gram_defect(y[1:, 1], y[1:, 2], y[1:, 3])
    over = np.flatnonzero(defect > frame_tol)
    if over.size:
        i = int(over[0])
        raise StepTooLargeError(
            f"frame defect {defect[i]:.3e} exceeds {frame_tol:.3e} at s = {s[i + 1]:.6g}; reduce the step",
            s=float(s[i + 1]),
        )

    return FrenetCurve(
        s=s,
        k=y[:, 0],
        T=y[:, 1],
        N=y[:, 2],
        B=y[:, 3],
        k1=k1_grid,
        k2=k2_grid,
        k1_fn=k1_fn,
        k2_fn=k2_fn,
    )


def frame_defect(curve: FrenetCurve) -> float:
    """Max over samples and Gram conditions of |<.,.> - target|."""
    if curve.n_samples == 0:
        raise ValueError("empty curve")
    return float(np.max(_frame_gram_defect(curve.T, curve.N, curve.B)))


def helix_ratio(curve: FrenetCurve, *, tol: float = 1e-9) -> tuple[float, float]:
    """Mean of k1/k2 over the grid and the max deviation from that mean.

    A vanishing max deviation is the general-helix criterion.
    """
    if np.min(np.abs(curve.k2)) < tol:
        raise TorsionVanishesError("k2 is below tolerance somewhere on the grid")
    ratio = curve.k1 / curve.k2
    mean = float(np.mean(ratio))
    return mean, float(np.max(np.abs(ratio - mean)))
