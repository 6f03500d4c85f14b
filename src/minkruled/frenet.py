"""Timelike directrix reconstruction from prescribed curvature and torsion.

A directrix is never given as points here: it is defined intrinsically by
curvature k1(s) > 0 and torsion k2(s), and rebuilt together with its frame
(T, N, B) by integrating the moving-frame equations

    k' = T,   T' = k1 N,   N' = k1 T + k2 B,   B' = -k2 N

with <T,T> = -1 and <N,N> = <B,B> = 1.  Integration is fixed-step classical
4th order so grids are bit-stable and reproducible.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    FarPositionError,
    IntegrationDivergedError,
    NonOrthonormalSeedError,
    NonPositiveCurvatureError,
    StepTooLargeError,
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
    """A scalar function of arc length, evaluable anywhere on the interval.

    Subclasses are dataclasses that define ``_at(s)`` on a float array; a
    0-d input gives a float.  Their JSON spec is the lowercased class name
    as ``type`` plus one entry per field.
    """

    def __call__(self, s):
        out = self._at(np.asarray(s, dtype=float))
        return float(out) if out.ndim == 0 else out

    def to_spec(self) -> dict:
        spec = {"type": type(self).__name__.lower()}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            spec[f.name] = float(value) if np.ndim(value) == 0 else [float(v) for v in value]
        return spec


@dataclass(frozen=True)
class Constant(CurvatureFn):
    value: float

    def _at(self, s):
        return np.full_like(s, self.value)


@dataclass(frozen=True)
class Polynomial(CurvatureFn):
    """Polynomial in s, coefficients in ascending order (constant term first)."""

    coefficients: tuple[float, ...]

    def _at(self, s):
        return np.polynomial.polynomial.polyval(s, np.asarray(self.coefficients, dtype=float))


@dataclass(frozen=True)
class Sinusoid(CurvatureFn):
    """amplitude * sin(frequency * s + phase) + offset (angular frequency)."""

    amplitude: float
    frequency: float
    phase: float = 0.0
    offset: float = 0.0

    def _at(self, s):
        return self.amplitude * np.sin(self.frequency * s + self.phase) + self.offset


@dataclass(eq=False)  # numpy fields: compared by identity
class Samples(CurvatureFn):
    """Tabulated values at the knots ``s``, interpolated by a natural cubic spline.

    Outside ``[s[0], s[-1]]`` the end cubics extrapolate.
    """

    s: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.s = s = np.asarray(self.s, dtype=float)
        self.values = values = np.asarray(self.values, dtype=float)
        if s.ndim != 1 or s.shape != values.shape or len(s) < 2:
            raise ValueError("s and values must be matching 1-d arrays of at least 2 knots")
        if not (np.isfinite(s).all() and np.isfinite(values).all()):
            raise ValueError("s and values must be finite")
        with np.errstate(over="ignore", invalid="ignore"):
            h = np.diff(s)
            if not (h > 0).all():
                raise ValueError("s must be strictly increasing")
            # knot second derivatives m, m[0] = m[-1] = 0, by a Thomas sweep over
            # h[i-1] m[i-1] + 2 (h[i-1] + h[i]) m[i] + h[i] m[i+1] = 6 (slope[i] - slope[i-1])
            slope = np.diff(values) / h
            rhs = (6.0 * np.diff(slope)).tolist()
            diag = (2.0 * (h[:-1] + h[1:])).tolist()
            hl = h.tolist()
            m = [0.0] * len(s)
            for i in range(1, len(rhs)):
                w = hl[i] / diag[i - 1]
                diag[i] -= w * hl[i]
                rhs[i] -= w * rhs[i - 1]
            for i in range(len(rhs) - 1, -1, -1):
                m[i + 1] = (rhs[i] - hl[i + 1] * m[i + 2]) / diag[i]
            m = np.asarray(m)
            self._coef = (values[:-1], slope - h * (2.0 * m[:-1] + m[1:]) / 6.0, m[:-1] / 2.0, np.diff(m) / (6.0 * h))
        if not all(np.isfinite(c).all() for c in self._coef):
            raise ValueError("the spline through these knots overflows the float range")

    def _at(self, s):
        i = np.clip(np.searchsorted(self.s, s, side="right") - 1, 0, len(self.s) - 2)
        t = s - self.s[i]
        c0, c1, c2, c3 = self._coef
        return c0[i] + t * (c1[i] + t * (c2[i] + t * c3[i]))


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
    the frame vectors, one row per sample.  ``k1``, ``k2`` are the
    curvatures at the samples and ``k1_mid``, ``k2_mid`` at the step
    midpoints ``s[:-1] + h/2``: every value an RK4 step on this grid reads.
    """

    s: np.ndarray
    k: np.ndarray
    T: np.ndarray
    N: np.ndarray
    B: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    k1_mid: np.ndarray
    k2_mid: np.ndarray

    def __post_init__(self):
        names = [f.name for f in dataclasses.fields(self)]
        for name in names:
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        n = self.s.shape[0]
        if self.k.shape != (n, 3) or self.T.shape != (n, 3):
            raise ValueError("position/frame arrays must have shape (n, 3)")
        if self.k1_mid.shape != (max(n - 1, 0),) or self.k2_mid.shape != self.k1_mid.shape:
            raise ValueError("midpoint curvature arrays must have shape (n - 1,)")
        if not all(np.all(np.isfinite(getattr(self, name))) for name in names):
            raise ValueError("curve contains non-finite samples")

    @property
    def n_samples(self) -> int:
        return self.s.shape[0]

    @property
    def step(self) -> float:
        if self.n_samples < 2:
            raise ValueError("single-sample curve has no step")
        return float(self.s[1] - self.s[0])


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


#: Steps whose RK4 step matrices are built and scanned in one batch; bounds
#: the scratch memory of a long grid to a few blocks of 3 x 3 matrices.
_BLOCK = 2048


def _times_a(k1, k2, G: np.ndarray) -> np.ndarray:
    """A G per step, for A = [[0, k1, 0], [k1, 0, k2], [0, -k2, 0]].

    ``G`` is an entry-major (3, 3, m) block whose rows are the T, N and B
    rows; A sets T <- k1 N, N <- k1 T + k2 B and B <- -k2 N.
    """
    out = np.empty_like(G)
    np.multiply(k1, G[1], out=out[0])
    np.multiply(k1, G[0], out=out[1])
    out[1] += k2 * G[2]
    np.multiply(-k2, G[1], out=out[2])
    return out


def _plus_identity(c: float, K: np.ndarray) -> np.ndarray:
    """I + c K per step, on an entry-major (3, 3, m) block."""
    G = c * K
    G.reshape(9, -1)[::4] += 1.0
    return G


def _step_matrices(h: float, k1, k2, k1_mid, k2_mid, k1_end, k2_end) -> tuple[np.ndarray, np.ndarray]:
    """The RK4 step increments of one block of steps, as (D, p).

    The coefficient matrix of the rows (position, T, N, B) is
    C = [[0, e1], [0, A]], with a zero first column, so every RK4 stage
    matrix C (I + c K) is [[0, row T of (I + c K)], [0, A (I + c K)]] and
    the step matrix is M_n = [[1, p_n], [0, I + D_n]]:

        K2 = A_mid (I + h/2 A1),  K3 = A_mid (I + h/2 K2),  K4 = A_end (I + h K3),
        D = h/6 (A1 + 2 K2 + 2 K3 + K4),
        p = h/6 (e1 + 2 (e1 + h/2 A1_T) + 2 (e1 + h/2 K2_T) + e1 + h K3_T)
          = h e1 + h^2/6 (A1_T + K2_T + K3_T),

    where A1_T = (0, k1, 0) is the T row of A1.  The frame's step matrix
    I + D is never formed: rounding I + D would drop the low bits of every
    increment.  ``D`` is entry-major (3, 3, m) and ``p`` is (3, m).
    """
    a, b = (0.5 * h) * k1, (0.5 * h) * k2
    G = np.zeros((3, 3) + k1.shape)  # I + h/2 A1
    G.reshape(9, -1)[::4] = 1.0
    G[0, 1] = G[1, 0] = a
    G[1, 2] = b
    np.negative(b, out=G[2, 1])
    K2 = _times_a(k1_mid, k2_mid, G)
    K3 = _times_a(k1_mid, k2_mid, _plus_identity(0.5 * h, K2))
    K4 = _times_a(k1_end, k2_end, _plus_identity(h, K3))
    p = K2[0] + K3[0]
    p[1] += k1
    p *= h * h / 6.0
    p[0] += h
    D = K2  # h/6 (A1 + 2 K2 + 2 K3 + K4)
    D += K3
    D *= 2.0
    D += K4
    D[0, 1] += k1
    D[1, 0] += k1
    D[1, 2] += k2
    D[2, 1] -= k2
    D *= h / 6.0
    return D, p


def _compose(later: np.ndarray, earlier: np.ndarray) -> None:
    """later <- the increment of the product (I + later)(I + earlier), in place, per matrix of two (k, 3, 3) views.

    That is later + earlier + later earlier, which never rounds I + E.
    The views may share memory, so the sum is formed apart and then stored.
    """
    E = later @ earlier
    E += later
    E += earlier
    later[...] = E


def _prefix_increments(E: np.ndarray) -> None:
    """Turn the step increments D_j of a (m, 3, 3) block into the increments of their running products, in place.

    Afterwards E[j] = P_j - I for P_j = (I + D_j) ... (I + D_0).  A
    Brent-Kung scan: an up-sweep composes pairs, pairs of pairs and so on,
    so that E[j] holds the product of the 2^k steps ending at j for the
    largest 2^k dividing j + 1, and a down-sweep composes each of the other
    entries with the full prefix before it.  Each level is one batched
    matmul over strided views, so a block takes about 2 log2(m) levels and
    2m 3 x 3 products.  ``m`` must be a power of two.
    """
    m = E.shape[0]
    d = 1
    while d < m:
        _compose(E[2 * d - 1 :: 2 * d], E[d - 1 :: 2 * d])
        d *= 2
    d //= 4
    while d >= 1:
        _compose(E[3 * d - 1 :: 2 * d], E[2 * d - 1 : -d : 2 * d])
        d //= 2


def _rk4_frames(frame: np.ndarray, h: float, k1, k2, k1_mid, k2_mid) -> np.ndarray:
    """Classical RK4 on the linear frame equations, one step matrix per step.

    ``k1``, ``k2`` hold the curvatures at the samples and ``k1_mid``,
    ``k2_mid`` at the step midpoints.  RK4 on the rows (position, T, N, B)
    is exactly one step matrix M_n = [[1, p_n], [0, I + D_n]] per step (see
    ``_step_matrices``), built in batches of ``_BLOCK`` steps.  The position
    never feeds the frame: (T, N, B)_{n+1} = (I + D_n) (T, N, B)_n, and the
    positions are the seed position plus one cumulative sum of the
    increments p_n . (T, N, B)_n.  Returns the positions and T, N, B as one
    (4, n_samples, 3) array.

    The frames are carried as increments, never as step matrices or their
    products: a block's running products P_j - I = E_j come from one scan
    of its increments (``_prefix_increments``), every frame of the block is
    S + E_j S for the block's start frame S, and the last of them starts
    the next block.  A step moves the frame by about h, so a rounded I + D
    would drop the low bits of every increment, and the frame would leave
    orthonormality by about one unit roundoff per step.
    """
    n_steps = k1_mid.shape[0]
    y = np.empty((4, n_steps + 1, 3))
    y[:, 0] = frame
    # the positions hold the increments until the closing cumulative sum
    positions, frames = y[0], y[1:].transpose(1, 0, 2)
    for lo in range(0, n_steps, _BLOCK):
        hi = min(lo + _BLOCK, n_steps)
        D, p = _step_matrices(
            h, k1[lo:hi], k2[lo:hi], k1_mid[lo:hi], k2_mid[lo:hi], k1[lo + 1 : hi + 1], k2[lo + 1 : hi + 1]
        )
        m = hi - lo
        # a power-of-two block; the steps past a short last block have D = 0
        E = np.zeros((1 << (m - 1).bit_length(), 3, 3))
        E[:m] = D.transpose(2, 0, 1)
        _prefix_increments(E)
        S = frames[lo]
        out = (E[:m].reshape(-1, 3) @ S).reshape(m, 3, 3)
        out += S
        frames[lo + 1 : hi + 1] = out
        np.einsum("im,mij->mj", p, frames[lo:hi], out=positions[lo + 1 : hi + 1])
    np.cumsum(positions, axis=0, out=positions)
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
        the standard basis.  Must be finite, Lorentz-orthonormal within 1e-12 and
        positively oriented (<T x N, B> = -1, matching the standard basis);
        a flipped orientation would silently negate every mixed product
        downstream.

    Integration fails with IntegrationDivergedError at the first arc length,
    sample or step midpoint, where k1 or k2 is not finite (an overflowing
    polynomial, say), with StepTooLargeError at the first sample whose
    frame orthonormality defect, divided by max(1, the largest squared
    Euclidean norm of T, N and B there), exceeds DEFAULT_FRAME_TOL or is
    NaN, and with
    FarPositionError at the first sample whose position passes |x| = h / eps.
    There floats can be spaced more than a step apart, so the positions cannot
    follow the tangent, and finite differences of them read rounding (and
    overflow beyond about 4.5e307).
    """
    k1_fn, k2_fn = as_curvature_fn(k1), as_curvature_fn(k2)
    s = uniform_grid(s_range, step)

    frame = np.asarray(default_initial_frame() if initial_frame is None else initial_frame, dtype=float)
    if frame.shape != (4, 3):
        raise ValueError("initial_frame must be a 4 x 3 array (position, T, N, B)")
    if not np.isfinite(frame).all():
        raise NonOrthonormalSeedError("seed frame has a non-finite entry")
    T0, N0, B0 = frame[1], frame[2], frame[3]
    # a huge finite frame overflows to inf or NaN here, and a NaN fails each check
    with np.errstate(over="ignore", invalid="ignore"):
        seed_defect = float(_frame_gram_defect(T0, N0, B0))
        orient = float(mixed_product(T0, N0, B0))
    if not seed_defect <= 1e-12:
        raise NonOrthonormalSeedError(f"seed frame Gram defect {seed_defect:.3e} exceeds 1e-12")
    if not abs(orient + 1.0) <= 1e-9:
        raise NonOrthonormalSeedError(f"seed frame orientation <T x N, B> = {orient:.3e}, expected -1")

    h = float(s[1] - s[0])
    mid = s[:-1] + 0.5 * h
    with np.errstate(over="ignore", invalid="ignore"):
        k1_grid, k1_mid, k2_grid, k2_mid = k1_fn(s), k1_fn(mid), k2_fn(s), k2_fn(mid)
        # the first arc length, sample or midpoint, where k1 or k2 is not finite
        at, name = min(
            (x[~np.isfinite(v)].min(initial=math.inf), name)
            for name, x, v in (("k1", s, k1_grid), ("k1", mid, k1_mid), ("k2", s, k2_grid), ("k2", mid, k2_mid))
        )
        if at < math.inf:
            raise IntegrationDivergedError(f"{name}(s={at:.6g}) is not finite", s=float(at))
        if np.min(k1_grid) <= 0.0:
            i = int(np.argmin(k1_grid))
            raise NonPositiveCurvatureError(f"k1(s={s[i]:.6g}) = {k1_grid[i]:.6g} is not positive", s=float(s[i]))
        y = _rk4_frames(frame, h, k1_grid, k2_grid, k1_mid, k2_mid)
        T, N, B = y[1, 1:], y[2, 1:], y[3, 1:]
        defect = _frame_gram_defect(T, N, B)
        # the bound is relative to the frame's size: a boosted frame's entries grow
        # as cosh of its hyperbolic angle, and their roundoff with them.  The size
        # is at least 1, so only a sample over the bound as it stands can fail.
        over = np.flatnonzero(~(defect <= DEFAULT_FRAME_TOL))  # a NaN frame fails too
        size = np.maximum(1.0, np.maximum.reduce([np.einsum("ij,ij->i", v[over], v[over]) for v in (T, N, B)]))
        relative = defect[over] / size
    failing = np.flatnonzero(~(relative <= DEFAULT_FRAME_TOL))
    if failing.size:
        j = failing[0]
        i = int(over[j])
        raise StepTooLargeError(
            f"frame defect {relative[j]:.3e} exceeds {DEFAULT_FRAME_TOL:.3e} relative to the frame's size"
            f" at s = {s[i + 1]:.6g}; reduce the step",
            s=float(s[i + 1]),
        )
    limit = h / np.finfo(float).eps
    # one whole-array max; the first far sample is located only when it fails
    if not np.abs(y[0]).max() <= limit:
        i = int(np.flatnonzero(~(np.abs(y[0]).max(axis=1) <= limit))[0])
        raise FarPositionError(
            f"position |x| passes h / eps = {limit:.6g} at s = {s[i]:.6g}, where the float spacing can exceed the step",
            s=float(s[i]),
            limit=limit,
        )

    return FrenetCurve(
        s=s,
        k=y[0],
        T=y[1],
        N=y[2],
        B=y[3],
        k1=k1_grid,
        k2=k2_grid,
        k1_mid=k1_mid,
        k2_mid=k2_mid,
    )


def frame_defect(curve: FrenetCurve) -> float:
    """Max over samples and Gram conditions of |<.,.> - target|."""
    if curve.n_samples == 0:
        raise ValueError("empty curve")
    return float(np.max(_frame_gram_defect(curve.T, curve.N, curve.B)))
