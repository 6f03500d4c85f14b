#!/usr/bin/env python3
"""Grid-refinement study: how every finite-difference quantity converges.

Prints four tables:
  1. frame integration error vs the closed-form hyperbolic curve (4th order),
  2. recovery error of prescribed (d, v0) through the raw-sample oracle (2nd order),
  3. the line-of-curvature developability defect (2nd order),
  4. the angle RK4's error on a manufactured exact track (4th order).
"""

import argparse
from dataclasses import dataclass

import numpy as np

from minkruled import (
    CurvatureFn,
    Sinusoid,
    SynthesisParams,
    SystemKind,
    build_surface,
    frame_defect,
    integrate_frenet,
    integrate_system,
    invariants_numeric,
    surface_defects,
)


def frenet_errors(step):
    c = integrate_frenet(1.0, 0.0, s_range=(0.0, 1.0), step=step)
    exact = np.stack([np.sinh(c.s), np.cosh(c.s) - 1.0, np.zeros_like(c.s)], axis=1)
    return float(np.max(np.abs(c.k - exact))), frame_defect(c)


def roundtrip_errors(step):
    curve = integrate_frenet(1.0, 0.1, s_range=(0.0, 0.4), step=step)
    params = SynthesisParams(theta0=1.0, phi0=0.2, d=0.5, v0=0.3)
    track = integrate_system(SystemKind.GENERAL_DV0, params, curve)
    inv = invariants_numeric(build_surface(track, curve))
    sl = slice(1, -1)
    return float(np.max(np.abs(inv.d[sl] - 0.5))), float(np.max(np.abs(inv.v0[sl] - 0.3)))


def loc_defect(step):
    curve = integrate_frenet(0.6, 0.2, s_range=(0.0, 1.0), step=step)
    track = integrate_system(SystemKind.LINE_OF_CURVATURE, SynthesisParams(n=1.0, C=0.3), curve)
    surf = build_surface(track, curve)
    return surface_defects(surf, "line_of_curvature")["line_of_curvature"]


#: Directrix curvatures of the manufactured track on [0, 1]; its angles are _exact_angles.
MANUFACTURED_K1 = Sinusoid(0.3, 2.0, offset=1.0)
MANUFACTURED_K2 = Sinusoid(0.2, 3.0, phase=0.5, offset=0.1)


def _exact_angles(s):
    """(theta, phi, theta', phi') of the manufactured track."""
    theta, theta_p = 1.0 + 0.2 * np.sin(3.0 * s), 0.6 * np.cos(3.0 * s)
    phi, phi_p = 0.3 + 0.5 * s + 0.1 * np.cos(2.0 * s), 0.5 - 0.2 * np.sin(2.0 * s)
    return theta, phi, theta_p, phi_p


@dataclass(frozen=True)
class Manufactured(CurvatureFn):
    """d (``part`` 0) or v0 (``part`` 1) that makes the exact angles solve the general system."""

    part: int

    def _at(self, s):
        theta, phi, theta_p, phi_p = _exact_angles(s)
        k1 = MANUFACTURED_K1(s)
        a = (theta_p - k1 * np.sin(phi)) / np.sinh(theta)
        b = phi_p + MANUFACTURED_K2(s) - k1 * np.cos(phi) / np.tanh(theta)
        return (-b, a)[self.part] / (a * a + b * b)


def manufactured_error(step):
    curve = integrate_frenet(MANUFACTURED_K1, MANUFACTURED_K2, s_range=(0.0, 1.0), step=step)
    theta0, phi0, _, _ = _exact_angles(0.0)
    params = SynthesisParams(theta0=float(theta0), phi0=float(phi0), d=Manufactured(0), v0=Manufactured(1))
    track = integrate_system(SystemKind.GENERAL_DV0, params, curve)
    theta, phi, _, _ = _exact_angles(curve.s)
    return max(float(np.max(np.abs(track.theta - theta))), float(np.max(np.abs(track.phi - phi))))


def table(title, steps, rows, headers):
    print(f"\n{title}")
    print(f"{'step':>10} " + " ".join(f"{h:>12} {'ratio':>7}" for h in headers))
    prev = None
    for step, vals in zip(steps, rows):
        cells = []
        for j, v in enumerate(vals):
            ratio = f"{prev[j] / v:7.2f}" if prev is not None else "      -"
            cells.append(f"{v:12.3e} {ratio}")
        print(f"{step:10.1e} " + " ".join(cells))
        prev = vals


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--steps", default="8e-3,4e-3,2e-3,1e-3", help="comma-separated grid steps, coarse to fine"
    )
    args = parser.parse_args()
    steps = [float(tok) for tok in args.steps.split(",")]

    table("frame integration vs closed form (expected ratio ~16, frame may exceed)", steps,
          [frenet_errors(h) for h in steps], ["pos_err", "frame_def"])
    table("prescribed-invariant recovery (expected ratio ~4)", steps,
          [roundtrip_errors(h) for h in steps], ["d_err", "v0_err"])
    table("line-of-curvature defect (expected ratio ~4)", steps,
          [(loc_defect(h),) for h in steps], ["defect"])
    table("manufactured angle track (expected ratio ~16)", steps,
          [(manufactured_error(h),) for h in steps], ["angle_err"])


if __name__ == "__main__":
    main()
