"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Every
tolerance is pinned here; nothing is deferred to later calibration.
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from minkruled import (
    RunConfig,
    SynthesisParams,
    SystemKind,
    build_surface,
    curvature_relations,
    dv0_from_n_mu,
    frame_defect,
    integrate_frenet,
    integrate_system,
    invariants_numeric,
    lorentz_cross,
    lorentz_inner,
    run_config,
    surface_defects,
)
from minkruled.cli import main
from minkruled.errors import GeometryError
from minkruled.surface import finite_difference
from reference import q_prime_analytic, system_rhs

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SHIPPED_CONFIGS = [
    "general_roundtrip.json",
    "developable.json",
    "striction_line.json",
    "cylinder.json",
    "geodesic.json",
    "asymptotic_line.json",
    "line_of_curvature.json",
]

E1, E2, E3 = np.eye(3)


def report(number, label, checks, elapsed, limit):
    """Print the criterion verdict line, then assert every check."""
    checks = list(checks) + [(elapsed < limit, f"runtime {elapsed:.2f}s exceeds {limit:.0f}s")]
    ok = all(c for c, _ in checks)
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number} ({elapsed:.2f}s): {label}")
    for good, msg in checks:
        if not good:
            print(f"       -> {msg}")
    assert ok, f"criterion {number} failed: " + "; ".join(m for g, m in checks if not g)


def test_criterion_1_lorentz_algebra():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    x = rng.uniform(-10, 10, size=(1200, 3))
    y = rng.uniform(-10, 10, size=(1200, 3))
    z = rng.uniform(-10, 10, size=(1200, 3))
    a = rng.uniform(-2, 2, size=1200)
    b = rng.uniform(-2, 2, size=1200)
    c = lorentz_cross(x, y)
    ortho = max(float(np.max(np.abs(lorentz_inner(c, x)))), float(np.max(np.abs(lorentz_inner(c, y)))))
    lin = float(
        np.max(
            np.abs(
                lorentz_inner(a[:, None] * x + b[:, None] * y, z)
                - a * lorentz_inner(x, z)
                - b * lorentz_inner(y, z)
            )
        )
    )
    sym = float(np.max(np.abs(lorentz_inner(x, y) - lorentz_inner(y, x))))
    elapsed = time.perf_counter() - t0
    report(
        1,
        "cross-product double orthogonality and inner-product bilinearity at 1e-12 over 1200 pairs",
        [
            (ortho < 1e-12, f"orthogonality defect {ortho:.2e}"),
            (lin < 1e-12, f"bilinearity defect {lin:.2e}"),
            (sym == 0.0, f"symmetry defect {sym:.2e}"),
        ],
        elapsed,
        1.0,
    )


def _hyperbolic_errors(step):
    c = integrate_frenet(1.0, 0.0, s_range=(0.0, 1.0), step=step)
    exact = np.stack([np.sinh(c.s), np.cosh(c.s) - 1.0, np.zeros_like(c.s)], axis=1)
    return float(np.max(np.abs(c.k - exact))), frame_defect(c)


def test_criterion_2_frenet_oracle():
    t0 = time.perf_counter()
    pos_err, fdef = _hyperbolic_errors(1e-3)
    # Convergence order is measured in the truncation-dominated regime
    # (8e-3 -> 4e-3).  At the 1e-3 base step both errors already sit at the
    # double-precision roundoff floor (~1e-14), where a halving ratio is
    # meaningless noise.
    coarse = _hyperbolic_errors(8e-3)
    fine = _hyperbolic_errors(4e-3)
    r_pos = coarse[0] / fine[0]
    r_frame = coarse[1] / fine[1]
    elapsed = time.perf_counter() - t0
    report(
        2,
        "closed-form hyperbolic curve reproduced at 1e-8; 4th-order halving ratios in [8, 32]",
        [
            (pos_err < 1e-8, f"position error {pos_err:.2e}"),
            (fdef < 1e-8, f"frame defect {fdef:.2e}"),
            (8.0 <= r_pos <= 32.0, f"position ratio {r_pos:.2f}"),
            (8.0 <= r_frame <= 32.0, f"frame ratio {r_frame:.2f}"),
        ],
        elapsed,
        1.0,
    )


def test_criterion_3_round_trip_family():
    t0 = time.perf_counter()
    curve = integrate_frenet(1.0, 0.1, s_range=(0.0, 0.5), step=1e-3)
    d0, v00 = 0.5, 0.3

    def run(theta0, phi0):
        params = SynthesisParams(theta0=theta0, phi0=phi0, d=d0, v0=v00)
        track = integrate_system(SystemKind.GENERAL_DV0, params, curve)
        inv = invariants_numeric(build_surface(track, curve))
        sl = slice(1, -1)
        rel = max(
            float(np.max(np.abs(inv.d[sl] - d0) / d0)),
            float(np.max(np.abs(inv.v0[sl] - v00) / v00)),
        )
        return track, rel

    _, rel_main = run(1.0, 0.2)

    tracks = []
    rels = []
    failures = []
    for theta0 in (0.25, 0.5, 1.0):
        for phi0 in (0.0, math.pi / 2, math.pi, 1.5 * math.pi):
            try:
                track, rel = run(theta0, phi0)
            except GeometryError as exc:
                failures.append(((theta0, phi0), type(exc).__name__))
                continue
            tracks.append(track)
            rels.append(rel)
    separations = [
        float(
            max(
                np.max(np.abs(ta.theta - tb.theta)),
                np.max(np.abs(ta.phi - tb.phi)),
            )
        )
        for i, ta in enumerate(tracks)
        for tb in tracks[i + 1 :]
    ]
    elapsed = time.perf_counter() - t0
    report(
        3,
        "general synthesis recovers (d, v0) to 1e-4 relative; 3x4 seed family distinct and passing",
        [
            (rel_main <= 1e-4, f"seed (1, 0.2) relative error {rel_main:.2e}"),
            (not failures, f"inadmissible seeds on [0, 0.5]: {failures}"),
            (len(tracks) == 12, f"expected 12 admissible seeds, got {len(tracks)}"),
            (all(r <= 1e-4 for r in rels), f"worst seed relative error {max(rels):.2e}"),
            (min(separations) > 1e-3, f"closest track pair separation {min(separations):.2e}"),
        ],
        elapsed,
        5.0,
    )


def test_criterion_4a_developable():
    t0 = time.perf_counter()
    curve = integrate_frenet(1.0, 0.15, s_range=(0.0, 1.0), step=1e-3)
    params = SynthesisParams(theta0=0.9, phi0=1.2, v0=-2.0)
    track = integrate_system(SystemKind.DEVELOPABLE, params, curve)
    inv = invariants_numeric(build_surface(track, curve))
    sl = slice(1, -1)
    d_max = float(np.max(np.abs(inv.d[sl])))
    v0_rel = float(np.max(np.abs(inv.v0[sl] + 2.0) / 2.0))
    elapsed = time.perf_counter() - t0
    report(
        "4a",
        "developable mode: |d| < 1e-6 with v0 recovered to 1e-4 relative",
        [
            (d_max < 1e-6, f"max |d| = {d_max:.2e}"),
            (v0_rel <= 1e-4, f"v0 relative error {v0_rel:.2e}"),
        ],
        elapsed,
        2.0,
    )


def test_criterion_4b_striction_line():
    t0 = time.perf_counter()
    curve = integrate_frenet(1.0, 0.1, s_range=(0.0, 0.5), step=1e-3)
    params = SynthesisParams(theta0=1.0, phi0=0.5, d=0.5)
    track = integrate_system(SystemKind.STRICTION_LINE, params, curve)
    inv = invariants_numeric(build_surface(track, curve))
    sl = slice(1, -1)
    v0_max = float(np.max(np.abs(inv.v0[sl])))
    d_rel = float(np.max(np.abs(inv.d[sl] - 0.5) / 0.5))
    elapsed = time.perf_counter() - t0
    report(
        "4b",
        "striction-line mode: |v0| < 1e-6 with d recovered to 1e-4 relative",
        [
            (v0_max < 1e-6, f"max |v0| = {v0_max:.2e}"),
            (d_rel <= 1e-4, f"d relative error {d_rel:.2e}"),
        ],
        elapsed,
        2.0,
    )


def test_criterion_4c_cylinder():
    t0 = time.perf_counter()
    curve = integrate_frenet(1.0, 0.0, s_range=(0.0, 1.0), step=1e-3)
    params = SynthesisParams(theta0=1.0, phi0=0.5)
    track = integrate_system(SystemKind.CYLINDER, params, curve)
    surf = build_surface(track, curve)
    qp = finite_difference(surf.q, surf.step)
    qn_max = float(np.max(np.sqrt(np.abs(lorentz_inner(qp, qp)))))
    elapsed = time.perf_counter() - t0
    report(
        "4c",
        "cylinder mode: max finite-difference |q'| < 1e-6",
        [(qn_max < 1e-6, f"max |q'| = {qn_max:.2e}")],
        elapsed,
        2.0,
    )


def test_criterion_5_qprime_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(105)
    n = 1200
    theta = rng.uniform(0.1, 2.0, n)
    phi = rng.uniform(0.0, 2 * math.pi, n)
    tp = rng.uniform(-2.0, 2.0, n)
    pp = rng.uniform(-2.0, 2.0, n)
    k1 = rng.uniform(-2.0, 2.0, n)
    k2 = rng.uniform(-2.0, 2.0, n)
    T = np.tile(E1, (n, 1))
    N = np.tile(E2, (n, 1))
    B = np.tile(E3, (n, 1))
    qp, norm_sq = q_prime_analytic(T, N, B, theta, phi, tp, pp, k1, k2)
    defect = float(np.max(np.abs(lorentz_inner(qp, qp) - norm_sq)))
    elapsed = time.perf_counter() - t0
    report(
        5,
        "closed-form <q',q'> equals the componentwise Lorentz norm-square within 1e-10 (1200 draws)",
        [(defect < 1e-10, f"identity defect {defect:.2e}")],
        elapsed,
        1.0,
    )


def test_criterion_6_n_mu_round_trip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(1200):
        n = rng.uniform(1e-6, 10.0)
        mu = rng.uniform(0.1, math.pi - 0.1)
        d, v0 = dv0_from_n_mu(n, mu)
        _, _, n_back = curvature_relations(d, v0)
        worst = max(worst, abs(n_back - n))
    elapsed = time.perf_counter() - t0
    report(
        6,
        "(d, v0) from (n, mu) reproduces n through the curvature relations within 1e-12",
        [(worst < 1e-12, f"worst |n_back - n| = {worst:.2e}")],
        elapsed,
        1.0,
    )


def test_criterion_7a_geodesic():
    t0 = time.perf_counter()
    n, k1, k2 = 1.0, 0.6, 0.2
    curve = integrate_frenet(k1, k2, s_range=(0.0, 1.0), step=1e-3)
    theta0 = math.atanh(0.5)  # tanh(theta) = n k1 / (n k2 + 1)
    params = SynthesisParams(theta0=theta0, phi0=0.0, n=n, mu=math.pi / 2)
    track = integrate_system(SystemKind.CURVATURE_ANGLE, params, curve)
    surf = build_surface(track, curve)
    dtheta = float(np.max(np.abs(track.theta - theta0)))
    dphi = float(np.max(np.abs(track.phi)))
    defect = surface_defects(surf, "geodesic")["geodesic"]
    elapsed = time.perf_counter() - t0
    report(
        "7a",
        "geodesic mode holds (theta, phi) constant within 1e-8 and geodesic defect < 1e-6",
        [
            (dtheta < 1e-8, f"theta drift {dtheta:.2e}"),
            (dphi < 1e-8, f"phi drift {dphi:.2e}"),
            (defect < 1e-6, f"geodesic defect {defect:.2e}"),
        ],
        elapsed,
        2.0,
    )


def test_criterion_7b_asymptotic_line():
    t0 = time.perf_counter()
    curve = integrate_frenet(1.0, -0.5, s_range=(0.0, 1.0), step=1e-3)
    params = SynthesisParams(theta0=0.6, mu=math.pi / 3, n=2.0)
    track = integrate_system(SystemKind.ASYMPTOTIC_LINE, params, curve)
    surf = build_surface(track, curve)
    defect = surface_defects(surf, "asymptotic_line")["asymptotic_line"]
    elapsed = time.perf_counter() - t0
    report(
        "7b",
        "asymptotic mode (k2 = -0.5, n = 2) keeps |<m, N>| < 1e-6",
        [(defect < 1e-6, f"max |<m,N>| = {defect:.2e}")],
        elapsed,
        2.0,
    )


def test_criterion_7c_line_of_curvature():
    t0 = time.perf_counter()
    curve = integrate_frenet(0.6, 0.2, s_range=(0.0, 1.0), step=1e-3)
    track = integrate_system(SystemKind.LINE_OF_CURVATURE, SynthesisParams(n=1.0, C=0.3), curve)
    surf = build_surface(track, curve)
    defect = surface_defects(surf, "line_of_curvature")["line_of_curvature"]
    # negative control: a generic surface over the same directrix
    generic = integrate_system(
        SystemKind.GENERAL_DV0, SynthesisParams(theta0=0.5, phi0=0.2, d=0.5, v0=0.3), curve
    )
    control = surface_defects(build_surface(generic, curve), "line_of_curvature")["line_of_curvature"]
    elapsed = time.perf_counter() - t0
    report(
        "7c",
        "line-of-curvature mode: developability defect < 1e-5; generic control exceeds 1e-3",
        [
            (defect < 1e-5, f"defect {defect:.2e}"),
            (control > 1e-3, f"negative control {control:.2e}"),
        ],
        elapsed,
        2.0,
    )


def test_criterion_8_substitution_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(1200):
        theta = rng.uniform(0.1, 2.0)
        phi = rng.uniform(0.0, 2 * math.pi)
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
        worst = max(worst, abs(a[0] - b[0]), abs(a[1] - b[1]))
    elapsed = time.perf_counter() - t0
    report(
        8,
        "curvature-angle right-hand side equals the general one under the (n, mu) map within 1e-12",
        [(worst < 1e-12, f"worst component difference {worst:.2e}")],
        elapsed,
        1.0,
    )


def test_criterion_9_cli_contract(tmp_path, capsys):
    t0 = time.perf_counter()
    checks = []
    for name in SHIPPED_CONFIGS:
        path = str(CONFIG_DIR / name)
        out = str(tmp_path / name.replace(".json", ""))
        synth = main(["synthesize", "--config", path, "--out-dir", out])
        verif = main(["verify", "--config", path])
        checks.append((synth == 0 and verif == 0, f"{name}: synthesize={synth} verify={verif}"))

    # one run through the real process entry point
    proc = subprocess.run(
        [sys.executable, "-m", "minkruled", "verify", "--config", str(CONFIG_DIR / "cylinder.json")],
        capture_output=True,
        text=True,
    )
    checks.append((proc.returncode == 0, f"subprocess exit {proc.returncode}: {proc.stderr.strip()}"))

    # corrupted configs must exit nonzero and name the field
    doc = json.loads((CONFIG_DIR / "developable.json").read_text())
    del doc["params"]["v0"]
    bad1 = tmp_path / "missing_v0.json"
    bad1.write_text(json.dumps(doc))
    capsys.readouterr()
    code1 = main(["verify", "--config", str(bad1)])
    err1 = capsys.readouterr().err
    checks.append((code1 == 2 and "params.v0" in err1, f"missing v0: exit {code1}, stderr {err1!r}"))

    doc = json.loads((CONFIG_DIR / "cylinder.json").read_text())
    doc["directrix"]["step"] = -1.0
    bad2 = tmp_path / "bad_step.json"
    bad2.write_text(json.dumps(doc))
    code2 = main(["verify", "--config", str(bad2)])
    err2 = capsys.readouterr().err
    checks.append((code2 == 2 and "directrix.step" in err2, f"bad step: exit {code2}, stderr {err2!r}"))

    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        report(
            9,
            "shipped configs pass synthesize + verify end-to-end; corrupted configs name the field",
            checks,
            elapsed,
            10.0,
        )


@pytest.mark.parametrize("name", SHIPPED_CONFIGS)
def test_shipped_config_passes_at_fine_step(name):
    cfg = RunConfig.from_file(str(CONFIG_DIR / name)).with_overrides(step=1e-4)
    result = run_config(cfg, write_outputs=False)
    assert result.report.passed, result.report.to_dict()
