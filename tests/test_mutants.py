"""A mutant catalogue: which shipped configs' verdicts catch a broken synthesis or oracle.

Each mutant breaks one step, applied by monkeypatch to runs of the shipped
configs at their step h = 1e-3.  A row names a config whose unmutated run
passes and whose mutated run must fail, and the failures it must name.  A
config that misses its mutant today is a strict xfail naming the ROADMAP
item whose check should catch it; the change that lands the item drops the
marker.

The power ladder (ROADMAP item 3) scales one prescribed parameter by
``1 + eps``, verifies against the unscaled prescription, and pins the
smallest rejected ``eps`` of a 1-3 ladder from 1e-7, at h = 1e-3 and 1e-4.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from minkruled import RunConfig, frenet, recompute_report, surface, synthesis
from minkruled.pipeline import build_directrix, run_config, synthesize_surface
from minkruled.synthesis import KINDS, SystemKind
from minkruled.verify import surface_defects

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def torsion(monkeypatch, cfg):
    """The frame is integrated with its torsion x 1.001; the stored k2 is kept."""
    step_matrices = frenet._step_matrices

    def scaled(h, k1, k2, k1_mid, k2_mid, k1_end, k2_end):
        return step_matrices(h, k1, 1.001 * k2, k1_mid, 1.001 * k2_mid, k1_end, 1.001 * k2_end)

    monkeypatch.setattr(frenet, "_step_matrices", scaled)
    return cfg


def radius(monkeypatch, cfg):
    """n is off by 1.01 on both sides, consistently: x 1.01 in the oracle's relations (K / 1.01^2), / 1.01 in synthesis."""
    relations, to_dv0 = surface.curvature_relations, synthesis.dv0_from_n_mu

    def scaled(d, v0):
        K, mu, n = relations(d, v0)
        return K / 1.01**2, mu, 1.01 * n

    monkeypatch.setattr(surface, "curvature_relations", scaled)
    monkeypatch.setattr(synthesis, "dv0_from_n_mu", lambda n, mu: to_dv0(np.asarray(n, dtype=float) / 1.01, mu))
    return cfg


def unpinned(monkeypatch, cfg):
    """The asymptotic kind integrates phi from a seed at phi0 = 0.2 instead of pinning it at pi/2.

    The surface is then the curvature-angle one with n = -1/k2, which has
    the prescribed (d, v0) but is no asymptotic surface.
    """
    monkeypatch.setitem(KINDS, SystemKind.ASYMPTOTIC_LINE, dataclasses.replace(KINDS[SystemKind.ASYMPTOTIC_LINE], pin=None))
    return cfg.with_seed(cfg.params.theta0, 0.2)


def missed_until(item: str):
    return pytest.mark.xfail(strict=True, reason=f"missed until ROADMAP item {item}")


#: (mutant, shipped config, failures its verdict must name)
CATALOGUE = [
    pytest.param(torsion, "asymptotic_line", ("d", "v0", "K"), id="torsion-asymptotic_line"),
    pytest.param(torsion, "developable", ("distribution_parameter",), id="torsion-developable"),
    pytest.param(torsion, "geodesic", ("d", "K"), id="torsion-geodesic"),
    pytest.param(torsion, "line_of_curvature", ("n", "K"), id="torsion-line_of_curvature"),
    pytest.param(
        torsion, "general_roundtrip", (), id="torsion-general_roundtrip",
        marks=missed_until("2, a directrix oracle"),
    ),
    pytest.param(
        torsion, "striction_line", (), id="torsion-striction_line", marks=missed_until("2, a directrix oracle")
    ),
    pytest.param(radius, "asymptotic_line", ("d", "v0", "K"), id="radius-asymptotic_line"),
    pytest.param(radius, "line_of_curvature", ("n", "K"), id="radius-line_of_curvature"),
    pytest.param(radius, "geodesic", (), id="radius-geodesic", marks=missed_until("8, a geometric oracle")),
    pytest.param(
        unpinned, "asymptotic_line", (), id="unpinned-asymptotic_line",
        marks=missed_until("4, each special case's property in the verdict"),
    ),
]


@pytest.mark.parametrize("mutant, name, failures", CATALOGUE)
def test_the_verdict_catches_the_mutant(monkeypatch, mutant, name, failures):
    cfg = RunConfig.from_file(CONFIG_DIR / f"{name}.json")
    assert run_config(cfg, write_outputs=False).report.passed
    report = run_config(mutant(monkeypatch, cfg), write_outputs=False).report
    assert report.failures and set(failures) <= set(report.failures)


def test_the_unpinned_mutant_is_no_asymptotic_surface(monkeypatch):
    """The unpinned surface misses the property its xfail waits for: its normal is far from orthogonal to N."""
    cfg = unpinned(monkeypatch, RunConfig.from_file(CONFIG_DIR / "asymptotic_line.json"))
    surf = run_config(cfg, write_outputs=False).surface
    assert surface_defects(surf, "asymptotic_line")["asymptotic_line"] > 0.5


#: eps of the power ladder
LADDER = [1e-7, 3e-7, 1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3]

#: (shipped config, parameter scaled, smallest rejected eps, failures its verdict names)
POWER = [
    ("general_roundtrip", "d", 3e-4, ("d",)),
    ("general_roundtrip", "v0", 3e-4, ("v0",)),
    ("striction_line", "d", 3e-4, ("d",)),
    ("developable", "v0", 3e-4, ("v0",)),
    ("geodesic", "n", 1e-4, ("K",)),
    ("geodesic", "mu", 1e-6, ("v0", "mu")),
    ("line_of_curvature", "n", 1e-4, ("K",)),
    ("asymptotic_line", "mu", 1e-4, ("d", "v0")),
]


@pytest.mark.parametrize("step", [1e-3, 1e-4])
@pytest.mark.parametrize("name, param, eps, failures", POWER, ids=[f"{row[0]}-{row[1]}" for row in POWER])
def test_the_verdict_rejects_a_scaled_parameter_from_its_pinned_rung(name, param, eps, failures, step):
    cfg = RunConfig.from_file(CONFIG_DIR / f"{name}.json").with_overrides(step=step)
    curve = build_directrix(cfg)
    rung = LADDER.index(eps)
    reports = []
    for e in LADDER[rung - 1 : rung + 1]:
        params = dataclasses.replace(cfg.params, **{param: getattr(cfg.params, param) * (1.0 + e)})
        _, surf = synthesize_surface(dataclasses.replace(cfg, params=params), curve)
        reports.append(recompute_report(surf, cfg.params, cfg.system, cfg.tolerances))
    assert reports[0].passed and reports[1].failures == failures
