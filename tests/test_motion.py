"""A run under a motion of Minkowski 3-space: the surface moves with it, and nothing it is judged by changes.

The paper's existence theorems give a surface from a prescription and an
initial frame, unique up to a motion of Minkowski 3-space.  So a directrix
seeded with the frame ``(L x0 + c, L T0, L N0, L B0)``, for a proper
orthochronous Lorentz transformation ``L`` and a translation ``c``, must
give the surface ``L r + c`` with rulings ``L q``, the same recomputed
invariants and surface defects, and the same verdict.  A step of synthesis
or of the oracle that uses a Euclidean operation where a Lorentzian one
belongs breaks that.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from minkruled import RunConfig
from minkruled.frenet import default_initial_frame
from minkruled.pipeline import build_directrix, run_seed
from minkruled.synthesis import KINDS
from minkruled.verify import SURFACE_DEFECTS, surface_defects

from conftest import random_boosted_frame

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = sorted(p.name for p in CONFIG_DIR.glob("*.json"))
STEP = 1e-3
ETA = np.diag([-1.0, 1.0, 1.0])

#: Largest change of a surface defect entry (interior and endpoint maxima)
#: under a motion.  Measured over the shipped configs and 12 further random
#: motions at h = 1e-3: ``geodesic`` and ``asymptotic_line`` moved by at most
#: 9.3e-13, ``qprime_norm``, a first difference of rulings whose components
#: grow with the boost, by 1.1e-11, and ``line_of_curvature``, a difference of
#: second derivatives whose roundoff is of order eps |r| / h^2 (ROADMAP item
#: 4), by 1.1e-9, except on ``striction_line``, where the defect is 3.6 and
#: moved by up to 6.7e-8.
DEFECT_BOUND = {"geodesic": 1e-11, "asymptotic_line": 1e-11, "qprime_norm": 2e-11, "line_of_curvature": 1e-7}


def motions(count=2, seed=15):
    """``count`` pairs (L, c): a boost and rotation of ``conftest.random_boosted_frame`` and a translation in [-2, 2]^3."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        L = np.column_stack(random_boosted_frame(rng))  # e1, e2, e3 -> T, N, B
        out.append((L, rng.uniform(-2.0, 2.0, 3)))
    return out


def moved(cfg: RunConfig, L, c) -> RunConfig:
    """``cfg`` with its directrix seeded at the frame moved by ``x -> L x + c``."""
    frame = cfg.directrix.initial_frame
    frame = (default_initial_frame() if frame is None else np.asarray(frame)) @ L.T
    frame[0] += c
    return dataclasses.replace(cfg, directrix=dataclasses.replace(cfg.directrix, initial_frame=frame))


def assert_within(got, want, bound, floor_of=None):
    """``|got - want| <= bound * max(1, |floor_of|)`` at every sample (``floor_of`` defaults to ``want``)."""
    scale = np.maximum(1.0, np.abs(want if floor_of is None else floor_of))
    assert np.all(np.abs(got - want) <= bound * scale), float(np.max(np.abs(got - want) / scale))


@pytest.mark.parametrize("motion", range(2), ids=["motion-0", "motion-1"])
@pytest.mark.parametrize("name", SHIPPED)
def test_run_is_congruent_under_a_lorentz_motion(name, motion):
    L, c = motions()[motion]
    # proper orthochronous: L preserves <,>, keeps the orientation and the time direction
    np.testing.assert_allclose(L.T @ ETA @ L, ETA, atol=1e-14)
    assert np.linalg.det(L) > 0 and L[0, 0] >= 1.0

    cfg = RunConfig.from_file(CONFIG_DIR / name).with_overrides(step=STEP)
    base, other = (run_seed(x, build_directrix(x)) for x in (cfg, moved(cfg, L, c)))
    surf, surf_m = base.surface, other.surface

    r = surf.directrix.k @ L.T + c
    size = np.linalg.norm(r, axis=1)[:, None]
    assert_within(surf_m.directrix.k, r, 1e-13, size)
    assert_within(surf_m.q, surf.q @ L.T, 1e-13, size)

    inv, inv_m = base.report.recomputed, other.report.recomputed
    assert (inv is None) == (inv_m is None)
    if inv is not None:
        # mu and n are functions of d, so where d is prescribed zero they are its roundoff
        blank = ("mu", "n") if "d" in KINDS[cfg.system].vanishing else ()
        for field in ("d", "v0", "K", "mu", "n", "qprime_norm"):
            a, b = getattr(inv_m, field), getattr(inv, field)
            assert np.array_equal(np.isnan(a), np.isnan(b)), field
            if field not in blank:
                assert_within(a[~np.isnan(b)], b[~np.isnan(b)], 1e-10)

    for defect in SURFACE_DEFECTS:
        entries, moved_entries = surface_defects(surf, defect), surface_defects(surf_m, defect)
        assert max(abs(moved_entries[k] - entries[k]) for k in entries) <= DEFECT_BOUND[defect], defect

    assert other.report.verdict == base.report.verdict
    assert other.report.failures == base.report.failures
