import hypothesis
import numpy as np
import pytest

import minkruled.pipeline
from minkruled import integrate_frenet

hypothesis.settings.register_profile("ci", deadline=None)
hypothesis.settings.load_profile("ci")


@pytest.fixture(autouse=True)
def no_swept_directrix(monkeypatch):
    """Start each test with no directrix kept by an earlier sweep, so counts of builds do not depend on test order."""
    monkeypatch.setattr(minkruled.pipeline, "_swept_directrix", None)


@pytest.fixture(scope="session")
def unit_directrix():
    """k1 = 1, k2 = 0.1 on [0, 0.5] at step 1e-3; shared by round-trip tests."""
    return integrate_frenet(1.0, 0.1, s_range=(0.0, 0.5), step=1e-3)


@pytest.fixture(scope="session")
def flat_directrix():
    """k1 = 1, k2 = 0 on [0, 1]: the closed-form hyperbolic curve."""
    return integrate_frenet(1.0, 0.0, s_range=(0.0, 1.0), step=1e-3)


def random_boosted_frame(rng: np.random.Generator):
    """A random Lorentz-orthonormal frame with the standard orientation.

    Built by boosting/rotating the standard basis, so <T,T> = -1 and
    <T x N, B> = -1 exactly up to roundoff.
    """
    a = rng.uniform(-1.0, 1.0)
    ang = rng.uniform(0.0, 2 * np.pi)
    ca, sa = np.cosh(a), np.sinh(a)
    c, s = np.cos(ang), np.sin(ang)
    # boost in the (x1, x2) plane, then rotate in the (x2, x3) plane
    T = np.array([ca, sa, 0.0])
    N0 = np.array([sa, ca, 0.0])
    B0 = np.array([0.0, 0.0, 1.0])
    N = c * N0 + s * B0
    B = -s * N0 + c * B0
    return T, N, B
