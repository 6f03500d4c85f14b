import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from minkruled import (
    lorentz_cross,
    lorentz_inner,
    lorentz_norm,
    mixed_product,
)

coords = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
vectors = st.tuples(coords, coords, coords).map(lambda t: np.array(t, dtype=float))
E1, E2, E3 = np.eye(3)


class TestInner:
    def test_timelike_basis(self):
        assert lorentz_inner(E1, E1) == -1.0

    def test_orthogonal_basis_pair(self):
        assert lorentz_inner(E2, E3) == 0.0

    def test_hand_evaluation(self):
        # -1*2 + 2*1 + 2*1
        assert lorentz_inner(np.array([1.0, 2.0, 2.0]), np.array([2.0, 1.0, 1.0])) == pytest.approx(2.0)

    @given(vectors, vectors)
    def test_symmetric(self, x, y):
        assert lorentz_inner(x, y) == lorentz_inner(y, x)

    @given(vectors, vectors, vectors, coords, coords)
    def test_bilinear(self, x, y, z, a, b):
        lhs = lorentz_inner(a * x + b * y, z)
        rhs = a * lorentz_inner(x, z) + b * lorentz_inner(y, z)
        assert lhs == pytest.approx(rhs, abs=1e-11)

    def test_broadcasts_over_grids(self):
        xs = np.arange(12.0).reshape(4, 3)
        out = lorentz_inner(xs, xs)
        assert out.shape == (4,)
        assert out[0] == pytest.approx(-0 + 1 + 4)


class TestNorm:
    def test_null_vector(self):
        assert lorentz_norm(np.array([1.0, 1.0, 0.0])) == 0.0

    def test_spacelike(self):
        assert lorentz_norm(np.array([0.0, 3.0, 4.0])) == pytest.approx(5.0)

    def test_timelike(self):
        assert lorentz_norm(np.array([2.0, 1.0, 1.0])) == pytest.approx(math.sqrt(2.0))


class TestCross:
    def test_self_cross_vanishes(self):
        assert np.array_equal(lorentz_cross(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0])), np.zeros(3))

    def test_spacelike_pair(self):
        assert np.allclose(lorentz_cross(E2, E3), E1)

    def test_mixed_pair(self):
        assert np.allclose(lorentz_cross(E1, E2), -E3)

    @given(vectors, vectors)
    def test_antisymmetric_exactly(self, x, y):
        assert np.array_equal(lorentz_cross(x, y), -lorentz_cross(y, x))

    def test_double_orthogonality_randomized(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(-1, 1, size=(1500, 3))
        y = rng.uniform(-1, 1, size=(1500, 3))
        c = lorentz_cross(x, y)
        assert np.max(np.abs(lorentz_inner(c, x))) < 1e-12
        assert np.max(np.abs(lorentz_inner(c, y))) < 1e-12

    def test_mixed_product_is_negative_coordinate_determinant(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x, y, z = rng.uniform(-2, 2, size=(3, 3))
            det = np.linalg.det(np.stack([x, y, z]))
            assert mixed_product(x, y, z) == pytest.approx(-det, abs=1e-12)
