import numpy as np
import pytest

from gfdmflow import ReservoirModel, kro, krw
from gfdmflow.dual import Dual, clip, seed, value


def fd_derivative(f, x, eps=1e-7):
    return (f(x + eps) - f(x - eps)) / (2 * eps)


class TestArithmetic:
    @pytest.mark.parametrize(
        "expr",
        [
            lambda v: v + 3.0,
            lambda v: 3.0 + v,
            lambda v: v - 1.5,
            lambda v: 2.5 - v,
            lambda v: v * v,
            lambda v: 4.0 * v,
            lambda v: v / 2.0,
            lambda v: 2.0 / (v + 3.0),
            lambda v: -v,
            lambda v: v**3,
            lambda v: (v * v + 1.0) / (v + 4.0),
            lambda v: v / 3.0,
            lambda v: 3.0 / (v + 3.0),
        ],
    )
    def test_against_finite_differences(self, expr):
        xs = np.array([0.3, 1.7, -0.4, 2.9])
        d = expr(seed(xs, 0, 1))
        want = fd_derivative(lambda v: expr(v), xs)
        assert np.allclose(d.tan[:, 0], want, rtol=1e-6, atol=1e-8)
        assert np.array_equal(d.val, expr(xs))

    def test_dual_dual_product_rule(self):
        x = seed(np.array([2.0]), 0, 2)
        y = seed(np.array([5.0]), 1, 2)
        z = x * y + y / x
        assert z.val[0] == pytest.approx(12.5)
        assert z.tan[0, 0] == pytest.approx(5.0 - 5.0 / 4.0)  # d/dx
        assert z.tan[0, 1] == pytest.approx(2.0 + 0.5)  # d/dy

    def test_multiple_seed_directions(self):
        x = seed(np.array([1.0, 2.0]), 0, 3)
        assert x.tan.shape == (2, 3)
        assert np.array_equal(x.tan[:, 0], [1.0, 1.0])
        assert np.all(x.tan[:, 1:] == 0.0)


class TestSelection:
    def test_clip_zeroes_bound_tangent(self):
        x = seed(np.array([-0.5, 0.5, 1.5]), 0, 1)
        z = clip(x, 0.0, 1.0)
        assert np.array_equal(z.val, [0.0, 0.5, 1.0])
        assert np.array_equal(z.tan[:, 0], [0.0, 1.0, 0.0])

    def test_clip_endpoint_keeps_tangent(self):
        x = seed(np.array([0.0, 1.0]), 0, 1)
        z = clip(x, 0.0, 1.0)
        assert np.array_equal(z.tan[:, 0], [1.0, 1.0])

    def test_value_helper(self):
        assert value(3.5) == 3.5
        assert np.array_equal(value(Dual([1.0], [[2.0]])), [1.0])


class TestPhysicsThroughDuals:
    def test_relperm_derivatives(self):
        model = ReservoirModel.uniform(2)
        sw = np.array([0.35, 0.5, 0.65])
        d = krw(seed(sw, 0, 1), model)
        want = fd_derivative(lambda s: krw(s, model), sw)
        assert np.allclose(d.tan[:, 0], want, rtol=1e-6)
        d = kro(seed(sw, 0, 1), model)
        want = fd_derivative(lambda s: kro(s, model), sw)
        assert np.allclose(d.tan[:, 0], want, rtol=1e-6)

    def test_relperm_derivative_zero_when_clamped(self):
        model = ReservoirModel.uniform(2)
        d = krw(seed(np.array([0.1, 0.9]), 0, 1), model)
        assert np.array_equal(d.tan[:, 0], [0.0, 0.0])
