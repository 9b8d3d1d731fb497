import math
import warnings

import numpy as np
import pytest

from omdkit.losses import Huber, LeastSquares, Logistic, LossModel, Sigmoid, SquaredHinge

ALL_LOSSES = [LeastSquares(), Logistic(), Sigmoid(), SquaredHinge(), Huber()]
CONVEX_LOSSES = [l for l in ALL_LOSSES if l.convex]


# -- values -------------------------------------------------------------------

def test_least_squares_value():
    assert LeastSquares().value(3.0, 1.0) == 2.0


def test_squared_hinge_satisfied_margin():
    assert SquaredHinge().value(2.0, 1.0) == 0.0


def test_huber_linear_branch_value():
    # |3 - 0| >= 1 so the value is u - 1/2
    assert Huber().value(3.0, 0.0) == 2.5


def test_huber_quadratic_branch_value():
    assert Huber().value(0.5, 0.0) == 0.125


def test_logistic_value_at_zero():
    assert Logistic().value(0.0, 1.0) == pytest.approx(math.log(2.0), abs=1e-15)


def test_sigmoid_value_at_zero():
    assert Sigmoid().value(0.0, 1.0) == 0.5


def test_sigmoid_flagged_nonconvex():
    assert not Sigmoid().convex
    assert all(l.convex for l in CONVEX_LOSSES)


# -- derivatives ----------------------------------------------------------------

def test_least_squares_derivative():
    assert LeastSquares().derivative(3.0, 1.0) == 2.0


def test_logistic_derivative_at_zero():
    # -y / (1 + exp(a y)) at a = 0 is -1/2
    assert Logistic().derivative(0.0, 1.0) == pytest.approx(-0.5, abs=1e-15)


def test_huber_derivative_branches():
    assert Huber().derivative(0.5, 0.0) == 0.5
    assert Huber().derivative(3.0, 0.0) == 1.0
    assert Huber().derivative(-3.0, 0.0) == -1.0


# The loss_gradient_fd row catches a phi or phi' scaled by 1 + delta before these
# 500 pairs do for every loss but the sigmoid: from delta = 4.10e-6 against 4.08e-6.
@pytest.mark.parametrize("loss", [Sigmoid()], ids=repr)
def test_derivative_matches_central_difference(loss):
    rng = np.random.default_rng(21)
    h = 1e-6
    checked = 0
    while checked < 500:
        a = float(rng.uniform(-4.0, 4.0))
        y = float(rng.uniform(-1.0, 1.0))
        if abs(abs(a - y) - 1.0) < 1e-3 or abs(a * y - 1.0) < 1e-3:
            continue  # derivative kinks of huber / squared hinge
        checked += 1
        fd = (float(loss.value(a + h, y)) - float(loss.value(a - h, y))) / (2.0 * h)
        assert abs(fd - float(loss.derivative(a, y))) < 1e-6


# -- Lipschitz constants ------------------------------------------------------------

def test_declared_lipschitz_constants():
    assert LeastSquares().lipschitz == 1.0
    assert Logistic().lipschitz == 0.25
    assert SquaredHinge().lipschitz == 2.0
    assert Huber().lipschitz == 1.0
    assert Sigmoid().lipschitz == pytest.approx(math.sqrt(3.0) / 18.0, abs=1e-15)


@pytest.mark.parametrize(
    "loss", [LeastSquares(), Logistic(), SquaredHinge(), Huber(), Sigmoid()], ids=repr
)
def test_lipschitz_constant_is_nearly_attained(loss):
    # the declared constant should not be loose by more than ~0.1%
    grid = np.linspace(-8.0, 8.0, 40001)
    der = np.asarray(loss.derivative(grid, 1.0))
    quotients = np.abs(np.diff(der)) / np.diff(grid)
    assert quotients.max() >= loss.lipschitz * 0.999


@pytest.mark.parametrize("loss", CONVEX_LOSSES, ids=repr)
def test_midpoint_convexity(loss):
    rng = np.random.default_rng(12)
    for _ in range(2000):
        a, b = rng.uniform(-5.0, 5.0, size=2)
        y = float(rng.uniform(-1.0, 1.0))
        mid = float(loss.value(0.5 * (a + b), y))
        assert mid <= 0.5 * (float(loss.value(a, y)) + float(loss.value(b, y))) + 1e-12


# -- regularized model -----------------------------------------------------------------

def test_sample_gradient_hand_cases():
    model = LossModel(LeastSquares())
    np.testing.assert_allclose(
        model.gradient(np.zeros(2), np.array([1.0, 0.0]), 1.0), [-1.0, 0.0], atol=1e-15, rtol=0
    )
    # zero feature vector kills the data term
    np.testing.assert_array_equal(
        model.gradient(np.array([1.0, 2.0]), np.zeros(2), 1.0), [0.0, 0.0]
    )


def test_sample_gradient_with_regularizer():
    model = LossModel(LeastSquares(), lam=1.0)
    g = model.gradient(np.array([1.0, 0.0]), np.array([1.0, 0.0]), 1.0)
    np.testing.assert_allclose(g, [2.0, 0.0], atol=1e-15, rtol=0)


def test_sample_gradient_dimension_mismatch():
    with pytest.raises(ValueError):
        LossModel(LeastSquares()).gradient(np.zeros(2), np.zeros(3), 1.0)


@pytest.mark.parametrize("loss", ALL_LOSSES, ids=repr)
def test_row_gradients_match_per_sample_gradient(loss):
    rng = np.random.default_rng(29)
    model = LossModel(loss, lam=0.2)
    W = rng.standard_normal((6, 3))
    X = rng.standard_normal((6, 3))
    y = rng.uniform(-1.0, 1.0, 6)
    expected = np.array([model.gradient(w, x, float(yi)) for w, x, yi in zip(W, X, y)])
    np.testing.assert_allclose(model.gradient(W, X, y), expected, rtol=1e-12, atol=0.0)
    # one vector shared by every row
    shared = np.array([model.gradient(W[0], x, float(yi)) for x, yi in zip(X, y)])
    np.testing.assert_allclose(model.gradient(W[0], X, y), shared, rtol=1e-12, atol=0.0)
    with pytest.raises(ValueError):
        model.gradient(W[:, :2], X, y)


@pytest.mark.parametrize("lam", [0.0, 0.3])
@pytest.mark.parametrize("loss", ALL_LOSSES, ids=repr)
def test_gradient_out_form_is_the_allocating_form_bit_for_bit(loss, lam):
    model = LossModel(loss, lam=lam)
    rng = np.random.default_rng(43)
    W, X = rng.standard_normal((2, 8, 3))
    y = rng.uniform(-1.0, 1.0, 8)
    W[0], X[1] = 0.0, 0.0  # a zero iterate and a zero sample
    W[2, 1], X[2, 0], W[3] = -0.0, -0.0, -0.0
    for args in [(W, X, y), (W[0], X, y), (W[3], X[3], float(y[3]))]:
        expected = model.gradient(*args)
        out = np.full_like(expected, np.nan)
        got = model.gradient(*args, out=out)
        assert got is out
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("loss", ALL_LOSSES, ids=repr)
def test_row_values_match_per_sample_value(loss):
    # f_value broadcasts as gradient does, and each row is the point's value bit for bit.
    rng = np.random.default_rng(31)
    model = LossModel(loss, lam=0.2)
    W, X = rng.standard_normal((2, 6, 3))
    y = rng.uniform(-1.0, 1.0, 6)
    expected = [loss.value(float(w @ x), yi) + 0.2 * float(w @ w) for w, x, yi in zip(W, X, y)]
    np.testing.assert_array_equal(model.f_value(W, X, y), expected)
    np.testing.assert_array_equal(model.f_value(W[0], X, y), [model.f_value(W[0], x, yi) for x, yi in zip(X, y)])


def test_gradient_matches_finite_difference_of_f_value():
    rng = np.random.default_rng(13)
    model = LossModel(Logistic(), lam=0.3)
    x = rng.standard_normal(3)
    y = 1.0
    w = rng.standard_normal(3)
    g = model.gradient(w, x, y)
    h = 1e-6
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        fd = (model.f_value(w + e, x, y) - model.f_value(w - e, x, y)) / (2.0 * h)
        assert abs(fd - g[j]) < 1e-6


def test_smoothness_bound_formulas():
    # R^2 + 2 lam for least squares, 2 (l_phi R^2 + lam) for every other loss
    assert LossModel(LeastSquares()).smoothness_bound(1.0) == 1.0
    assert LossModel(LeastSquares()).smoothness_bound(0.0) == 0.0
    assert LossModel(SquaredHinge(), lam=0.5).smoothness_bound(2.0) == 17.0
    assert LossModel(LeastSquares(), lam=0.25).smoothness_bound(1.0) == 1.5
    assert LossModel(Huber()).smoothness_bound(2.0) == 8.0


def test_smoothness_bound_rejects_negative_radius():
    with pytest.raises(ValueError):
        LossModel(LeastSquares()).smoothness_bound(-1.0)


def test_negative_regularizer_rejected():
    with pytest.raises(ValueError):
        LossModel(LeastSquares(), lam=-0.1)


def test_expit_matches_scipy_to_two_ulps_without_warnings():
    special = pytest.importorskip("scipy.special")
    from omdkit.losses import _expit

    m = np.geomspace(1e-3, 800.0, 2001)
    x = np.concatenate([m, -m])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stacked = _expit(x)
        points = np.array([_expit(float(v)) for v in x])
    # The formula is scipy's; numpy's exp may differ from libm's by one ulp,
    # which the reciprocal turns into at most two.
    np.testing.assert_array_max_ulp(stacked, special.expit(x), maxulp=2)
    np.testing.assert_array_max_ulp(points, special.expit(x), maxulp=2)
    assert _expit(-800.0) == 0.0 and _expit(800.0) == 1.0
