import math

import numpy as np
import pytest

from omdkit.geometry import NormSpec, dual_exponent, p_norm
from omdkit.mirror_maps import (
    EuclideanMap,
    PNormMap,
    SmoothedL1Map,
    b_p_constant,
    norm_power_conjugate,
    omega_p,
    pnorm_gradient,
    tau,
)

ALL_MAPS = [
    EuclideanMap(),
    PNormMap(1.2),
    PNormMap(1.5),
    PNormMap(2.0),
    SmoothedL1Map(0.5, 1.0),
    SmoothedL1Map(0.1, 2.0),
]


# -- potential values ---------------------------------------------------------

def test_euclidean_value():
    assert EuclideanMap().value([3.0, 4.0]) == 12.5


def test_pnorm_value_direct_formula():
    # 0.5 * (2^(2/3))^2 = 2^(1/3)
    assert PNormMap(1.5).value([1.0, 1.0]) == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-15)


def test_smoothed_l1_value_quadratic_branch():
    # lam * xi^2/(2 eps) + xi^2/2 at xi = 0.25, eps = 0.5, lam = 1
    assert SmoothedL1Map(0.5, 1.0).value([0.25]) == pytest.approx(0.0625 + 0.03125, abs=1e-16)


def test_smoothed_l1_value_linear_branch():
    # lam * (|xi| - eps/2) + xi^2/2 at xi = 2
    assert SmoothedL1Map(0.5, 1.0).value([2.0]) == pytest.approx((2.0 - 0.25) + 2.0, abs=1e-15)


# -- gradients ------------------------------------------------------------------

def test_pnorm_gradient_single_coordinate_reduces_to_identity():
    np.testing.assert_allclose(PNormMap(1.5).grad([4.0, 0.0]), [4.0, 0.0], atol=1e-14)


def test_pnorm_gradient_symmetric_point():
    expected = 2.0 ** (1.0 / 3.0)
    np.testing.assert_allclose(PNormMap(1.5).grad([1.0, 1.0]), [expected, expected], rtol=1e-15)


def test_pnorm_gradient_at_origin_is_zero():
    np.testing.assert_array_equal(PNormMap(1.3).grad([0.0, 0.0, 0.0]), [0.0, 0.0, 0.0])


def test_smoothed_l1_gradient_linear_branch():
    np.testing.assert_allclose(SmoothedL1Map(0.5, 1.0).grad([2.0]), [3.0], atol=1e-15)


def test_smoothed_l1_gradient_quadratic_branch():
    # lam * xi/eps + xi at xi = 0.25
    np.testing.assert_allclose(SmoothedL1Map(0.5, 1.0).grad([0.25]), [0.75], atol=1e-15)


def test_euclidean_gradient_is_identity():
    w = np.array([1.0, -2.0, 3.0])
    np.testing.assert_array_equal(EuclideanMap().grad(w), w)
    np.testing.assert_array_equal(EuclideanMap().grad_inv(w), w)


# -- inverse gradients ------------------------------------------------------------

def test_smoothed_l1_inverse_round_trip_point():
    m = SmoothedL1Map(0.5, 1.0)
    np.testing.assert_allclose(m.grad_inv([3.0]), [2.0], atol=1e-15)
    np.testing.assert_allclose(m.grad(m.grad_inv([3.0])), [3.0], atol=1e-15)


def test_smoothed_l1_inverse_continuous_at_threshold():
    m = SmoothedL1Map(0.5, 1.0)
    thr = 1.5  # lam + eps
    below = m.grad_inv([thr - 1e-12])
    above = m.grad_inv([thr + 1e-12])
    assert abs(below[0] - above[0]) < 1e-10


@pytest.mark.parametrize("mirror", ALL_MAPS, ids=repr)
def test_gradient_round_trip_random(mirror):
    rng = np.random.default_rng(42)
    for _ in range(1000):
        w = rng.standard_normal(5) * rng.choice([0.05, 1.0, 20.0])
        back = mirror.grad_inv(mirror.grad(w))
        np.testing.assert_allclose(back, w, atol=1e-10)


def test_pnorm_inverse_uses_dual_exponent():
    m = PNormMap(1.5)
    v = m.grad(np.array([1.0, 1.0]))
    np.testing.assert_allclose(m.grad_inv(v), [1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(m.grad_inv(v), pnorm_gradient(v, 3.0), atol=1e-15)


@pytest.mark.parametrize("p", [1.2, 1.5, 1.9])
def test_gradient_norm_identity(p):
    rng = np.random.default_rng(11)
    q = dual_exponent(p)
    for _ in range(1000):
        w = rng.standard_normal(6) * rng.choice([0.1, 1.0, 10.0])
        assert abs(p_norm(pnorm_gradient(w, p), q) - p_norm(w, p)) < 1e-10


# -- Bregman distances ---------------------------------------------------------------

def test_bregman_euclidean_is_half_squared_distance():
    assert EuclideanMap().bregman([1.0, 0.0], [0.0, 0.0]) == 0.5


def test_bregman_euclidean_keeps_its_digits_next_to_the_target():
    # At offsets of 1e-9 the terms of value(t) - value(b) - <t - b, b> are ~0.5
    # and cancel to ~1e-17, far above the ~1e-18 distance, and can go negative.
    target = np.array([0.8, -0.45, 0.3, 0.25])
    W = target + 1e-9 * np.random.default_rng(3).standard_normal((200, 4))
    diff = target - W
    exact = 0.5 * (diff * diff).sum(axis=1)
    stacked = EuclideanMap().bregman(target, W)
    np.testing.assert_allclose(stacked, exact, rtol=1e-15, atol=0.0)
    assert [EuclideanMap().bregman(target, w) for w in W] == pytest.approx(exact, rel=1e-15, abs=0.0)
    assert (stacked > 0.0).all()


def test_bregman_pnorm_at_two_is_the_euclidean_distance_and_never_negative():
    # The p = 2 potential is (1/2) ||.||_2^2; next to the target the generic
    # difference of its terms cancels and can go negative.
    target = np.array([0.8, -0.45, 0.3, 0.25])
    W = target + 1e-9 * np.random.default_rng(3).standard_normal((200, 4))
    stacked = PNormMap(2.0).bregman(target, W)
    np.testing.assert_array_equal(stacked, EuclideanMap().bregman(target, W))
    assert [PNormMap(2.0).bregman(target, w) for w in W] == [EuclideanMap().bregman(target, w) for w in W]
    assert (stacked > 0.0).all()


@pytest.mark.parametrize("mirror", ALL_MAPS, ids=repr)
def test_bregman_to_self_is_zero(mirror):
    w = np.array([0.7, -1.3, 0.4])
    assert mirror.bregman(w, w) == pytest.approx(0.0, abs=1e-15)


def test_bregman_pnorm_hand_value():
    # psi(1,0) - psi(0,1) - <(1,-1), grad(0,1)> = 0.5 - 0.5 + 1 = 1
    assert PNormMap(1.5).bregman([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0, abs=1e-15)


def test_bregman_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        EuclideanMap().bregman([1.0], [1.0, 2.0])


@pytest.mark.parametrize("mirror", ALL_MAPS, ids=repr)
def test_strong_convexity_lower_bound(mirror):
    rng = np.random.default_rng(3)
    sigma = mirror.strong_convexity()
    for _ in range(400):
        w = rng.standard_normal(4) * rng.choice([0.3, 1.0, 3.0])
        v = rng.standard_normal(4) * rng.choice([0.3, 1.0, 3.0])
        gap = mirror.bregman(w, v) - 0.5 * sigma * p_norm(w - v, mirror.norm.p) ** 2
        assert gap >= -1e-10


@pytest.mark.parametrize("mirror", [EuclideanMap(), PNormMap(2.0), SmoothedL1Map(0.5, 1.0)], ids=repr)
def test_strong_smoothness_upper_bound(mirror):
    rng = np.random.default_rng(4)
    L = mirror.smoothness()
    for _ in range(400):
        w = rng.standard_normal(4) * rng.choice([0.3, 1.0, 3.0])
        v = rng.standard_normal(4) * rng.choice([0.3, 1.0, 3.0])
        gap = 0.5 * L * p_norm(w - v, mirror.norm.p) ** 2 - mirror.bregman(w, v)
        assert gap >= -1e-10


@pytest.mark.parametrize("mirror", ALL_MAPS, ids=repr)
def test_bregman_sum_identity(mirror):
    rng = np.random.default_rng(5)
    for _ in range(300):
        w = rng.standard_normal(4) * 2.0
        v = rng.standard_normal(4) * 2.0
        lhs = mirror.bregman(w, v) + mirror.bregman(v, w)
        rhs = float((w - v) @ (mirror.grad(w) - mirror.grad(v)))
        assert abs(lhs - rhs) < 1e-10


# -- stacked forms -----------------------------------------------------------------

@pytest.mark.parametrize("mirror", ALL_MAPS, ids=repr)
def test_row_forms_match_scalar_forms(mirror):
    rng = np.random.default_rng(23)
    W = rng.standard_normal((7, 3)) * np.array([[1e-3], [0.1], [1.0], [3.0], [10.0], [1.0], [1.0]])
    W[5] = 0.0  # a zero row maps to 0 under both gradients
    target = rng.standard_normal(3)
    for form in [mirror.value, mirror.grad, mirror.grad_inv, lambda A: mirror.bregman(target, A)]:
        expected = np.array([form(w) for w in W])
        np.testing.assert_allclose(form(W), expected, rtol=1e-12, atol=0.0)
    np.testing.assert_array_equal(mirror.grad(W)[5], np.zeros(3))
    np.testing.assert_array_equal(mirror.grad_inv(W)[5], np.zeros(3))


def test_bregman_rows_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        EuclideanMap().bregman(np.zeros(3), np.zeros((2, 4)))


# -- moduli ----------------------------------------------------------------------

def test_strong_convexity_moduli():
    assert PNormMap(1.5).strong_convexity() == 0.5
    assert EuclideanMap().strong_convexity() == 1.0
    assert SmoothedL1Map(0.5, 1.0).strong_convexity() == 1.0


def test_smoothness_moduli():
    assert EuclideanMap().smoothness() == 1.0
    assert SmoothedL1Map(0.5, 1.0).smoothness() == 3.0
    assert PNormMap(1.5).smoothness() is None
    assert PNormMap(2.0).smoothness() == 1.0


def test_smoothed_l1_gradient_lipschitz_matches_modulus():
    # finite-difference slope of the gradient never exceeds 1 + lam/eps
    m = SmoothedL1Map(0.5, 1.0)
    L = m.smoothness()
    grid = np.linspace(-2.0, 2.0, 4001)
    g = np.array([m.grad(np.array([t]))[0] for t in grid])
    slopes = np.diff(g) / np.diff(grid)
    assert slopes.max() <= L + 1e-9
    assert slopes.max() >= L - 1e-3  # the modulus is attained on the quadratic branch


def test_map_parameter_validation():
    with pytest.raises(ValueError):
        PNormMap(2.5)
    with pytest.raises(ValueError):
        PNormMap(1.0)
    with pytest.raises(ValueError):
        SmoothedL1Map(0.0, 1.0)
    with pytest.raises(ValueError):
        SmoothedL1Map(0.5, -1.0)


# -- control function -----------------------------------------------------------

def test_tau_values():
    assert tau(2.0) == 2.0
    assert tau(1.5) == pytest.approx(4.0 / 3.0, abs=1e-15)
    assert tau(4.0 / 3.0) == pytest.approx(1.5, abs=1e-15)


def test_omega_huber_branches():
    assert omega_p(2.0, 0.5) == 0.125
    assert omega_p(2.0, 2.0) == 1.5


@pytest.mark.parametrize("p", [4.0 / 3.0, 1.5, 2.0])
def test_omega_zero(p):
    assert omega_p(p, 0.0) == 0.0


@pytest.mark.parametrize("p", [4.0 / 3.0, 1.5, 2.0])
def test_omega_continuous_at_one(p):
    t = tau(p)
    assert abs(omega_p(p, 1.0) - 1.0 / t) < 1e-15
    assert abs(omega_p(p, 1.0 - 1e-12) - omega_p(p, 1.0 + 1e-12)) < 1e-11


def test_omega_rejects_bad_arguments():
    with pytest.raises(ValueError):
        omega_p(2.0, -0.1)
    with pytest.raises(ValueError):
        omega_p(2.5, 0.5)
    with pytest.raises(ValueError):
        omega_p(1.0, 0.5)


def test_omega_convex_nondecreasing_positive():
    for p in (4.0 / 3.0, 1.5, 2.0):
        u = np.array([i / 100.0 for i in range(301)])
        vals = np.array([omega_p(p, x) for x in u])
        assert (vals[1:] > 0.0).all()
        assert (np.diff(vals) >= -1e-15).all()
        assert (np.diff(vals, 2) >= -1e-12).all()


# -- displayed constants ----------------------------------------------------------

def test_b_p_constant_at_zero_norm():
    # C = (0 + 0 + 2)^-1 = 1/2, so the minimum is the tau power
    for p in (1.2, 1.5, 1.9):
        assert b_p_constant(p, 0.0) == pytest.approx(0.5 ** tau(p), abs=1e-15)


def test_b_p_constant_formula_evaluation():
    # independent evaluation at p = 1.5, r = 1: C = (2 * 2^0.5 + 2 + 2)^-1, tau = 4/3
    c = 1.0 / (2.0 * math.sqrt(2.0) + 2.0 + 2.0)
    expected = c ** (4.0 / 3.0)
    assert b_p_constant(1.5, 1.0) == pytest.approx(expected, rel=1e-14)
    assert b_p_constant(1.5, 1.0) == pytest.approx(0.07719202396437126, rel=1e-12)


def test_b_p_constant_monotone_in_target_norm():
    for p in (1.2, 1.5, 1.9):
        values = [b_p_constant(p, r) for r in (0.0, 0.5, 1.0, 2.0, 10.0)]
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_b_p_constant_rejects_bad_arguments():
    with pytest.raises(ValueError):
        b_p_constant(2.0, 1.0)
    with pytest.raises(ValueError):
        b_p_constant(1.5, -1.0)


# -- Fenchel conjugates of norm powers ------------------------------------------------

def test_norm_power_conjugate_euclidean_square():
    assert norm_power_conjugate(2.0, [3.0, 4.0], NormSpec(2.0)) == 12.5


def test_norm_power_conjugate_zero_vector():
    assert norm_power_conjugate(2.0, [0.0, 0.0]) == 0.0


def test_norm_power_conjugate_fractional_power():
    # ((1.5-1)/1.5) * 1^3 = 1/3
    assert norm_power_conjugate(1.5, [1.0, 0.0], NormSpec(2.0)) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_norm_power_conjugate_matches_grid_maximization():
    # coarse independent maximization of <w, v> - (1/kappa)||w||^kappa
    kappa, v = 1.5, np.array([1.0, 0.0])
    best = -np.inf
    for theta in np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False):
        u = np.array([np.cos(theta), np.sin(theta)])
        for r in np.linspace(0.0, 3.0, 3001):
            val = r * float(u @ v) - (r ** kappa) / kappa
            best = max(best, val)
    formula = norm_power_conjugate(kappa, v, NormSpec(2.0))
    assert best <= formula + 1e-12
    assert formula - best < 1e-4 * formula


def test_norm_power_conjugate_rejects_kappa_at_most_one():
    with pytest.raises(ValueError):
        norm_power_conjugate(1.0, [1.0])


def test_pnorm_upper_bound_random_sweep():
    rng = np.random.default_rng(6)
    from omdkit.mirror_maps import pnorm_bregman

    for p in (1.2, 1.5, 1.9):
        for _ in range(2000):
            wt = rng.standard_normal(5) * rng.choice([0.3, 1.0, 3.0])
            w = wt + rng.standard_normal(5) * rng.choice([0.05, 0.5, 4.0])
            diff = p_norm(wt - w, p)
            nt = p_norm(wt, p)
            coef = (2.0 * nt) ** (2.0 - p) + nt ** (p - 1.0) + 1.0
            rhs = coef * (diff ** 2 + diff ** min(p, 3.0 - p))
            assert pnorm_bregman(wt, w, p) <= rhs + 1e-12


def test_pnorm_lower_control_random_sweep():
    rng = np.random.default_rng(9)
    from omdkit.mirror_maps import pnorm_bregman

    for p in (1.2, 1.5, 1.9):
        for _ in range(2000):
            wt = rng.standard_normal(5) * rng.choice([0.3, 1.0, 3.0])
            w = wt + rng.standard_normal(5) * rng.choice([0.05, 0.5, 4.0])
            d_val = pnorm_bregman(wt, w, p)
            bound = b_p_constant(p, p_norm(wt, p)) * omega_p(p, max(d_val, 0.0))
            assert p_norm(wt - w, p) ** 2 >= bound - 1e-12
