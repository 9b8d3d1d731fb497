import decimal
import math

import numpy as np
import pytest

from omdkit.diagnostics import duality_residual
from omdkit.geometry import dual_exponent, row_inner, unchecked_p_norm
from omdkit.mirror_maps import (
    EuclideanMap,
    PNormMap,
    SmoothedL1Map,
    b_p_constant,
    norm_power_conjugate,
    omega_p,
    pnorm_bregman,
    pnorm_gradient,
    tau,
)
from omdkit.verification import _maps

# The maps that omdkit verify sweeps.
ALL_MAPS = _maps()


@pytest.mark.parametrize("mirror", ALL_MAPS, ids=repr)
def test_grad_inv_out_form_is_the_allocating_form_bit_for_bit(mirror):
    # Rows at three scales, with a zero row, a row of signed zeros and a -0.0 entry.
    rng = np.random.default_rng(41)
    V = rng.standard_normal((9, 4)) * rng.choice([1e-3, 1.0, 30.0], size=(9, 1))
    V[0] = 0.0
    V[1] = [-0.0, 0.0, -0.0, 0.0]
    V[2, 1] = -0.0
    for v in [V, *V[:3]]:  # the stack, and its first three rows as points
        before = v.copy()
        expected = mirror.grad_inv(v)
        got = mirror.grad_inv(v, out=np.full_like(v, np.nan))
        assert got.tobytes() == expected.tobytes()
        assert v.tobytes() == before.tobytes()


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
    np.testing.assert_allclose(PNormMap(1.5).grad([4.0, 0.0]), [4.0, 0.0], atol=1e-14, rtol=0)


def test_pnorm_gradient_symmetric_point():
    expected = 2.0 ** (1.0 / 3.0)
    np.testing.assert_allclose(PNormMap(1.5).grad([1.0, 1.0]), [expected, expected], rtol=1e-15)


def test_pnorm_gradient_at_origin_is_zero():
    np.testing.assert_array_equal(PNormMap(1.3).grad([0.0, 0.0, 0.0]), [0.0, 0.0, 0.0])


def kernel_rows(d, scale, seed):
    """Random rows of dimension d at the given scale, then rows of signed
    zeros and rows holding an inf or a nan."""
    rng = np.random.default_rng(seed)
    rows = [rng.standard_normal((12, d)) * scale, np.zeros((1, d)), np.full((1, d), -0.0)]
    for special in (0.0, -0.0, np.inf, -np.inf, np.nan):
        row = rng.standard_normal(d) * scale
        row[rng.integers(d)] = special
        rows.append(row[None])
    return np.concatenate(rows)


@pytest.mark.parametrize("p", [1.2, 1.5, 5.0 / 3.0, 1.9, 2.0, 3.0, 6.0])
def test_pnorm_kernels_equal_the_numpy_forms_bit_for_bit(p):
    # unchecked_p_norm against np.linalg.norm, pnorm_gradient against the
    # out-of-place form: the row sums of |w| |w|^(p-1), numpy's last-axis sum,
    # to the power (2 - p)/p, times |w|^(p-1), with w's sign copied on, on
    # each row as a point and on the stack.  At p = 2 that form is w, bit for
    # bit, and the gradient returns its argument.
    for d in (1, 2, 3, 4, 5, 6, 7, 8, 11):
        for k, scale in enumerate((1e-300, 1e-150, 1e-3, 1.0, 1e3, 1e150)):
            W = kernel_rows(d, scale, seed=1000 * d + k)
            with np.errstate(all="ignore"):
                for w, axis in [(W, -1), *((row, None) for row in W)]:
                    n = np.linalg.norm(w, ord=p, axis=axis)
                    assert unchecked_p_norm(w, p).tobytes() == n.tobytes()
                    power = np.abs(w) ** (p - 1.0)
                    s = np.add.reduce(np.abs(w) * power, axis=-1)
                    scale_ref = (s + (s == 0.0)) ** ((2.0 - p) / p)
                    grad_ref = np.copysign(power * scale_ref[..., None], w)
                    if p == 2.0:
                        assert grad_ref.tobytes() == w.tobytes()
                    assert pnorm_gradient(w, p).tobytes() == grad_ref.tobytes()


def decimal_pnorm_gradient(w, q):
    """The p-norm gradient of the row w to 40 digits, with its row sum, from
    decimal arithmetic on the exact values of w and q."""
    with decimal.localcontext(decimal.Context(prec=40)):
        dq = decimal.Decimal(q)
        a = [abs(decimal.Decimal(x)) for x in w]
        powers = [x ** (dq - 1) if x else x for x in a]
        total = sum(x * g for x, g in zip(a, powers))
        scale = total ** ((2 - dq) / dq) if total else decimal.Decimal(1)
        return [(scale * g).copy_sign(decimal.Decimal(x)) for x, g in zip(w, powers)], total


@pytest.mark.parametrize("q", [1.2, 1.5, 5.0 / 3.0, 1.9, 3.0, 6.0])
def test_pnorm_gradient_is_within_its_rounding_model_of_a_decimal_oracle(q):
    # Stacks of 1 to 8 entries per row, half the rows at one scale each and
    # half with a scale per entry, from 1e-3 to 1e3, with about one entry in
    # eight zero; each stack is taken whole and row by row as points.
    #
    # With u = 2^-53 and each power good to 1 ulp (2u), |w_j|^(q-1) is off by
    # 2u, each |w_j| |w_j|^(q-1) by 3u, and the row sum s by (d + 2)u.  Its
    # power s^e, e = (2 - q)/q, is off by |e|(d + 2)u from s, |e ln s| u from
    # the rounding of e, and 2u of its own; the product with |w_j|^(q-1) and
    # its rounding add 3u.  A relative error r is at most r/u ulps.
    #
    # Against the former formula, (sum_j |w_j|^q)^(1/q) from a second array
    # power and then its (2 - q)-th power, over samples of 200,000 rows: the
    # kernel's largest error is 0.2 to 0.6 ulp larger at q = 1.2 and 5/3,
    # within 0.3 ulp either way at q = 1.5, and 0.3 to 3 ulps smaller at
    # q = 1.9, 3 and 6.  The largest error over a few hundred rows moves by
    # about an ulp from draw to draw, so no test orders the two forms.
    rng = np.random.default_rng(int(100 * q))
    e = (2.0 - q) / q
    for d in range(1, 9):
        W = rng.standard_normal((40, d))
        W[:20] *= 10.0 ** rng.uniform(-3.0, 3.0, (20, 1))
        W[20:] *= 10.0 ** rng.uniform(-3.0, 3.0, (20, d))
        W[rng.random(W.shape) < 0.125] = 0.0
        forms = [pnorm_gradient(W, q), [pnorm_gradient(w, q) for w in W]]
        for i, w in enumerate(W):
            exact, total = decimal_pnorm_gradient(w, q)
            bound = 5.0 + abs(e) * (d + 2 + (abs(math.log(total)) if total else 0.0))
            for j, want in enumerate(exact):
                ulp = decimal.Decimal(np.spacing(abs(float(want))))
                for G in forms:
                    got = G[i][j]
                    if want:
                        assert float(abs(decimal.Decimal(got) - want) / ulp) <= bound, (w, got, want, bound)
                    else:
                        assert got == 0.0


@pytest.mark.parametrize("mirror", [SmoothedL1Map(0.5, 1.0), SmoothedL1Map(0.1, 2.0)], ids=repr)
def test_smoothed_l1_value_equals_the_numpy_form_bit_for_bit(mirror):
    # The Huber sum against numpy's last-axis sum, on the stack and on each row
    # as a point: entries inside the quadratic zone, on its edge, beyond it,
    # and zero rows.
    eps = mirror.epsilon
    for d in (1, 2, 3, 4, 5, 6, 7, 8, 11):
        rng = np.random.default_rng(d)
        W = np.concatenate([
            rng.uniform(-eps, eps, (8, d)),
            rng.choice([-eps, eps], (4, d)),
            rng.standard_normal((8, d)) * 10.0 ** rng.integers(-3, 4, (8, 1)),
            np.zeros((1, d)),
            np.full((1, d), -0.0),
        ])
        for w in (W, *W):
            a = np.abs(w)
            hub = np.where(a <= eps, w * w / (2.0 * eps), a - 0.5 * eps)
            ref = mirror.lam * hub.sum(axis=-1) + 0.5 * row_inner(w, w)
            assert np.asarray(mirror.value(w)).tobytes() == np.asarray(ref).tobytes()


def test_smoothed_l1_gradient_linear_branch():
    np.testing.assert_allclose(SmoothedL1Map(0.5, 1.0).grad([2.0]), [3.0], atol=1e-15, rtol=0)


def test_smoothed_l1_gradient_quadratic_branch():
    # lam * xi/eps + xi at xi = 0.25
    np.testing.assert_allclose(SmoothedL1Map(0.5, 1.0).grad([0.25]), [0.75], atol=1e-15, rtol=0)


def test_euclidean_gradient_is_identity():
    w = np.array([1.0, -2.0, 3.0])
    np.testing.assert_array_equal(EuclideanMap().grad(w), w)
    np.testing.assert_array_equal(EuclideanMap().grad_inv(w), w)


# -- inverse gradients ------------------------------------------------------------

def test_smoothed_l1_inverse_round_trip_point():
    m = SmoothedL1Map(0.5, 1.0)
    np.testing.assert_allclose(m.grad_inv([3.0]), [2.0], atol=1e-15, rtol=0)
    np.testing.assert_allclose(m.grad(m.grad_inv([3.0])), [3.0], atol=1e-15, rtol=0)


def test_smoothed_l1_inverse_continuous_at_threshold():
    m = SmoothedL1Map(0.5, 1.0)
    thr = 1.5  # lam + eps
    below = m.grad_inv([thr - 1e-12])
    above = m.grad_inv([thr + 1e-12])
    assert abs(below[0] - above[0]) < 1e-10


def test_pnorm_inverse_uses_dual_exponent():
    m = PNormMap(1.5)
    v = m.grad(np.array([1.0, 1.0]))
    np.testing.assert_allclose(m.grad_inv(v), [1.0, 1.0], atol=1e-12, rtol=0)
    np.testing.assert_allclose(m.grad_inv(v), pnorm_gradient(v, 3.0), atol=1e-15, rtol=0)


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


def test_pnorm_bregman_at_two_is_the_half_squared_distance_bit_for_bit():
    # Rows a 1e-9 offset apart at scales up to 100: the generic difference of
    # the potential's terms would cancel there, and the duality residual, two
    # such differences, would not vanish.
    rng = np.random.default_rng(21)
    T = rng.standard_normal((300, 5)) * rng.choice([0.01, 1.0, 100.0], size=(300, 1))
    B = T + 1e-9 * rng.standard_normal((300, 5))
    assert pnorm_bregman(T, B, 2.0).tobytes() == (0.5 * row_inner(T - B, T - B)).tobytes()
    assert (duality_residual(2.0, T, B) == 0.0).all()
    # Far-apart pairs at scale 10 too: their exact 0 fails a pnorm_gradient
    # scaled by 1 + 2.3e-16, one ulp, which the rows above pass; the
    # bregman_duality row, in units of rounding, needs 1 + 3.22e-15.
    pairs = np.random.default_rng(4).uniform(-10, 10, size=(200, 2, 5))
    assert (duality_residual(2.0, pairs[:, 0], pairs[:, 1]) == 0.0).all()


def test_euclidean_map_is_the_pnorm_map_at_two():
    m = EuclideanMap()
    assert isinstance(m, PNormMap)
    assert repr(m) == "EuclideanMap()"
    # Every map carries its norm's exponent and the dual one; the maps whose
    # norm is the 2-norm carry 2.0 for both.
    for mirror in ALL_MAPS:
        assert type(mirror.p) is float and mirror.dual_p == dual_exponent(mirror.p)
        if type(mirror) is not PNormMap:
            assert mirror.p == mirror.dual_p == 2.0


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
    assert PNormMap(1.5).strong_convexity == 0.5
    assert EuclideanMap().strong_convexity == 1.0
    assert SmoothedL1Map(0.5, 1.0).strong_convexity == 1.0


def test_smoothness_moduli():
    assert EuclideanMap().smoothness == 1.0
    assert SmoothedL1Map(0.5, 1.0).smoothness == 3.0
    assert PNormMap(1.5).smoothness is None
    assert PNormMap(2.0).smoothness == 1.0


def test_smoothed_l1_gradient_lipschitz_matches_modulus():
    # finite-difference slope of the gradient never exceeds 1 + lam/eps
    m = SmoothedL1Map(0.5, 1.0)
    L = m.smoothness
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


def test_omega_positive_and_increasing():
    # Convexity and continuity at u = 1 are the omega_continuity_convexity row's.
    u = np.arange(301) / 100.0
    for p in (4.0 / 3.0, 1.5, 2.0):
        vals = omega_p(p, u)
        assert vals[0] == 0.0 and (np.diff(vals) > 0.0).all()


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
    assert norm_power_conjugate(2.0, [3.0, 4.0], 2.0) == 12.5


def test_norm_power_conjugate_zero_vector():
    assert norm_power_conjugate(2.0, [0.0, 0.0]) == 0.0


def test_norm_power_conjugate_fractional_power():
    # ((1.5-1)/1.5) * 1^3 = 1/3
    assert norm_power_conjugate(1.5, [1.0, 0.0], 2.0) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_norm_power_conjugate_matches_grid_maximization():
    # coarse independent maximization of <w, v> - (1/kappa)||w||^kappa
    kappa, v = 1.5, np.array([1.0, 0.0])
    theta = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
    U = np.column_stack([np.cos(theta), np.sin(theta)])
    r = np.linspace(0.0, 3.0, 3001)
    best = float((r * (U @ v)[:, None] - r ** kappa / kappa).max())
    formula = norm_power_conjugate(kappa, v, 2.0)
    assert best <= formula + 1e-12
    assert formula - best < 1e-4 * formula


def test_norm_power_conjugate_rejects_kappa_at_most_one():
    with pytest.raises(ValueError):
        norm_power_conjugate(1.0, [1.0])
