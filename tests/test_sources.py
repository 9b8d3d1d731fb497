import numpy as np
import pytest

from omdkit.geometry import NormSpec
from omdkit.losses import Huber, LeastSquares, Logistic, LossModel, Sigmoid
from omdkit.sources import (
    DiscreteFiniteSource,
    GaussianLinearSource,
    Sample,
    VarianceRegime,
    classify_variance,
    draw,
    draw_arrays,
    mean_gradient_norm,
    minimizer,
    orthonormal_atom_source,
    population_gradient,
)


def rng_(seed=0):
    return np.random.Generator(np.random.Philox(key=seed))


def two_atom_source():
    # C_X = I/2, E[XY] = (1/2, 1)
    atoms = [Sample(np.array([1.0, 0.0]), 1.0), Sample(np.array([0.0, 1.0]), 2.0)]
    return DiscreteFiniteSource(atoms, [0.5, 0.5])


# -- construction ------------------------------------------------------------------

def test_probabilities_validated():
    atoms = [Sample(np.array([1.0]), 0.0), Sample(np.array([2.0]), 0.0)]
    with pytest.raises(ValueError):
        DiscreteFiniteSource(atoms, [0.6, 0.6])
    with pytest.raises(ValueError):
        DiscreteFiniteSource(atoms, [1.0, 0.0])
    with pytest.raises(ValueError):
        DiscreteFiniteSource(atoms, [0.5])


def test_radius_is_max_dual_norm():
    src = two_atom_source()
    assert src.radius() == 1.0
    assert src.radius(NormSpec(3.0)) == 1.0


def test_orthonormal_source_validation():
    with pytest.raises(ValueError, match="orthonormal"):
        orthonormal_atom_source(np.array([[1.0, 1.0], [0.0, 1.0]]), [0.25, 0.25], [1.0, 1.0])
    with pytest.raises(ValueError, match="sum"):
        orthonormal_atom_source(np.eye(2), [0.3, 0.3], [1.0, 1.0])


def test_label_noise_preserves_second_moments():
    w_star = np.array([0.8, -0.45, 0.3, 0.25])
    clean = orthonormal_atom_source(np.eye(4), [0.15, 0.15, 0.1, 0.1], w_star)
    noisy = orthonormal_atom_source(np.eye(4), [0.15, 0.15, 0.1, 0.1], w_star, label_noise=1.0)
    np.testing.assert_allclose(clean.covariance(), noisy.covariance(), atol=1e-15)
    np.testing.assert_allclose(clean.mean_xy(), noisy.mean_xy(), atol=1e-15)
    model = LossModel(LeastSquares())
    np.testing.assert_allclose(minimizer(noisy, model), w_star, atol=1e-12)


# -- sampling -----------------------------------------------------------------------

def test_single_atom_source_draws_the_atom():
    atom = Sample(np.array([0.3, -0.7]), 1.5)
    src = DiscreteFiniteSource([atom], [1.0])
    z = draw(src, rng_(5))
    np.testing.assert_array_equal(z.x, atom.x)
    assert z.y == atom.y


def test_draw_deterministic_given_state():
    src = two_atom_source()
    a = draw_arrays(src, rng_(123), 50)
    b = draw_arrays(src, rng_(123), 50)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


def test_three_atom_frequencies_match_multinomial():
    atoms = [
        Sample(np.array([1.0, 0.0]), 0.0),
        Sample(np.array([0.0, 1.0]), 0.0),
        Sample(np.array([1.0, 1.0]), 0.0),
    ]
    probs = np.array([0.5, 0.3, 0.2])
    src = DiscreteFiniteSource(atoms, probs)
    n = 100_000
    X, _ = draw_arrays(src, rng_(17), n)
    counts = np.array([
        ((X == atom.x).all(axis=1)).sum() for atom in atoms
    ], dtype=float)
    freq = counts / n
    se = np.sqrt(probs * (1.0 - probs) / n)
    assert (np.abs(freq - probs) <= 3.0 * se).all()


def test_gaussian_noiseless_labels_are_exact():
    src = GaussianLinearSource(np.array([1.0, -2.0]), noise_sd=0.0, feature_scale=0.5, radius=3.0)
    X, y = draw_arrays(src, rng_(7), 500)
    np.testing.assert_array_equal(y, X @ src.w_true)


def test_gaussian_features_clipped_to_radius():
    src = GaussianLinearSource(np.array([1.0, 0.0, 0.0]), noise_sd=0.1, feature_scale=5.0, radius=1.0)
    X, _ = draw_arrays(src, rng_(8), 2000)
    norms = np.sqrt((X * X).sum(axis=1))
    assert norms.max() <= 1.0 + 1e-12
    assert (norms > 0.999).mean() > 0.9  # clipping actually engaged


def test_gaussian_covariance_closed_form_matches_monte_carlo():
    src = GaussianLinearSource(np.array([0.0, 0.0]), noise_sd=0.0, feature_scale=1.0, radius=1.5)
    n = 200_000
    X, _ = draw_arrays(src, rng_(9), n)
    sq = (X * X).sum(axis=1)
    trace_mc = sq.mean()
    trace_se = sq.std(ddof=1) / np.sqrt(n)
    trace_exact = np.trace(src.covariance())
    assert abs(trace_mc - trace_exact) <= 4.0 * trace_se


# -- population quantities -------------------------------------------------------------

def test_population_gradient_hand_case():
    src = two_atom_source()
    g = population_gradient(src, LossModel(LeastSquares()), np.zeros(2))
    np.testing.assert_allclose(g, [-0.5, -1.0], atol=1e-15)


def test_population_gradient_linear_in_regularizer():
    src = two_atom_source()
    w = np.array([0.3, -0.8])
    g0 = population_gradient(src, LossModel(LeastSquares()), w)
    g1 = population_gradient(src, LossModel(LeastSquares(), lam=0.7), w)
    np.testing.assert_allclose(g1 - g0, 2.0 * 0.7 * w, rtol=1e-15, atol=0.0)


def test_population_gradient_vanishes_at_minimizer():
    src = two_atom_source()
    for model in (LossModel(LeastSquares()), LossModel(Logistic(), lam=0.2)):
        w_star = minimizer(src, model)
        g = population_gradient(src, model, w_star)
        assert np.sqrt(g @ g) <= 1e-8


def test_population_gradient_monte_carlo_agreement():
    src = two_atom_source()
    model = LossModel(LeastSquares(), lam=0.1)
    w = np.array([0.4, -0.2])
    exact = population_gradient(src, model, w)
    n = 100_000
    X, y = draw_arrays(src, rng_(31), n)
    per = (X @ w - y)[:, None] * X + 2.0 * model.lam * w[None, :]
    mc = per.mean(axis=0)
    se = per.std(axis=0, ddof=1) / np.sqrt(n)
    assert (np.abs(mc - exact) <= 4.0 * se).all()


def test_population_gradient_unsupported_combination():
    src = GaussianLinearSource(np.array([1.0]), noise_sd=0.1)
    with pytest.raises(ValueError, match="least-squares"):
        population_gradient(src, LossModel(Logistic(), lam=0.1), np.zeros(1))


def test_minimizer_two_atom_hand_solution():
    w = minimizer(two_atom_source(), LossModel(LeastSquares()))
    np.testing.assert_allclose(w, [1.0, 2.0], atol=1e-12)


def test_minimizer_noiseless_gaussian_recovers_target():
    src = GaussianLinearSource(np.array([1.0, -0.5]), noise_sd=0.0, feature_scale=0.5, radius=2.0)
    w = minimizer(src, LossModel(LeastSquares()))
    np.testing.assert_allclose(w, src.w_true, atol=1e-12)


def test_minimizer_large_regularizer_shrinks_to_zero():
    src = two_atom_source()
    lam = 100.0
    w = minimizer(src, LossModel(LeastSquares(), lam=lam))
    bound = np.sqrt(src.mean_xy() @ src.mean_xy()) / (2.0 * lam)
    assert np.sqrt(w @ w) <= bound + 1e-12


@pytest.mark.parametrize("model", [LossModel(Logistic(), lam=0.1), LossModel(Huber(), lam=0.05)], ids=str)
def test_minimizer_gradient_descent_path(model):
    src = two_atom_source()
    w_star = minimizer(src, model)
    g = population_gradient(src, model, w_star)
    assert np.sqrt(g @ g) <= 1e-8


def test_minimizer_rejects_singular_covariance():
    atoms = [Sample(np.array([1.0, 0.0]), 1.0), Sample(np.array([2.0, 0.0]), 2.0)]
    src = DiscreteFiniteSource(atoms, [0.5, 0.5])
    with pytest.raises(ValueError):
        minimizer(src, LossModel(LeastSquares()))


def test_minimizer_rejects_nonconvex_loss():
    with pytest.raises(ValueError, match="non-convex"):
        minimizer(two_atom_source(), LossModel(Sigmoid(), lam=0.1))


# -- gradient-norm expectations ----------------------------------------------------------

def test_mean_gradient_norm_zero_at_interpolating_minimizer():
    src = orthonormal_atom_source(np.eye(3), [1 / 6] * 3, np.array([1.0, -0.5, 0.25]))
    model = LossModel(LeastSquares())
    w_star = minimizer(src, model)
    assert mean_gradient_norm(src, model, w_star) <= 1e-12


def test_mean_gradient_norm_single_atom_hand_value():
    src = DiscreteFiniteSource([Sample(np.array([1.0, 0.0]), 1.0)], [1.0])
    assert mean_gradient_norm(src, LossModel(LeastSquares()), np.zeros(2)) == pytest.approx(1.0, abs=1e-15)


def test_mean_gradient_norm_positive_at_noisy_minimizer():
    src = orthonormal_atom_source(np.eye(2), [0.25, 0.25], np.array([1.0, -1.0]), label_noise=0.5)
    model = LossModel(LeastSquares())
    w_star = minimizer(src, model)
    assert mean_gradient_norm(src, model, w_star) == pytest.approx(0.5, abs=1e-12)


def test_mean_gradient_norm_rejects_a_gaussian_source():
    src = GaussianLinearSource(np.array([1.0, 0.0]), noise_sd=0.5, feature_scale=0.5, radius=2.0)
    with pytest.raises(TypeError, match="discrete"):
        mean_gradient_norm(src, LossModel(LeastSquares()), src.w_true)


# -- variance classification ---------------------------------------------------------------

def test_classify_noiseless_gaussian_zero_variance():
    src = GaussianLinearSource(np.array([1.0, -0.5]), noise_sd=0.0, feature_scale=0.5, radius=2.0)
    model = LossModel(LeastSquares())
    assert classify_variance(src, model, src.w_true) is VarianceRegime.ZERO


def test_classify_noisy_discrete_positive_variance():
    src = orthonormal_atom_source(np.eye(2), [0.25, 0.25], np.array([1.0, -1.0]), label_noise=0.5)
    model = LossModel(LeastSquares())
    w_star = minimizer(src, model)
    assert classify_variance(src, model, w_star) is VarianceRegime.POSITIVE


def test_classify_regularized_noiseless_positive_variance():
    # the regularizer shifts the minimizer off the interpolant
    src = orthonormal_atom_source(np.eye(2), [0.25, 0.25], np.array([1.0, -1.0]))
    model = LossModel(LeastSquares(), lam=0.25)
    w_star = minimizer(src, model)
    assert classify_variance(src, model, w_star) is VarianceRegime.POSITIVE


def test_classify_rejects_nonoptimal_point():
    src = two_atom_source()
    with pytest.raises(ValueError, match="optimality"):
        classify_variance(src, LossModel(LeastSquares()), np.zeros(2))


def test_classification_invariant_under_atom_permutation():
    w_star_cfg = np.array([1.0, -1.0])
    base = orthonormal_atom_source(np.eye(2), [0.25, 0.25], w_star_cfg, label_noise=0.5)
    order = [3, 0, 7, 5, 2, 6, 1, 4]
    permuted = DiscreteFiniteSource(
        [Sample(base.X[i], float(base.y[i])) for i in order], base.probs[order]
    )
    model = LossModel(LeastSquares())
    w_star = minimizer(base, model)
    assert classify_variance(base, model, w_star) == classify_variance(permuted, model, w_star)


# -- chi-square tails against scipy ----------------------------------------------------

def test_chi2_tails_match_scipy():
    special = pytest.importorskip("scipy.special")
    from omdkit.sources import _chi2_tails

    xs = np.concatenate([[0.0, 1e-300, 1e-100, 1e-20, 1e-8], np.geomspace(1e-3, 1e3, 121)])
    for k in range(1, 14):
        tails = np.array([_chi2_tails(k, float(x)) for x in xs])
        # Both sides are good to ~1e-13 here: scipy's tail at x = 1e-100 goes
        # through logarithms, erfc(sqrt(x/2)) at x ~ 1e3 through a rounded sqrt.
        np.testing.assert_allclose(tails[:, 0], special.chdtr(k, xs), rtol=2e-13, atol=0.0)
        np.testing.assert_allclose(tails[:, 1], special.chdtrc(k, xs), rtol=2e-13, atol=0.0)
        assert tails[0].tolist() == [0.0, 1.0]


@pytest.mark.parametrize("k, x", [(1500, 1400.0), (1601, 1500.0), (1600, 1700.0), (3000, 3000.0)])
def test_chi2_tails_match_scipy_past_the_exp_underflow(k, x):
    # From h = x/2 = 700 on, e^{-h} nears underflow and t_a comes from logarithms,
    # good to about h + (k/2) log(h) ulps.
    special = pytest.importorskip("scipy.special")
    from omdkit.sources import _chi2_tails

    p, q = _chi2_tails(k, x)
    assert p == pytest.approx(float(special.chdtr(k, x)), rel=1e-11)
    assert q == pytest.approx(float(special.chdtrc(k, x)), rel=1e-11)


@pytest.mark.parametrize("d", [1, 2, 3, 7, 12])
@pytest.mark.parametrize("radius", [0.1, 1.0, 2.0, 10.0])
def test_gaussian_covariance_matches_scipy_formula(d, radius):
    special = pytest.importorskip("scipy.special")
    src = GaussianLinearSource(np.ones(d), noise_sd=0.1, feature_scale=0.8, radius=radius)
    rho2 = (radius / 0.8) ** 2
    second = d * special.chdtr(d + 2, rho2) + rho2 * special.chdtrc(d, rho2)
    np.testing.assert_allclose(src.covariance(), 0.8 ** 2 * second / d * np.eye(d), rtol=1e-13, atol=0.0)
