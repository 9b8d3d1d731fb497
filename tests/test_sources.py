import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omdkit.diagnostics import kaczmarz_moments, key_identity_residual
from omdkit.engine import ConstantStep
from omdkit.geometry import NormSpec
from omdkit.losses import Huber, LeastSquares, Logistic, LossModel, Sigmoid, SquaredHinge
from omdkit.mirror_maps import EuclideanMap
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
    with pytest.raises(ValueError, match="label_noise must be nonnegative"):
        orthonormal_atom_source(np.eye(2), [0.25, 0.25], [1.0, 1.0], label_noise=-1.0)


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


def crafted_source(n_atoms, seed, on_edges, tiny):
    """A one-dimensional source of n_atoms atoms whose cumulative probabilities
    come from a seeded generator: with ``on_edges``, each lies on a multiple of
    1/1024, a bucket edge of every table, or one ulp below or above one; with
    ``tiny``, every fourth atom has a probability of 1e-9 to 1e-6."""
    rng = np.random.default_rng(seed)
    cum = rng.random(n_atoms - 1)
    if on_edges:
        edges = rng.integers(1, 1024, n_atoms - 1) / 1024
        cum = np.choose(np.arange(n_atoms - 1) % 3,
                        [edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
    if tiny:
        cum[3::4] = cum[2::4][:cum[3::4].size] + 10.0 ** rng.uniform(-9.0, -6.0, cum[3::4].size)
    cum = np.unique(np.append(cum[(cum > 0.0) & (cum < 1.0)], 1.0))
    atoms = [Sample(np.array([float(i)]), float(i)) for i in range(cum.size)]
    return DiscreteFiniteSource(atoms, np.diff(cum, prepend=0.0))


@settings(max_examples=60, deadline=None)
@given(n_atoms=st.integers(1, 700), seed=st.integers(0, 2**32 - 1), on_edges=st.booleans(),
       tiny=st.booleans())
@example(n_atoms=256, seed=0, on_edges=True, tiny=False)  # the largest table of 1,024 buckets
@example(n_atoms=257, seed=1, on_edges=True, tiny=True)  # the smallest of 2,048
@example(n_atoms=1, seed=2, on_edges=False, tiny=False)
def test_bucket_table_index_is_the_searchsorted_index(n_atoms, seed, on_edges, tiny):
    src = crafted_source(n_atoms, seed, on_edges, tiny)
    K = len(src._buckets)
    assert K >= 1024 and K & (K - 1) == 0 and K >= 4 * src.n_atoms
    if tiny and n_atoms > 4:
        assert src.probs.min() < 1e-6
    if on_edges and n_atoms > 12:
        # Boundaries on a bucket edge and one ulp to either side of one.
        scaled = src._cum[:-1] * 1024
        on = scaled == np.round(scaled)
        assert on.any()
        assert (np.nextafter(src._cum[:-1], 0.0) * 1024 == np.round(scaled))[~on].any()
        assert (np.nextafter(src._cum[:-1], 1.0) * 1024 == np.round(scaled))[~on].any()
    edges = np.arange(K) / K
    cum = src._cum[:-1]
    u = np.concatenate([
        np.random.default_rng(seed).random(4096),
        [0.0, np.nextafter(1.0, 0.0)],
        edges, np.nextafter(edges[1:], 0.0),  # each bucket's first uniform and the one below it
        cum, np.nextafter(cum, 0.0), np.nextafter(cum, 1.0),
    ])
    want = np.searchsorted(src._cum, u, side="right")
    np.testing.assert_array_equal(src._atom_index(u), want)
    # A stream looks up a transposed (steps, runs) view.
    u2 = u[: u.size // 4 * 4].reshape(4, -1)
    np.testing.assert_array_equal(src._atom_index(u2.T), want[: u2.size].reshape(4, -1).T)


def test_cumulative_probabilities_past_one_draw_as_before():
    # Probabilities may sum to 1 + 1e-12, so a cumulative sum can pass 1 before its
    # last entry.  A uniform below 1 compares with such an entry as with 1 itself,
    # so clipping it at 1 moves no draw, and keeps the bucket table exact.
    probs = np.array([0.5, 0.5 + 1e-13, 1e-14])
    src = DiscreteFiniteSource([Sample(np.array([float(i)]), 0.0) for i in range(3)], probs)
    raw = np.cumsum(probs)
    raw[-1] = 1.0
    assert raw[1] > 1.0 and (np.diff(src._cum) >= 0.0).all()
    u = np.concatenate([rng_(3).random(1000), [0.0, 0.5, np.nextafter(0.5, 0.0), np.nextafter(1.0, 0.0)]])
    np.testing.assert_array_equal(src._atom_index(u), np.searchsorted(raw, u, side="right"))


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


@pytest.mark.parametrize("kind", ["discrete", "gaussian"])
def test_least_squares_population_gradient_is_the_moment_formula(kind):
    if kind == "discrete":
        src = two_atom_source()
    else:
        src = GaussianLinearSource(np.array([1.0, -0.5]), noise_sd=0.3, feature_scale=0.5, radius=2.0)
    model = LossModel(LeastSquares(), lam=0.3)
    w = np.array([0.4, -0.2])
    g = population_gradient(src, model, w)
    np.testing.assert_array_equal(g, src.covariance() @ w - src.mean_xy() + 0.6 * w)
    # The moments agree with the mean of the per-sample gradients.
    per = model.gradient(w, *draw_arrays(src, rng_(32), 100_000))
    se = per.std(axis=0, ddof=1) / np.sqrt(len(per))
    assert (np.abs(per.mean(axis=0) - g) <= 4.0 * se).all()


@pytest.mark.parametrize("loss", [Logistic(), Huber(), SquaredHinge(), Sigmoid()], ids=repr)
def test_population_gradient_of_other_losses_weights_the_loss_gradient(loss):
    src = orthonormal_atom_source(np.eye(3), [1 / 6] * 3, np.array([0.5, -0.3, 0.2]), label_noise=0.4)
    model = LossModel(loss, lam=0.05)
    w = np.array([0.1, 0.7, -0.4])
    np.testing.assert_array_equal(population_gradient(src, model, w),
                                  src.probs @ model.gradient(w, src.X, src.y))


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
    with pytest.raises(ValueError, match="discrete"):
        mean_gradient_norm(src, LossModel(LeastSquares()), src.w_true)


@pytest.mark.parametrize(
    "quantity",
    [
        lambda src, model: population_gradient(src, model, np.zeros(2)),
        lambda src, model: minimizer(src, model),
        lambda src, model: mean_gradient_norm(src, model, np.zeros(2)),
        lambda src, model: key_identity_residual(EuclideanMap(), model, src, np.zeros(2), 0.1, np.zeros(2)),
        lambda src, model: kaczmarz_moments(src, model, ConstantStep(0.1), np.zeros(2), np.zeros(2), 4, [1, 4]),
    ],
    ids=["population_gradient", "minimizer", "mean_gradient_norm", "key_identity_residual", "kaczmarz_moments"],
)
def test_exact_quantities_beyond_the_moments_refuse_a_gaussian_source(quantity):
    # Under a loss other than least squares every exact quantity is a sum over atoms.
    src = GaussianLinearSource(np.array([1.0, 0.0]), noise_sd=0.5, feature_scale=0.5, radius=2.0)
    with pytest.raises(ValueError, match="discrete"):
        quantity(src, LossModel(Logistic(), lam=0.1))


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
