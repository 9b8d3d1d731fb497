import concurrent.futures
import math
import multiprocessing
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omdkit import engine, sources
from omdkit.config import build_experiment, parse_config
from omdkit.diagnostics import assert_step_regime, kaczmarz_moments
from omdkit.engine import (
    AllRunsDiverged,
    ConstantStep,
    NonFiniteCurve,
    PolynomialDecay,
    RegimeError,
    StepSchedule,
    TheoremRate,
    geometric_checkpoints,
    kaczmarz_step,
    monte_carlo_curve,
    omd_step,
    resolve_constants,
    run_trajectory,
)
from omdkit.losses import Huber, LeastSquares, Logistic, LossModel, Sigmoid, SquaredHinge
from omdkit.mirror_maps import EuclideanMap, PNormMap, SmoothedL1Map
from omdkit.sources import (
    DiscreteFiniteSource,
    GaussianLinearSource,
    Sample,
    VarianceRegime,
    _rng,
    draw_arrays,
    minimizer,
    orthonormal_atom_source,
)


def eight_atom_source(label_noise=0.0):
    w_star = np.array([0.8, -0.45, 0.3, 0.25])
    return orthonormal_atom_source(np.eye(4), [0.15, 0.15, 0.1, 0.1], w_star, label_noise=label_noise)


LS = LossModel(LeastSquares())


# -- schedules -----------------------------------------------------------------

def test_step_size_values():
    assert TheoremRate(2.0)(1) == 1.0
    assert ConstantStep(0.1)(10 ** 6) == 0.1
    assert PolynomialDecay(1.0, 1.0)(4) == 0.25


def test_step_size_rejects_t_zero():
    for schedule in (ConstantStep(0.1), PolynomialDecay(1.0, 1.0), TheoremRate(1.0)):
        with pytest.raises(ValueError):
            schedule(0)


def test_schedule_predicates():
    c = ConstantStep(0.1)
    assert (c.limit_zero, c.sum_infinite, c.sum_squares_finite) == (False, True, False)
    slow = PolynomialDecay(1.0, 0.4)
    assert (slow.limit_zero, slow.sum_infinite, slow.sum_squares_finite) == (True, True, False)
    harmonic = PolynomialDecay(1.0, 1.0)
    assert (harmonic.limit_zero, harmonic.sum_infinite, harmonic.sum_squares_finite) == (True, True, True)
    fast = PolynomialDecay(1.0, 2.0)
    assert (fast.limit_zero, fast.sum_infinite, fast.sum_squares_finite) == (True, False, True)
    half = PolynomialDecay(1.0, 0.5)  # the boundary of sum eta_t^2 < inf: sum 1/t diverges
    assert (half.limit_zero, half.sum_infinite, half.sum_squares_finite) == (True, True, False)
    thm = TheoremRate(0.4)
    assert (thm.limit_zero, thm.sum_infinite, thm.sum_squares_finite) == (True, True, True)
    assert thm(1) == 5.0


def test_constant_step_is_the_polynomial_decay_at_theta_zero():
    for eta in (0.1, 0.37, 2.0 / 3.0, 5.0):
        c, poly = ConstantStep(eta), PolynomialDecay(eta, 0.0)
        assert c == poly
        assert [c(t).hex() for t in range(1, 4097)] == [poly(t).hex() for t in range(1, 4097)]
        assert c(1) == poly(1) == eta
        assert (c.limit_zero, c.sum_infinite, c.sum_squares_finite) == (
            poly.limit_zero, poly.sum_infinite, poly.sum_squares_finite)
    # The theorem rate is the member 4 ((t + 1) sigma_f)^(-1): libm's pow(x, -1)
    # may round differently from 1/x, by at most one ulp.
    for sigma_f in (0.2, 0.4, 1.0):
        thm = TheoremRate(sigma_f)
        for t in range(1, 8193):
            exact = 4.0 / ((t + 1) * sigma_f)
            assert abs(thm(t) - exact) <= math.ulp(exact)


def test_schedule_parameter_validation():
    with pytest.raises(ValueError, match="step size must be positive"):
        ConstantStep(0.0)
    with pytest.raises(ValueError):
        PolynomialDecay(-1.0, 1.0)
    with pytest.raises(ValueError):
        TheoremRate(0.0)
    # Non-finite parameters: a NaN exponent, an infinite step, a never-moving run.
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="step size must be positive"):
            ConstantStep(bad)
        with pytest.raises(ValueError, match="decay coefficient must be positive"):
            PolynomialDecay(bad, 1.0)
        with pytest.raises(ValueError, match="decay exponent must be nonnegative"):
            PolynomialDecay(1.0, bad)
        with pytest.raises(ValueError, match="sigma_f must be positive"):
            TheoremRate(bad)
    # Finite parameters whose first, largest step overflows, in the power or in the product.
    for params in [(4.0, 1.0, 1.0, 1e-320), (1e300, 2.0, 0.0, 1e-200), (1e308, 1.0, 0.0, 0.1)]:
        with pytest.raises(ValueError, match="the first step overflows"):
            StepSchedule(*params)
    # Finite parameters whose first step is 0.0: scale * (1 + shift) overflows to inf,
    # or c / (scale * (1 + shift)) underflows.
    for params in [(4.0, 1.0, 1.0, 1e308), (1e-300, 1.0, 0.0, 1e300)]:
        with pytest.raises(ValueError, match="the first step overflows or is not positive"):
            StepSchedule(*params)
    with pytest.raises(ValueError, match="not positive"):
        TheoremRate(1e308)


def test_a_step_that_underflows_to_zero_is_refused():
    # Finite parameters: the first step is 0.1, and 0.1 * t^-2000 is 0.0 from t = 2.
    schedule = PolynomialDecay(0.1, 2000.0)
    assert (schedule(1), schedule(2)) == (0.1, 0.0)
    src = eight_atom_source()
    with pytest.raises(ValueError, match="step size must be positive"):
        run_trajectory(EuclideanMap(), LS, src, schedule, np.zeros(4), 4, [1, 4], 0, minimizer(src, LS))


# -- single steps ------------------------------------------------------------------

def test_omd_step_euclidean_matches_residual_update():
    w = omd_step(EuclideanMap(), LS, np.zeros(2), np.array([1.0, 0.0]), 1.0, 1.0)
    np.testing.assert_allclose(w, [1.0, 0.0], atol=1e-15)


def test_omd_step_fixed_point_at_zero_gradient():
    # at the interpolating point the sampled gradient vanishes for every atom
    src = eight_atom_source()
    w_star = minimizer(src, LS)
    for x, y in zip(src.X, src.y):
        w = omd_step(PNormMap(1.5), LS, w_star, x, float(y), 0.3)
        np.testing.assert_allclose(w, w_star, atol=1e-12)


def test_omd_step_pnorm_single_coordinate_reduction():
    # dual point after the step is (1, 0); the dual-exponent gradient maps it back unchanged
    w = omd_step(PNormMap(1.5), LS, np.zeros(2), np.array([1.0, 0.0]), 1.0, 1.0)
    np.testing.assert_allclose(w, [1.0, 0.0], atol=1e-15)


def test_omd_step_rejects_nonpositive_eta():
    with pytest.raises(ValueError):
        omd_step(EuclideanMap(), LS, np.zeros(2), np.array([1.0, 0.0]), 1.0, 0.0)


def test_kaczmarz_equivalence_random_sweep():
    rng = np.random.default_rng(2)
    mirror = EuclideanMap()
    for _ in range(2000):
        w = rng.standard_normal(4)
        x = rng.standard_normal(4)
        y = float(rng.standard_normal())
        eta = float(rng.uniform(0.01, 1.5))
        np.testing.assert_allclose(
            omd_step(mirror, LS, w, x, y, eta), kaczmarz_step(w, x, y, eta), atol=1e-15
        )


# -- checkpoints ----------------------------------------------------------------------

def test_geometric_checkpoints():
    assert geometric_checkpoints(100) == [1, 2, 4, 8, 16, 32, 64, 100]
    assert geometric_checkpoints(8) == [1, 2, 4, 8]
    assert geometric_checkpoints(1) == [1]


# -- trajectories ------------------------------------------------------------------------

def test_trajectory_horizon_one_records_initial_distance():
    src = eight_atom_source()
    w_star = minimizer(src, LS)
    mirror = EuclideanMap()
    w1 = np.zeros(4)
    traj = run_trajectory(mirror, LS, src, ConstantStep(0.1), w1, 1, [1], seed=0, w_star=w_star)
    assert traj.bregman_to_optimum[0] == mirror.bregman(w_star, w1)
    assert not traj.diverged


def test_trajectory_stationary_at_optimum():
    src = eight_atom_source()
    w_star = minimizer(src, LS)
    traj = run_trajectory(
        EuclideanMap(), LS, src, ConstantStep(0.1), w_star, 64, [1, 8, 64], seed=3, w_star=w_star
    )
    assert (np.abs(traj.bregman_to_optimum) <= 1e-12).all()


def test_trajectory_deterministic_given_seed():
    src = eight_atom_source(label_noise=0.5)
    w_star = minimizer(src, LS)
    args = (EuclideanMap(), LS, src, PolynomialDecay(0.5, 1.0), np.zeros(4), 128,
            geometric_checkpoints(128))
    a = run_trajectory(*args, seed=11, w_star=w_star)
    b = run_trajectory(*args, seed=11, w_star=w_star)
    np.testing.assert_array_equal(a.bregman_to_optimum, b.bregman_to_optimum)
    np.testing.assert_array_equal(a.iterate_norm, b.iterate_norm)
    np.testing.assert_array_equal(a.final_iterate, b.final_iterate)
    c = run_trajectory(*args, seed=12, w_star=w_star)
    assert (a.bregman_to_optimum != c.bregman_to_optimum).any()


def test_trajectory_divergence_flagged_not_raised():
    src = eight_atom_source(label_noise=0.5)
    w_star = minimizer(src, LS)
    traj = run_trajectory(
        EuclideanMap(), LS, src, ConstantStep(1e6), np.zeros(4), 64,
        geometric_checkpoints(64), seed=5, w_star=w_star,
    )
    assert traj.diverged
    assert traj.diverged_at is not None
    assert np.isfinite(traj.bregman_to_optimum).all()


def test_trajectory_checkpoint_validation():
    src = eight_atom_source()
    w_star = minimizer(src, LS)
    with pytest.raises(ValueError):
        run_trajectory(EuclideanMap(), LS, src, ConstantStep(0.1), np.zeros(4), 8,
                       [1, 1, 2], seed=0, w_star=w_star)
    with pytest.raises(ValueError):
        run_trajectory(EuclideanMap(), LS, src, ConstantStep(0.1), np.zeros(4), 8,
                       [0, 4], seed=0, w_star=w_star)
    with pytest.raises(ValueError):
        run_trajectory(EuclideanMap(), LS, src, ConstantStep(0.1), np.zeros(4), 8,
                       [1, 16], seed=0, w_star=w_star)


# -- Monte Carlo curves --------------------------------------------------------------------

def test_degenerate_source_zero_standard_error():
    atom = Sample(np.array([1.0, 0.0]), 1.0)
    src = DiscreteFiniteSource([atom], [1.0])
    w_star = np.array([1.0, 0.0])
    mc = monte_carlo_curve(
        EuclideanMap(), LS, src, ConstantStep(0.5), np.zeros(2), 16,
        geometric_checkpoints(16), n_runs=2, base_seed=0, w_star=w_star, workers=1,
    )
    np.testing.assert_array_equal(mc.curve.std_err, np.zeros_like(mc.curve.std_err))


def test_first_checkpoint_mean_equals_initial_distance():
    src = eight_atom_source(label_noise=0.5)
    w_star = minimizer(src, LS)
    mirror = EuclideanMap()
    w1 = np.zeros(4)
    mc = monte_carlo_curve(
        mirror, LS, src, ConstantStep(0.1), w1, 32, geometric_checkpoints(32),
        n_runs=4, base_seed=9, w_star=w_star, workers=1,
    )
    assert mc.curve.mean[0] == mirror.bregman(w_star, w1)
    assert mc.curve.std_err[0] == 0.0


@pytest.mark.parametrize("kind", ["discrete", "gaussian"])
def test_a_checkpoint_every_run_shares_reads_its_value_with_no_error(kind):
    # Every run starts at w1, so at t = 1 every run has the same distance, which
    # the curve reads exactly, with a standard error of 0: not a mean of equal
    # values a few ulps off with ~1e-16 of rounding as its standard error.
    if kind == "discrete":
        src, mirror, n_runs = eight_atom_source(label_noise=1.0), EuclideanMap(), 200
    else:
        src = GaussianLinearSource(np.array([1.0, -0.5, 0.25]), noise_sd=0.3, radius=2.0)
        mirror, n_runs = PNormMap(1.5), 100
    w_star = minimizer(src, LS)
    mc = monte_carlo_curve(mirror, LS, src, PolynomialDecay(1.0, 1.0), np.zeros(src.d), 4, [1, 2, 4],
                           n_runs=n_runs, base_seed=0, w_star=w_star, workers=1)
    assert (mc.values[:, 0] == mc.values[0, 0]).all()
    assert mc.curve.mean[0] == mc.values[0, 0]
    assert mc.curve.std_err[0] == 0.0
    # Checkpoints whose runs differ keep the sample mean and standard error.
    np.testing.assert_array_equal(mc.curve.mean[1:], mc.values[:, 1:].mean(axis=0))
    assert (mc.curve.std_err[1:] > 0.0).all()


def cap_block_runs(monkeypatch, T, source, runs):
    """Set the budget so that a block holds ``runs`` runs of what the source's stream holds."""
    monkeypatch.setattr(engine, "BLOCK_BYTES", runs * source._stream_bytes(T - 1))
    assert engine._block_runs(T, source) == runs


def three_run_blocks(monkeypatch, T, source):
    cap_block_runs(monkeypatch, T, source, 3)


BLOCK_MAPS = [EuclideanMap(), PNormMap(1.5), SmoothedL1Map(0.5, 1.0)]


def test_block_sizes_are_even_within_the_cap(monkeypatch):
    # A Gaussian block is counted one chunk of 64 steps, d features and a label per
    # run and step: at d = 3 the 5 MiB cap is 2,560 runs, so 100 runs make one
    # block and 5,000 two.
    gauss = GaussianLinearSource(np.array([1.0, -0.5, 0.25]), noise_sd=0.3)
    assert gauss._stream_bytes(2047) == 8 * 4 * 64
    assert engine._block_runs(2048, gauss) == 2560
    assert engine._block_sizes(100, 2048, gauss) == [100]
    assert engine._block_sizes(5000, 2048, gauss) == [2500, 2500]
    # A discrete block holds 256 steps of uniforms, and 16 steps of atom indices
    # and of two gathers of d features and a label per run: 3,456 B at d = 4, so
    # the cap is 1,517 runs and 2,000 runs make two blocks.
    src = eight_atom_source()
    assert src._stream_bytes(2047) == 8 * (256 + 16 + 2 * 5 * 16)
    assert engine._block_runs(2048, src) == 1517
    assert engine._block_sizes(2000, 2048, src) == [1000, 1000]
    # Short horizons hold only their steps.
    assert src._stream_bytes(10) == 8 * (10 + 11 * 10)
    three_run_blocks(monkeypatch, 32, src)
    assert engine._block_sizes(8, 32, src) == [3, 3, 2]
    assert engine._block_sizes(9, 32, src) == [3, 3, 3]


@pytest.mark.parametrize("mirror", BLOCK_MAPS, ids=repr)
def test_extending_runs_reproduces_prefix(mirror, monkeypatch):
    src = eight_atom_source(label_noise=0.5)
    three_run_blocks(monkeypatch, 64, src)  # blocks of 3, 3, 2, 2 at 10 runs; of 3 and 2 at 20
    w_star = minimizer(src, LS)
    common = (mirror, LS, src, PolynomialDecay(0.5, 1.0), np.zeros(4), 64,
              geometric_checkpoints(64))
    small = monte_carlo_curve(*common, n_runs=10, base_seed=100, w_star=w_star, workers=1)
    big = monte_carlo_curve(*common, n_runs=20, base_seed=100, w_star=w_star, workers=1)
    np.testing.assert_array_equal(big.values[:10], small.values)


@pytest.mark.parametrize("mirror", BLOCK_MAPS, ids=repr)
def test_worker_pool_matches_serial(mirror, monkeypatch):
    src = eight_atom_source(label_noise=0.5)
    three_run_blocks(monkeypatch, 32, src)  # 8 runs make blocks of 3, 3 and 2
    w_star = minimizer(src, LS)
    common = (mirror, LS, src, PolynomialDecay(0.5, 1.0), np.zeros(4), 32,
              geometric_checkpoints(32))
    serial = monte_carlo_curve(*common, n_runs=8, base_seed=50, w_star=w_star, workers=1)
    pooled = monte_carlo_curve(*common, n_runs=8, base_seed=50, w_star=w_star, workers=2)
    np.testing.assert_array_equal(serial.values, pooled.values)
    np.testing.assert_array_equal(serial.curve.mean, pooled.curve.mean)


class _RaisingMap(EuclideanMap):
    """A map whose inverse gradient raises inside the process that steps the block."""

    def grad_inv(self, V):
        raise RuntimeError("grad_inv failed")


def test_worker_error_reaches_caller_and_pool_closes(monkeypatch):
    src = eight_atom_source()
    w_star = minimizer(src, LS)
    three_run_blocks(monkeypatch, 16, src)  # 4 runs make two blocks, so the pool starts
    with pytest.raises(RuntimeError, match="grad_inv failed"):
        monte_carlo_curve(_RaisingMap(), LS, src, ConstantStep(0.1), np.zeros(4), 16,
                          [1, 16], n_runs=4, base_seed=0, w_star=w_star, workers=2)
    assert multiprocessing.active_children() == []


def test_single_block_starts_no_process(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a run of one block started a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    src = eight_atom_source(label_noise=0.5)
    w_star = minimizer(src, LS)
    common = (EuclideanMap(), LS, src, PolynomialDecay(0.5, 1.0), np.zeros(4), 64,
              geometric_checkpoints(64))
    assert engine._block_sizes(200, 64, src) == [200]
    two_workers = monte_carlo_curve(*common, n_runs=200, base_seed=3, w_star=w_star, workers=2)
    one_worker = monte_carlo_curve(*common, n_runs=200, base_seed=3, w_star=w_star, workers=1)
    np.testing.assert_array_equal(two_workers.values, one_worker.values)
    assert multiprocessing.active_children() == []


def test_gaussian_blocks_share_out_over_the_pool(monkeypatch):
    started = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    T = 32
    src = GaussianLinearSource(np.array([0.8, -0.4, 0.2]), noise_sd=0.3, feature_scale=0.5, radius=1.5)
    three_run_blocks(monkeypatch, T, src)
    assert engine._block_sizes(8, T, src) == [3, 3, 2]
    common = (PNormMap(1.5), LS, src, PolynomialDecay(0.5, 1.0), np.zeros(3), T,
              geometric_checkpoints(T))
    serial = monte_carlo_curve(*common, n_runs=8, base_seed=50, w_star=REFERENCE_POINT[3], workers=1)
    pooled = monte_carlo_curve(*common, n_runs=8, base_seed=50, w_star=REFERENCE_POINT[3], workers=2)
    assert started == [2]
    np.testing.assert_array_equal(serial.values, pooled.values)


def layout_source(kind, d):
    """A discrete or a Gaussian source in dimension d, cheap at any d."""
    if kind == "discrete":
        return DiscreteFiniteSource([Sample(np.ones(d), 0.0)], [1.0])
    return GaussianLinearSource(np.ones(d), noise_sd=0.3)


@pytest.mark.parametrize("kind", ["discrete", "gaussian"])
def test_large_runs_split_over_the_workers(kind, monkeypatch):
    # Whatever its source, a run is shared out among the workers that would
    # each step at least SHARE_STEPS (500,000) run-steps, the same number of
    # blocks each: at T = 2048, from 489 runs on two workers.  The budget is set
    # so that a block holds 2,560 runs of either source.
    src = layout_source(kind, 3)
    cap_block_runs(monkeypatch, 2048, src, 2560)
    assert engine._block_sizes(100, 2048, src, workers=2) == [100]
    assert engine._block_sizes(488, 2048, src, workers=2) == [488]
    assert engine._block_sizes(489, 2048, src, workers=2) == [245, 244]
    assert engine._block_sizes(1000, 2048, src, workers=1) == [1000]
    assert engine._block_sizes(1000, 2048, src, workers=2) == [500, 500]
    assert engine._block_sizes(1000, 2048, src, workers=8) == [250] * 4
    assert engine._block_sizes(4000, 2048, src, workers=8) == [500] * 8
    assert engine._block_sizes(5000, 2048, src, workers=1) == [2500, 2500]
    assert engine._block_sizes(5000, 2048, src, workers=2) == [2500, 2500]
    assert engine._block_sizes(3, 10**6, src, workers=8) == [1, 1, 1]
    assert engine._block_sizes(2000, 2048, layout_source(kind, 4), workers=2) == [1000, 1000]
    cap_block_runs(monkeypatch, 2048, src, 16)  # 16 runs fill a block
    assert engine._block_sizes(1200, 2048, src, workers=1) == [16] * 75
    assert engine._block_sizes(1200, 2048, src, workers=2) == [16] * 60 + [15] * 16
    # 1,200 runs of 2,047 steps are work for four workers, not eight: 76 blocks, not 80.
    assert engine._block_sizes(1200, 2048, src, workers=8) == [16] * 60 + [15] * 16
    cap_block_runs(monkeypatch, 2**20, src, 1)  # a run fills a block
    assert engine._block_sizes(5, 2**20, src, workers=2) == [1] * 5
    # The layout follows the worker count; the values do not.
    monkeypatch.undo()  # back to the default budget
    T = 32
    monkeypatch.setattr(engine, "SHARE_STEPS", 4 * (T - 1))
    src = streamed_source(kind, 3)
    assert engine._block_sizes(8, T, src, workers=1) == [8]
    assert engine._block_sizes(8, T, src, workers=2) == [4, 4]
    common = (PNormMap(1.5), LS, src, PolynomialDecay(0.5, 1.0), np.zeros(3), T,
              geometric_checkpoints(T))
    w_star = minimizer(src, LS)
    serial = monte_carlo_curve(*common, n_runs=8, base_seed=7, w_star=w_star, workers=1)
    pooled = monte_carlo_curve(*common, n_runs=8, base_seed=7, w_star=w_star, workers=2)
    np.testing.assert_array_equal(serial.values, pooled.values)
    assert multiprocessing.active_children() == []


def test_benchmark_configs_step_in_one_block():
    # The discrete Euclidean and the Gaussian p-norm benchmark configs.
    discrete = eight_atom_source(label_noise=1.0)
    gauss = GaussianLinearSource(np.array([1.0, -0.5, 0.25]), noise_sd=0.3, radius=2.0)
    for workers in (1, 2, 4, 8, 64):
        assert engine._block_sizes(200, 2048, discrete, workers) == [200]
        assert engine._block_sizes(100, 2048, gauss, workers) == [100]


def streamed_source(kind, d):
    """A source in dimension d whose samples tell its draws apart: a discrete
    one with 4d atoms, or a Gaussian one that clips some rows."""
    w_true = np.linspace(0.9, -0.6, d)
    if kind == "discrete":
        return orthonormal_atom_source(np.eye(d), np.full(d, 0.5 / d), w_true, label_noise=0.3)
    return GaussianLinearSource(w_true, noise_sd=0.3, feature_scale=0.8, radius=1.2)


def test_a_discrete_stream_holds_what_its_block_budget_counts():
    # Drain the discrete benchmark config's stream, 200 runs of 2,047 steps, as a
    # block does: each step's (X, y) is held until the next arrives.  Its traced
    # peak, less the runs' generators, which the budget leaves aside, stays within
    # the bytes per run that _block_runs budgets, plus a few KiB of objects that do
    # not grow with the runs.
    src, seeds, T = eight_atom_source(label_noise=1.0), range(2000, 2200), 2048
    for _ in src.stream(range(2), 300):  # first-call setup outside the count
        pass
    tracemalloc.start()
    try:
        generators = [_rng(seed) for seed in seeds]
        generator_bytes = tracemalloc.get_traced_memory()[0]
        del generators
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        for _ in src.stream(seeds, T - 1):
            pass
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    per_run = engine.BLOCK_BYTES // engine._block_runs(T, src)
    assert 0.9 * len(seeds) * per_run < peak - generator_bytes <= len(seeds) * per_run + 8192


# A test's ``chunk`` is the Gaussian stream's chunk, or the discrete stream's
# gather; a discrete stream draws its uniforms 256 steps to a call.
STREAM_CHUNK = {"gaussian": "_NORMAL_CHUNK", "discrete": "_GATHER"}


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["discrete", "gaussian"]), chunk=st.sampled_from([1, 3, 16, 64]),
       T=st.integers(1, 140), d=st.integers(1, 12), seed=st.integers(0, 2**64 - 4), B=st.integers(1, 4))
@example(kind="gaussian", chunk=3, T=1, d=3, seed=0, B=2)
@example(kind="gaussian", chunk=3, T=2, d=3, seed=1, B=2)
@example(kind="gaussian", chunk=3, T=12, d=9, seed=5, B=4)  # T - 1 = 11: three full chunks and two steps
@example(kind="gaussian", chunk=64, T=131, d=3, seed=2**64 - 4, B=3)  # T - 1 = 130: two full chunks and two steps
# A noise cursor skipping its feature normals in several calls through the chunk buffer:
@example(kind="gaussian", chunk=1, T=40, d=3, seed=4, B=1)  # 117 normals through a buffer of 3
@example(kind="gaussian", chunk=3, T=60, d=5, seed=6, B=2)  # 295 normals through a buffer of 30
@example(kind="discrete", chunk=3, T=1, d=4, seed=0, B=2)
@example(kind="discrete", chunk=3, T=2, d=4, seed=1, B=2)
@example(kind="discrete", chunk=1, T=6, d=2, seed=2, B=3)  # T - 1 = 5 chunks of one step
@example(kind="discrete", chunk=3, T=13, d=4, seed=3, B=4)  # T - 1 = 12: four full chunks
@example(kind="discrete", chunk=64, T=65, d=4, seed=2**64 - 4, B=3)  # T - 1 = 64: one full chunk
@example(kind="discrete", chunk=64, T=66, d=4, seed=7, B=2)  # T - 1 = 65: one full chunk and a step
@example(kind="discrete", chunk=64, T=129, d=3, seed=9, B=4)  # T - 1 = 128: two full chunks
# Horizons about the 256-step span of uniforms:
@example(kind="discrete", chunk=16, T=256, d=4, seed=10, B=3)  # T - 1 = 255: one step short of a span
@example(kind="discrete", chunk=16, T=257, d=4, seed=11, B=2)  # T - 1 = 256: one full span
@example(kind="discrete", chunk=16, T=258, d=3, seed=2**64 - 4, B=4)  # T - 1 = 257: a span and a step
@example(kind="discrete", chunk=16, T=514, d=4, seed=12, B=2)  # T - 1 = 513: two spans and a step
@example(kind="discrete", chunk=3, T=514, d=2, seed=13, B=3)  # gathers of 3 end each span on one step
def test_streamed_block_draws_as_draw_arrays(kind, chunk, T, d, seed, B):
    seen = []

    class RecordingModel(LossModel):
        def gradient(self, W, X, y):
            seen.append((X.copy(), y.copy()))
            return super().gradient(W, X, y)

    src = streamed_source(kind, d)
    args = (EuclideanMap(), RecordingModel(LeastSquares()), src, ConstantStep(0.05), np.zeros(d), T,
            sorted({1, T}), np.zeros(d))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sources, STREAM_CHUNK[kind], chunk)
        # The stream hands over exactly T - 1 steps, one (B, d) and (B,) pair each.
        steps = list(src.stream(range(seed, seed + B), T - 1))
        assert len(steps) == T - 1
        assert all(x.shape == (B, d) and y.shape == (B,) for x, y in steps)
        block = engine._run_block(*args, range(seed, seed + B))
        X = np.array([x for x, _ in seen]).reshape(T - 1, B, d)
        y = np.array([y for _, y in seen]).reshape(T - 1, B)
        for r in range(B):
            # Each row steps on exactly the samples draw_arrays gives its stream ...
            X_r, y_r = draw_arrays(src, _rng(seed + r), T - 1)
            np.testing.assert_array_equal(X[:, r], X_r)
            np.testing.assert_array_equal(y[:, r], y_r)
            # ... and ends where the one-row block of its seed does.
            one = engine._run_block(*args, range(seed + r, seed + r + 1))
            np.testing.assert_array_equal(one.values[0], block.values[r])
            np.testing.assert_array_equal(one.last[0], block.last[r])


def random_atom_source(n_atoms, seed):
    """A discrete source in d = 3 with random atoms in the unit ball and random probabilities."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, (n_atoms, 3)) / np.sqrt(3.0)
    weights = rng.uniform(0.1, 1.0, n_atoms)
    return DiscreteFiniteSource([Sample(x, float(y)) for x, y in zip(X, rng.standard_normal(n_atoms))],
                                weights / weights.sum())


@settings(max_examples=20, deadline=None)
@given(src=st.builds(random_atom_source, st.integers(1, 600), st.integers(0, 2**32 - 1)),
       seed=st.integers(0, 2**64), n=st.integers(1, 300))
@example(src=random_atom_source(256, 1), seed=0, n=200)
@example(src=random_atom_source(300, 2), seed=2**64, n=200)
def test_index_draws_gather_to_draw_arrays(src, seed, n):
    # The searchsorted draw on the run's uniforms.
    idx = np.searchsorted(src._cum, _rng(seed).random(n), side="right")
    X, y = draw_arrays(src, _rng(seed), n)
    np.testing.assert_array_equal(src.X[idx], X)
    np.testing.assert_array_equal(src.y[idx], y)
    # A block of three runs, which streams its samples a span at a time, steps
    # each row exactly as a one-row loop over that run's draw_arrays samples does.
    mirror, schedule, w1 = PNormMap(1.5), ConstantStep(0.1), np.full(3, 0.1)
    block = engine._run_block(mirror, LS, src, schedule, w1, n + 1, [n + 1], np.zeros(3),
                              range(seed, seed + 3))
    for r in range(3):
        X, y = draw_arrays(src, _rng(seed + r), n)
        W, dual = w1[None], mirror.grad(w1)[None]
        for t in range(n):
            dual = dual - schedule(t + 1) * LS.gradient(W, X[t:t + 1], y[t:t + 1])
            W = mirror.grad_inv(dual)
        np.testing.assert_array_equal(block.last[r], W[0])


# -- the batched engine against the scalar reference -----------------------------------------

REFERENCE_POINT = {4: np.array([0.5, -0.2, 0.1, 0.3]), 3: np.array([0.6, -0.3, 0.2])}


def scalar_values(mirror, model, source, schedule, w1, T, cps, n_runs, base_seed, ref):
    trajs = [run_trajectory(mirror, model, source, schedule, w1, T, cps, base_seed + i, ref)
             for i in range(n_runs)]
    return np.array([t.bregman_to_optimum for t in trajs]), [i for i, t in enumerate(trajs) if t.diverged]


@pytest.mark.parametrize("source_kind", ["discrete", "gaussian"])
@pytest.mark.parametrize(
    "model",
    [LS, LossModel(Logistic(), lam=0.1), LossModel(Huber()), LossModel(SquaredHinge()),
     LossModel(Sigmoid())],
    ids=lambda m: type(m.loss).__name__,
)
@pytest.mark.parametrize(
    "mirror",
    [EuclideanMap(), PNormMap(1.2), PNormMap(1.5), PNormMap(2.0), SmoothedL1Map(0.5, 1.0)],
    ids=repr,
)
def test_batched_engine_matches_run_trajectory(mirror, model, source_kind):
    if source_kind == "discrete":
        src = eight_atom_source(label_noise=0.5)
    else:
        src = GaussianLinearSource(np.array([0.8, -0.4, 0.2]), noise_sd=0.3, feature_scale=0.5,
                                   radius=1.5)
    d = src.d
    T, n_runs, base_seed = 256, 5, 31
    cps = geometric_checkpoints(T)
    args = (mirror, model, src, PolynomialDecay(0.5, 1.0), np.full(d, 0.25), T, cps)
    ref = REFERENCE_POINT[d]
    mc = monte_carlo_curve(*args, n_runs=n_runs, base_seed=base_seed, w_star=ref, workers=1)
    expected, expected_diverged = scalar_values(*args, n_runs, base_seed, ref)
    assert mc.diverged_runs == expected_diverged == []
    np.testing.assert_array_equal(mc.values, expected)


MIXED_DIVERGENCE = [(EuclideanMap(), 0.5), (PNormMap(1.5), 0.5), (SmoothedL1Map(0.5, 1.0), 0.7)]


def mixed_divergence_source():
    # The rare atom expands its coordinate by |1 - 9 eta| per hit, the common one
    # contracts; runs that draw the rare atom often enough cross the guard.
    return DiscreteFiniteSource([Sample(np.array([1.0, 0.0]), 0.0), Sample(np.array([0.0, 3.0]), 1.0)],
                                [0.9, 0.1])


@pytest.mark.parametrize("mirror, eta", MIXED_DIVERGENCE, ids=lambda v: repr(v))
def test_batched_engine_mixed_divergence(mirror, eta, monkeypatch):
    T, n_runs, base_seed = 256, 12, 40
    src = mixed_divergence_source()
    three_run_blocks(monkeypatch, T, src)
    ref = np.array([0.3, -0.2])
    args = (mirror, LS, src, ConstantStep(eta), np.zeros(2), T, geometric_checkpoints(T))
    mc = monte_carlo_curve(*args, n_runs=n_runs, base_seed=base_seed, w_star=ref, workers=1)
    expected, expected_diverged = scalar_values(*args, n_runs, base_seed, ref)
    assert 0 < len(expected_diverged) < n_runs
    assert mc.diverged_runs == expected_diverged
    finite = np.isfinite(expected)
    np.testing.assert_array_equal(np.isfinite(mc.values), finite)
    np.testing.assert_array_equal(mc.values[finite], expected[finite])


@pytest.mark.parametrize("mirror, eta", MIXED_DIVERGENCE, ids=lambda v: repr(v))
@settings(max_examples=8, deadline=None)
@given(base_seed=st.integers(0, 10**6))
@example(base_seed=0)  # one smoothed-l1 run stays under the guard: too few for a standard error
def test_block_rows_diverge_like_their_one_row_runs(mirror, eta, base_seed):
    T, n_runs = 256, 12
    src = mixed_divergence_source()
    ref = np.array([0.3, -0.2])
    args = (mirror, LS, src, ConstantStep(eta), np.zeros(2), T, geometric_checkpoints(T))
    drawn = []  # the steps each block takes from its stream
    stream = src.stream

    def counted_stream(seeds, n):
        drawn.append(0)
        for step in stream(seeds, n):
            drawn[-1] += 1
            yield step

    with pytest.MonkeyPatch.context() as mp:
        three_run_blocks(mp, T, src)  # 12 runs make four blocks of 3
        mp.setattr(src, "stream", counted_stream)
        blocks = [engine._run_block(*args, ref, range(base_seed + lo, base_seed + lo + 3))
                  for lo in range(0, n_runs, 3)]
        # A block draws no step after its last row has diverged.
        assert drawn == [T - 1 if (b.diverged_at == 0).any() else int(b.diverged_at.max()) - 1
                         for b in blocks]
        diverged_at = np.concatenate([block.diverged_at for block in blocks])
        values = np.concatenate([block.values for block in blocks])
        for i in range(n_runs):
            traj = run_trajectory(*args, seed=base_seed + i, w_star=ref)
            assert traj.diverged_at == (int(diverged_at[i]) or None)
            assert traj.diverged == (diverged_at[i] > 0)
            np.testing.assert_array_equal(traj.bregman_to_optimum, values[i])
        flagged = np.flatnonzero(diverged_at > 0).tolist()
        if n_runs - len(flagged) < 2:  # no standard error from the runs that stayed
            with pytest.raises(AllRunsDiverged):
                monte_carlo_curve(*args, n_runs=n_runs, base_seed=base_seed, w_star=ref, workers=1,
                                  exclude_diverged=True)
            return
        mc = monte_carlo_curve(*args, n_runs=n_runs, base_seed=base_seed, w_star=ref, workers=1,
                               exclude_diverged=True)
    assert mc.diverged_runs == flagged
    assert mc.curve.run_count == n_runs - len(flagged)


# -- the engine against the exact Kaczmarz oracle -----------------------------------------

# The standard error of a heavy-tailed mean is itself noisy: over 20-40 base
# seeds per setup, the largest |z| across checkpoints t >= 2 reached 4.18
# (Thm3, 2,000 runs), 2.46 (constant step with l2, 1,000 runs) and 2.80
# (Thm2b, 4,000 runs).  A wrong step index, step size or regularizer factor
# moves the mean by tens of standard errors.
ORACLE_Z = 5.0


@pytest.mark.parametrize(
    "fields, n_runs",
    [
        ("eta = 0.1\nT = 256\ntheorem_tag = Thm3-linear-rate\n", 2000),
        ("source_label_noise = 0.5\nreg_lambda = 0.1\neta = 0.2\nT = 512\n", 1000),
        ("source_label_noise = 1.0\nschedule = theorem_rate\nT = 512\ntheorem_tag = Thm2b-rate\n", 4000),
    ],
    ids=["Thm3", "constant-l2", "Thm2b"],
)
def test_engine_mean_within_standard_errors_of_exact_oracle(fields, n_runs):
    exp = build_experiment(parse_config(fields + f"n_runs = {n_runs}\n"))
    T = exp.config.T
    exact = kaczmarz_moments(exp.source, exp.model, exp.schedule, exp.w1, exp.w_star, T, exp.checkpoints)
    mc = monte_carlo_curve(exp.mirror, exp.model, exp.source, exp.schedule, exp.w1, T, exp.checkpoints,
                           n_runs=n_runs, base_seed=exp.config.base_seed, w_star=exp.w_star, workers=1)
    assert mc.diverged_runs == []
    mean, se = mc.curve.mean, mc.curve.std_err
    # Every run starts at w1, so t = 1 has no spread: only rounding separates the two.
    assert abs(mean[0] - exact[0]) <= 1e-12 * exp.d1
    assert (np.abs(mean[1:] - exact[1:]) <= ORACLE_Z * se[1:]).all()


def test_all_runs_diverged_raises():
    src = eight_atom_source(label_noise=0.5)
    w_star = minimizer(src, LS)
    with pytest.raises(AllRunsDiverged):
        monte_carlo_curve(
            EuclideanMap(), LS, src, ConstantStep(1e6), np.zeros(4), 64,
            geometric_checkpoints(64), n_runs=3, base_seed=0, w_star=w_star, workers=1,
        )


def zero_gradient_or_blow_up_source():
    # At w = 0 the first atom has zero gradient; the second sends a step of 1e200
    # to an iterate whose squared norm overflows.
    return DiscreteFiniteSource([Sample(np.array([1.0, 0.0]), 0.0), Sample(np.array([0.0, 1.0]), 1.0)],
                                [0.5, 0.5])


@settings(max_examples=25, deadline=None)
@example(base_seed=100, n_runs=16)
@example(base_seed=16, n_runs=2)  # both runs stay finite
@example(base_seed=0, n_runs=2)  # one run survives
@example(base_seed=1, n_runs=2)  # no run survives
@given(base_seed=st.integers(0, 2**32), n_runs=st.integers(2, 24))
def test_non_finite_curve_raises_naming_runs(base_seed, n_runs):
    src = zero_gradient_or_blow_up_source()
    args = (EuclideanMap(), LS, src, ConstantStep(1e200), np.zeros(2), 4, [1, 2, 4])
    ref = np.array([0.0, 1.0])
    # the runs that draw only the zero-gradient atom stay finite
    with np.errstate(over="ignore", invalid="ignore"):
        diverged = [i for i in range(n_runs)
                    if run_trajectory(*args, seed=base_seed + i, w_star=ref).diverged]
    survivors = n_runs - len(diverged)

    def curve(**kw):
        return monte_carlo_curve(*args, n_runs=n_runs, base_seed=base_seed, w_star=ref, workers=1, **kw)

    if not diverged:
        assert curve().curve.run_count == n_runs
    elif not survivors:
        with pytest.raises(AllRunsDiverged):
            curve()
    else:
        with pytest.raises(NonFiniteCurve) as info:
            curve()
        assert isinstance(info.value, AllRunsDiverged)
        assert info.value.runs == diverged
        assert str(info.value.runs) in str(info.value)
    # excluding the diverged runs leaves a finite curve of the survivors, if
    # enough survive for a standard error
    if survivors >= 2:
        mc = curve(exclude_diverged=True)
        assert mc.curve.run_count == survivors
        assert np.isfinite(mc.curve.mean).all() and np.isfinite(mc.curve.std_err).all()
    else:
        with pytest.raises(AllRunsDiverged):
            curve(exclude_diverged=True)


def test_diverged_runs_reported_and_excludable():
    # mix a stable p-norm geometry with a step too loud for a few runs is hard
    # to arrange cheaply, so force divergence everywhere except none at all:
    src = eight_atom_source(label_noise=0.5)
    w_star = minimizer(src, LS)
    mc = monte_carlo_curve(
        EuclideanMap(), LS, src, ConstantStep(0.1), np.zeros(4), 32,
        geometric_checkpoints(32), n_runs=4, base_seed=1, w_star=w_star, workers=1,
    )
    assert mc.diverged_runs == []
    assert mc.curve.run_count == 4


def test_n_runs_lower_bound():
    src = eight_atom_source()
    w_star = minimizer(src, LS)
    with pytest.raises(ValueError):
        monte_carlo_curve(EuclideanMap(), LS, src, ConstantStep(0.1), np.zeros(4), 8,
                          [1, 8], n_runs=1, base_seed=0, w_star=w_star, workers=1)


def test_sigmoid_runs_free_with_explicit_reference():
    # no minimizer exists for the non-convex loss, but trajectories against a
    # caller-chosen reference point still run
    from omdkit.losses import Sigmoid

    src = eight_atom_source(label_noise=0.5)
    model = LossModel(Sigmoid(), lam=0.1)
    ref = np.zeros(4)
    traj = run_trajectory(
        EuclideanMap(), model, src, PolynomialDecay(0.5, 1.0), np.full(4, 0.5), 64,
        geometric_checkpoints(64), seed=2, w_star=ref,
    )
    assert not traj.diverged
    assert np.isfinite(traj.bregman_to_optimum).all()


def test_trajectory_on_gaussian_source_converges():
    src = GaussianLinearSource(np.array([1.0, -0.5]), noise_sd=0.0, feature_scale=0.4, radius=1.0)
    w_star = minimizer(src, LS)
    traj = run_trajectory(
        EuclideanMap(), LS, src, ConstantStep(0.5), np.zeros(2), 512,
        geometric_checkpoints(512), seed=21, w_star=w_star,
    )
    assert not traj.diverged
    assert traj.bregman_to_optimum[-1] < 0.01 * traj.bregman_to_optimum[0]


def test_default_workers_counts_usable_cores(monkeypatch):
    # A process pinned to one of two cores gets one worker, not the machine's two.
    monkeypatch.setattr(engine.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert engine.default_workers() == 1
    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert engine.default_workers() == 3
    # Where the process cannot read its affinity, the CPU count stands in.
    monkeypatch.delattr(engine.os, "sched_getaffinity", raising=False)
    assert engine.default_workers() == 2
    monkeypatch.setattr(engine.os, "cpu_count", lambda: None)
    assert engine.default_workers() == 1


@pytest.mark.parametrize("workers", [0, -2, "0", "x", 2.7, 1.0, True])
def test_worker_count_below_one_is_refused(workers):
    with pytest.raises(ValueError, match="workers must be a positive integer"):
        monte_carlo_curve(EuclideanMap(), LS, eight_atom_source(), ConstantStep(0.1), np.zeros(4), 4,
                          [1, 4], n_runs=2, base_seed=0, w_star=np.zeros(4), workers=workers)


# -- one-step distance contract ----------------------------------------------------------

@pytest.mark.parametrize("mirror", [EuclideanMap(), SmoothedL1Map(0.5, 1.0)], ids=repr)
def test_one_step_distance_contract(mirror):
    src = eight_atom_source(label_noise=0.5)
    model = LS
    w_star = minimizer(src, model)
    sigma = mirror.strong_convexity()
    L = model.sharp_smoothness_bound(src.radius(mirror.norm.dual))
    eta = sigma / (2.0 * L)
    q = mirror.norm.dual.p
    a = src.X @ w_star
    G = (a - src.y)[:, None] * src.X
    noise = float(src.probs @ ((np.abs(G) ** q).sum(axis=1) ** (2.0 / q)))
    rng = np.random.default_rng(14)
    for _ in range(300):
        w_t = rng.standard_normal(4) * rng.choice([0.5, 2.0])
        e_next = 0.0
        for prob, x, y in zip(src.probs, src.X, src.y):
            w_next = omd_step(mirror, model, w_t, x, float(y), eta)
            e_next += prob * mirror.bregman(w_star, w_next)
        assert e_next <= mirror.bregman(w_star, w_t) + eta * eta / sigma * noise + 1e-9


# -- resolved constants and regimes ---------------------------------------------------------

def test_resolve_constants_eight_atom_source():
    src = eight_atom_source()
    c = resolve_constants(EuclideanMap(), LS, src)
    assert c.sigma_psi == 1.0
    assert c.smooth_L == 1.0
    assert c.smooth_L_generic == 2.0
    assert c.lambda_min == pytest.approx(0.2, abs=1e-12)
    assert c.sigma_f == pytest.approx(0.4, abs=1e-12)
    assert c.risk_L == pytest.approx(0.3, abs=1e-12)
    assert c.growth_a == pytest.approx(0.6, abs=1e-12)
    assert c.radius == 1.0


def test_resolve_constants_pnorm_has_no_linear_control():
    src = eight_atom_source()
    c = resolve_constants(PNormMap(1.5), LS, src)
    assert c.sigma_f is None
    assert c.map_smoothness is None
    assert c.sigma_psi == 0.5


def test_regime_linear_rate():
    src = eight_atom_source()
    c = resolve_constants(EuclideanMap(), LS, src)
    assert_step_regime("Thm3-linear-rate", ConstantStep(0.1), c, variance=VarianceRegime.ZERO)
    # judged by the step sequence: the polynomial decay at theta = 0 is a constant step
    assert_step_regime("Thm3-linear-rate", PolynomialDecay(0.1, 0.0), c, variance=VarianceRegime.ZERO)
    with pytest.raises(RegimeError):
        assert_step_regime("Thm3-linear-rate", ConstantStep(0.6), c)
    with pytest.raises(RegimeError, match="needs eta < "):
        assert_step_regime("Thm3-linear-rate", PolynomialDecay(0.6, 0.0), c)
    with pytest.raises(RegimeError):
        assert_step_regime("Thm3-linear-rate", PolynomialDecay(0.1, 1.0), c)
    with pytest.raises(RegimeError):
        assert_step_regime("Thm3-linear-rate", ConstantStep(0.1), c, variance=VarianceRegime.POSITIVE)
    # kappa shrinks the admissible band below the bracket threshold
    with pytest.raises(RegimeError):
        assert_step_regime("Thm3-linear-rate", ConstantStep(0.4), c, kappa=1.0)
    # ... unless the run is an explicit violation probe
    assert_step_regime("Thm3-linear-rate", ConstantStep(0.6), c, violation_probe=True)


def test_regime_theorem_rate():
    src = eight_atom_source(label_noise=1.0)
    c = resolve_constants(EuclideanMap(), LS, src)
    assert_step_regime("Thm2b-rate", TheoremRate(c.sigma_f), c, variance=VarianceRegime.POSITIVE)
    with pytest.raises(RegimeError):
        assert_step_regime("Thm2b-rate", TheoremRate(2.0 * c.sigma_f), c)
    with pytest.raises(RegimeError):
        assert_step_regime("Thm2b-rate", ConstantStep(0.1), c)
    # Judged by the parameters, not by the spelling that made the schedule.
    assert_step_regime("Thm2b-rate", StepSchedule(4.0, 1.0, 1.0, c.sigma_f), c)
    with pytest.raises(RegimeError, match="needs the 4/"):
        assert_step_regime("Thm2b-rate", PolynomialDecay(4.0 / c.sigma_f, 1.0), c)


def test_regime_probe_tags_require_flag():
    src = eight_atom_source(label_noise=1.0)
    c = resolve_constants(EuclideanMap(), LS, src)
    with pytest.raises(RegimeError, match="violation_probe"):
        assert_step_regime("Thm2-necessity-sum", PolynomialDecay(0.05, 2.0), c)
    assert_step_regime("Thm2-necessity-sum", PolynomialDecay(0.05, 2.0), c, violation_probe=True)
    with pytest.raises(RegimeError):  # summable schedule required
        assert_step_regime("Thm2-necessity-sum", PolynomialDecay(0.05, 1.0), c, violation_probe=True)
    with pytest.raises(RegimeError):  # floor regime: eta must stay below 1/(3a)
        assert_step_regime("Thm2-necessity-sum", PolynomialDecay(0.9, 2.0), c, violation_probe=True)
    with pytest.raises(RegimeError):
        assert_step_regime("Thm2-necessity-limit", PolynomialDecay(0.1, 1.0), c, violation_probe=True)
    assert_step_regime("Thm2-necessity-limit", ConstantStep(0.2), c, violation_probe=True,
                       variance=VarianceRegime.POSITIVE)
    with pytest.raises(RegimeError, match="positive-variance"):
        assert_step_regime("Thm2-necessity-limit", ConstantStep(0.2), c, violation_probe=True,
                           variance=VarianceRegime.ZERO)


def test_regime_almost_sure_and_unknown_tags():
    src = eight_atom_source(label_noise=1.0)
    c = resolve_constants(EuclideanMap(), LS, src)
    assert_step_regime("Thm4-as", PolynomialDecay(1.0, 1.0), c)
    with pytest.raises(RegimeError):
        assert_step_regime("Thm4-as", PolynomialDecay(1.0, 0.5), c)
    with pytest.raises(RegimeError):
        assert_step_regime("made-up-tag", ConstantStep(0.1), c)
