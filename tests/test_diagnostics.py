import dataclasses
import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest

from omdkit import config
from omdkit.config import ConfigError, ExperimentConfig, build_experiment, with_overrides
from omdkit.diagnostics import (
    THEOREMS,
    ExperimentResult,
    Verdict,
    assert_step_regime,
    cocoercivity_margin,
    duality_residual,
    fit_decay_rate,
    fit_rate,
    kaczmarz_moments,
    key_identity_residual,
    linear_rate_bracket,
    nonconvergence_floor,
    nonsmoothness_witness,
    theorem_verdict,
)
from omdkit.engine import (
    ConstantStep,
    ExpectationCurve,
    MonteCarloResult,
    PolynomialDecay,
    RegimeError,
    ResolvedConstants,
    TheoremRate,
    geometric_checkpoints,
    omd_step,
)
from omdkit.losses import Huber, LeastSquares, Logistic, LossModel, Sigmoid
from omdkit.mirror_maps import EuclideanMap, PNormMap, SmoothedL1Map
from omdkit.sources import (
    DiscreteFiniteSource,
    GaussianLinearSource,
    Sample,
    minimizer,
    orthonormal_atom_source,
)


def curve_from(checkpoints, means, std_errs=None, run_count=100):
    cps = np.asarray(checkpoints, dtype=np.int64)
    means = np.asarray(means, dtype=np.float64)
    se = np.zeros_like(means) if std_errs is None else np.asarray(std_errs, dtype=np.float64)
    return ExpectationCurve(cps, means, se, run_count)


def result_from(curve, values=None, schedule=None, T=None, constants=None, d1=1.0):
    if values is None:
        values = np.tile(curve.mean, (curve.run_count, 1))
    if constants is None:
        constants = ResolvedConstants(
            sigma_psi=1.0, smooth_L=1.0, smooth_L_generic=2.0, risk_L=0.3,
            sigma_f_norm=0.2, sigma_f=0.4, lambda_min=0.2, radius=1.0,
            growth_a=0.6, map_smoothness=1.0,
        )
    mc = MonteCarloResult(curve=curve, values=values)
    return ExperimentResult(
        mc=mc, constants=constants, schedule=schedule or ConstantStep(0.1),
        T=int(curve.checkpoints[-1]) if T is None else T, d1=d1,
    )


# -- rate fitting -----------------------------------------------------------------

def test_fit_rate_recovers_exact_power_law():
    t = geometric_checkpoints(2048)
    fit = fit_rate(curve_from(t, [1.0 / x for x in t]), 1, 2048)
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_rate_constant_curve_zero_slope():
    t = geometric_checkpoints(256)
    fit = fit_rate(curve_from(t, [0.7] * len(t)), 1, 256)
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_fit_rate_flags_geometric_decay_as_non_power_law():
    t = [16, 32, 64, 128, 256]
    fit = fit_rate(curve_from(t, [0.9 ** x for x in t]), 16, 256)
    assert fit.slope < -1.0
    assert fit.r_squared < 0.995


def test_fit_rate_validation():
    t = geometric_checkpoints(64)
    with pytest.raises(ValueError, match="4 checkpoints"):
        fit_rate(curve_from(t, [1.0 / x for x in t]), 16, 64)
    means = [1.0 / x for x in t]
    means[3] = 0.0
    with pytest.raises(ValueError, match="positive"):
        fit_rate(curve_from(t, means), 1, 64)


def test_fit_decay_rate_recovers_geometric_factor():
    t = geometric_checkpoints(256)
    fit = fit_decay_rate(curve_from(t, [0.9 ** x for x in t]), 1, 256)
    assert fit.slope == pytest.approx(math.log(0.9), abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


# -- bound bracket -----------------------------------------------------------------

def test_bracket_hand_values():
    b = linear_rate_bracket(1.0, 1.0, 1.0, 0.25, 1.0, [0, 2])
    assert b.lower[0] == 1.0 and b.upper[0] == 1.0
    assert b.lower[1] == pytest.approx(0.25, abs=1e-15)
    assert b.upper[1] == pytest.approx(0.765625, abs=1e-15)


def test_bracket_is_geometric():
    steps = np.arange(0, 50)
    b = linear_rate_bracket(1.0, 1.0, 0.4, 0.1, 2.0, steps)
    ratios_lo = b.lower[1:] / b.lower[:-1]
    ratios_hi = b.upper[1:] / b.upper[:-1]
    assert np.abs(ratios_lo - ratios_lo[0]).max() < 1e-15
    assert np.abs(ratios_hi - ratios_hi[0]).max() < 1e-15
    assert (b.lower <= b.upper).all()


def test_bracket_small_step_limit():
    b = linear_rate_bracket(1.0, 1.0, 0.4, 1e-9, 1.0, [64])
    assert b.lower[0] == pytest.approx(1.0, abs=1e-6)
    assert b.upper[0] == pytest.approx(1.0, abs=1e-6)


def test_bracket_preconditions():
    with pytest.raises(ValueError):
        linear_rate_bracket(1.0, 1.0, 0.4, 0.5, 1.0, [1])  # eta not < sigma/(2L)
    with pytest.raises(ValueError):
        linear_rate_bracket(1.0, 1.0, 30.0, 0.1, 1.0, [1])  # sigma_f * eta >= 2
    with pytest.raises(ValueError):
        linear_rate_bracket(1.0, 1.0, 0.4, 0.1, -1.0, [1])
    with pytest.raises(ValueError):
        linear_rate_bracket(1.0, 1.0, 0.4, 0.1, 1.0, [-1])


# -- non-convergence floor -------------------------------------------------------------

def test_floor_hand_value():
    # a=1, t0=1, T=3, eta = 0.1: sum over t = 2..3 is 0.2
    floor = nonconvergence_floor(1.0, ConstantStep(0.1), 1.0, 1, 3)
    assert floor == pytest.approx(math.exp(-0.4), abs=1e-15)


def test_floor_with_empty_summation_range():
    assert nonconvergence_floor(1.0, ConstantStep(0.1), 0.7, 5, 5) == 0.7


def test_floor_positive_limit_for_summable_schedule():
    sched = PolynomialDecay(0.05, 2.0)
    d_ref = 1.0
    a = 0.6
    f1 = nonconvergence_floor(a, sched, d_ref, 1, 512)
    f2 = nonconvergence_floor(a, sched, d_ref, 1, 4096)
    tail_bound = math.exp(-2.0 * a * 0.05 * math.pi ** 2 / 6.0)
    assert f2 < f1
    assert f2 > tail_bound - 1e-12


def test_floor_regime_validation():
    with pytest.raises(ValueError, match="1/\\(3a\\)"):
        nonconvergence_floor(10.0, ConstantStep(0.1), 1.0, 1, 4)
    with pytest.raises(ValueError):
        nonconvergence_floor(1.0, ConstantStep(0.1), 1.0, 4, 2)


# -- exact identities ----------------------------------------------------------------------

def four_atom_source():
    atoms = [
        Sample(np.array([0.9, 0.1, -0.2]), 1.0),
        Sample(np.array([-0.3, 0.8, 0.4]), -0.5),
        Sample(np.array([0.2, -0.6, 0.7]), 0.8),
        Sample(np.array([-0.5, -0.4, -0.6]), 0.25),
    ]
    return DiscreteFiniteSource(atoms, [0.4, 0.3, 0.2, 0.1])


@pytest.mark.parametrize(
    "mirror", [EuclideanMap(), PNormMap(1.5), SmoothedL1Map(0.5, 1.0)], ids=repr
)
def test_key_identity_residual_is_machine_precision(mirror):
    src = four_atom_source()
    model = LossModel(LeastSquares())
    w_star = minimizer(src, model)
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        w_t = rng.standard_normal(3) * rng.choice([0.5, 2.0])
        eta = float(rng.choice([0.05, 0.5]))
        worst = max(worst, key_identity_residual(mirror, model, src, w_t, eta, w_star))
    assert worst < 1e-10


def test_key_identity_zero_at_interpolating_optimum():
    src = orthonormal_atom_source(np.eye(3), [1 / 6] * 3, np.array([1.0, -0.5, 0.25]))
    model = LossModel(LeastSquares())
    w_star = minimizer(src, model)
    assert key_identity_residual(EuclideanMap(), model, src, w_star, 0.5, w_star) < 1e-15


def test_key_identity_computes_minimizer_when_omitted():
    src = four_atom_source()
    model = LossModel(LeastSquares())
    assert key_identity_residual(EuclideanMap(), model, src, np.zeros(3), 0.1) < 1e-10


def test_key_identity_rejects_continuous_source():
    from omdkit.sources import GaussianLinearSource

    src = GaussianLinearSource(np.array([1.0]), noise_sd=0.0)
    with pytest.raises(ValueError, match="discrete"):
        key_identity_residual(EuclideanMap(), LossModel(LeastSquares()), src, np.zeros(1), 0.1,
                              np.array([1.0]))


# -- the exact Kaczmarz oracle ------------------------------------------------------------

def brute_force_distances(source, model, schedule, w1, w_star, T):
    """E[D(w*, w_t)] for t = 1..T by stepping every atom sequence of length T - 1
    and weighting it by its probability."""
    seqs = np.array(list(itertools.product(range(source.n_atoms), repeat=T - 1)), dtype=np.intp)
    seqs = seqs.reshape(len(seqs), T - 1)
    weights = np.prod(source.probs[seqs], axis=1)
    mirror = EuclideanMap()
    W = np.tile(w1, (len(seqs), 1))
    out = [math.fsum(weights * mirror.bregman(w_star, W))]
    for t in range(1, T):
        k = seqs[:, t - 1]
        W = omd_step(mirror, model, W, source.X[k], source.y[k], schedule(t))
        out.append(math.fsum(weights * mirror.bregman(w_star, W)))
    return np.array(out)


@pytest.mark.parametrize("schedule", [ConstantStep(0.3), TheoremRate(0.2)], ids=repr)
@pytest.mark.parametrize("case", ["four_atoms", "rotated_noisy"])
def test_kaczmarz_moments_match_brute_force(case, schedule):
    if case == "four_atoms":
        src, model = four_atom_source(), LossModel(LeastSquares(), lam=0.1)
    else:
        q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((4, 4)))
        src = orthonormal_atom_source(q, [0.15, 0.15, 0.1, 0.1], np.array([0.8, -0.45, 0.3, 0.25]),
                                      label_noise=0.5)
        model = LossModel(LeastSquares())
    w_star = minimizer(src, model)
    w1 = np.linspace(-0.4, 0.3, src.d)
    for T in range(1, 5):
        exact = kaczmarz_moments(src, model, schedule, w1, w_star, T, list(range(1, T + 1)))
        np.testing.assert_allclose(exact, brute_force_distances(src, model, schedule, w1, w_star, T),
                                   rtol=2e-15, atol=0.0)


def test_kaczmarz_moments_at_sparse_checkpoints_match_every_checkpoint():
    src, model = four_atom_source(), LossModel(LeastSquares(), lam=0.1)
    w_star = minimizer(src, model)
    every = kaczmarz_moments(src, model, ConstantStep(0.3), np.zeros(3), w_star, 64, range(1, 65))
    sparse = kaczmarz_moments(src, model, ConstantStep(0.3), np.zeros(3), w_star, 64, [1, 8, 64])
    np.testing.assert_array_equal(sparse, every[[0, 7, 63]])


def test_kaczmarz_moments_reject_other_losses_and_sources():
    src = four_atom_source()
    with pytest.raises(ValueError, match="least-squares"):
        kaczmarz_moments(src, LossModel(Logistic()), ConstantStep(0.1), np.zeros(3), np.zeros(3), 4, [1, 4])
    gauss = GaussianLinearSource(np.array([1.0]), noise_sd=0.0)
    with pytest.raises(ValueError, match="discrete"):
        kaczmarz_moments(gauss, LossModel(LeastSquares()), ConstantStep(0.1), np.zeros(1), np.ones(1), 4, [1, 4])


# -- duality -----------------------------------------------------------------------------

def test_duality_residual_euclidean_machine_precision():
    rng = np.random.default_rng(4)
    for _ in range(200):
        w, v = rng.uniform(-10, 10, size=(2, 5))
        assert duality_residual(2.0, w, v) < 1e-12


@pytest.mark.parametrize("p", [1.2, 1.5, 2.0])
def test_duality_residual_random_sweep(p):
    rng = np.random.default_rng(5)
    for _ in range(1000):
        w, v = rng.uniform(-10, 10, size=(2, 6))
        assert duality_residual(p, w, v) < 1e-9


def test_duality_residual_identical_points():
    w = np.array([1.0, -2.0, 0.5])
    assert duality_residual(1.5, w, w) == 0.0


# -- non-strong-smoothness witness ----------------------------------------------------------

def test_witness_grows_without_bound_for_p_below_two():
    grid = [1.0, 10.0, 100.0, 1000.0, 10000.0]
    for d in (2, 3):
        ratios = [nonsmoothness_witness(1.5, d, a) for a in grid]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] / ratios[0] > 10.0


def test_witness_constant_for_euclidean_exponent():
    # cancellation noise grows as the perturbation shrinks; 1e-6 still separates
    # this cleanly from the unbounded p < 2 ratios
    for a in (1.0, 10.0, 100.0, 10000.0):
        assert nonsmoothness_witness(2.0, 2, a) == pytest.approx(1.0, abs=1e-6)
        assert nonsmoothness_witness(2.0, 5, a) == pytest.approx(1.0, abs=1e-6)


def test_witness_asymptotic_exponent():
    # the implied modulus grows like a^(2-p)
    r1 = nonsmoothness_witness(1.5, 2, 1e3)
    r2 = nonsmoothness_witness(1.5, 2, 1e5)
    assert math.log(r2 / r1) / math.log(1e2) == pytest.approx(0.5, abs=1e-3)


def test_witness_validation():
    with pytest.raises(ValueError):
        nonsmoothness_witness(1.5, 1, 10.0)
    with pytest.raises(ValueError):
        nonsmoothness_witness(1.5, 2, 0.5)
    with pytest.raises(ValueError):
        nonsmoothness_witness(2.5, 2, 10.0)


# -- co-coercivity --------------------------------------------------------------------------

def test_cocoercivity_margin_zero_for_identical_points():
    w = np.array([0.5, -0.25])
    z = Sample(np.array([1.0, 0.0]), 0.0)
    assert cocoercivity_margin(LossModel(LeastSquares()), z, w, w, 1.0) == 0.0


def test_cocoercivity_margin_tight_at_rank_one():
    z = Sample(np.array([1.0, 0.0]), 0.0)
    margin = cocoercivity_margin(
        LossModel(LeastSquares()), z, np.array([1.0, 0.0]), np.zeros(2), 1.0
    )
    assert margin == pytest.approx(0.0, abs=1e-15)


def test_cocoercivity_margin_random_sweep():
    rng = np.random.default_rng(6)
    for model in (LossModel(LeastSquares()), LossModel(Logistic(), lam=0.1), LossModel(Huber())):
        for _ in range(2000):
            x = rng.standard_normal(3)
            x /= max(1.0, float(np.sqrt(x @ x)))
            z = Sample(x, float(rng.uniform(-1, 1)))
            w, v = rng.standard_normal((2, 3)) * 2.0
            L = model.sharp_smoothness_bound(1.0)
            assert cocoercivity_margin(model, z, w, v, L) >= -1e-10


@pytest.mark.parametrize("model", [LossModel(LeastSquares()), LossModel(Logistic(), lam=0.1), LossModel(Huber())],
                         ids=lambda m: repr(m.loss))
def test_cocoercivity_margin_of_a_stack_is_its_rows(model):
    rng = np.random.default_rng(8)
    X = rng.standard_normal((50, 3))
    y = rng.uniform(-1.0, 1.0, 50)
    W, V = rng.standard_normal((2, 50, 3)) * 2.0
    L = model.sharp_smoothness_bound(float(np.sqrt((X * X).sum(axis=1)).max()))
    stacked = cocoercivity_margin(model, Sample(X, y), W, V, L)
    assert stacked.shape == (50,)
    for i in range(50):
        assert stacked[i] == cocoercivity_margin(model, Sample(X[i:i + 1], y[i:i + 1]), W[i:i + 1], V[i:i + 1], L)[0]
        point = cocoercivity_margin(model, Sample(X[i], float(y[i])), W[i], V[i], L)
        assert isinstance(point, float)
        # a point's norm takes numpy's whole-vector path, a stack's the per-row one
        assert stacked[i] == pytest.approx(point, rel=1e-12, abs=1e-12)
    assert (stacked >= -1e-10).all()


def test_cocoercivity_rejects_nonconvex_loss():
    z = Sample(np.array([1.0]), 1.0)
    with pytest.raises(ValueError, match="convex"):
        cocoercivity_margin(LossModel(Sigmoid()), z, np.zeros(1), np.ones(1), 1.0)


# -- verdicts ---------------------------------------------------------------------------------

def test_verdict_exact_one_over_t_curve_passes():
    t = geometric_checkpoints(2048)
    res = result_from(curve_from(t, [1.0 / x for x in t]), T=2048)
    assert theorem_verdict(res, "Thm2b-rate").verdict is Verdict.PASS


def test_verdict_constant_curve_fails_sufficiency():
    t = geometric_checkpoints(2048)
    res = result_from(curve_from(t, [0.5] * len(t)), T=2048)
    assert theorem_verdict(res, "Thm2-sufficiency").verdict is Verdict.FAIL


def test_verdict_decaying_curve_passes_sufficiency():
    t = geometric_checkpoints(2048)
    res = result_from(curve_from(t, [1.0 / x for x in t]), T=2048)
    assert theorem_verdict(res, "Thm2-sufficiency").verdict is Verdict.PASS


def test_verdict_wide_error_bars_inconclusive():
    t = geometric_checkpoints(2048)
    means = [1.0 / x for x in t]
    res = result_from(curve_from(t, means, std_errs=[0.5 * m + 0.05 for m in means]), T=2048)
    assert theorem_verdict(res, "Thm2-sufficiency").verdict is Verdict.INCONCLUSIVE


def test_verdict_lower_rate_scaled_error():
    t = geometric_checkpoints(2048)
    res = result_from(curve_from(t, [1.0 / x for x in t]), T=2048)
    assert theorem_verdict(res, "Thm2a-lower").verdict is Verdict.PASS
    res_fast = result_from(curve_from(t, [1.0 / x ** 2 for x in t]), T=2048)
    assert theorem_verdict(res_fast, "Thm2a-lower").verdict is Verdict.FAIL


def test_verdict_unknown_tag():
    t = geometric_checkpoints(64)
    res = result_from(curve_from(t, [1.0 / x for x in t]))
    with pytest.raises(ValueError, match="unknown theorem tag"):
        theorem_verdict(res, "no-such-tag")


def test_verdict_at_precision_floor_is_inconclusive():
    # The tail of a zero-variance curve reached the float64 floor, so the rate fit
    # has no positive means to take logs of; the verdict says so instead of raising.
    t = geometric_checkpoints(2048)
    res = result_from(curve_from(t, [0.9 ** x if x < 1024 else 0.0 for x in t]), T=2048)
    report = theorem_verdict(res, "Thm3-linear-rate")
    assert report.tag == "Thm3-linear-rate"
    assert report.verdict is Verdict.INCONCLUSIVE
    assert report.details == {"reason": "rate fits need strictly positive means in the window"}



def test_verdict_outside_the_bracket_names_the_condition():
    # A probe run may use a step past sigma_psi / (2 L), where the bracket has no meaning.
    t = geometric_checkpoints(64)
    res = result_from(curve_from(t, [0.5 ** x for x in t]), schedule=ConstantStep(0.6))
    report = theorem_verdict(res, "Thm3-linear-rate")
    assert report.verdict is Verdict.INCONCLUSIVE
    assert report.details == {"reason": "bracket needs eta1 < sigma_psi / (2 L)"}

# -- the theorem table ------------------------------------------------------------------------

def test_necessity_probe_is_an_alias():
    assert THEOREMS["Thm2-necessity-probe"] is THEOREMS["Thm2-necessity-sum"]


def test_verdict_reports_the_requested_tag():
    t = geometric_checkpoints(2048)
    res = result_from(curve_from(t, [1.0 / x for x in t]), T=2048)
    for tag in THEOREMS:
        assert theorem_verdict(res, tag).tag == tag


@pytest.mark.parametrize("tag", sorted(tag for tag, spec in THEOREMS.items() if spec.probe))
def test_probe_theorems_require_the_flag(tag):
    constants = result_from(curve_from([1, 2], [1.0, 0.5])).constants
    with pytest.raises(RegimeError, match="violation_probe"):
        assert_step_regime(tag, PolynomialDecay(0.05, 2.0), constants)


@pytest.mark.parametrize("tag", sorted(tag for tag, spec in THEOREMS.items() if not spec.probe))
def test_flag_skips_the_regime_of_other_theorems(tag):
    constants = result_from(curve_from([1, 2], [1.0, 0.5])).constants
    with pytest.raises(RegimeError, match=re.escape(tag)):
        assert_step_regime(tag, ConstantStep(100.0), constants)
    assert_step_regime(tag, ConstantStep(100.0), constants, violation_probe=True)


def test_readme_names_exactly_the_registered_tags():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = readme.split("Registered tags", 1)[1].split("\n\n", 1)[0]
    assert sorted(re.findall(r"`(Thm[^`]*)`", paragraph)) == sorted(THEOREMS)


CONFIG_KINDS = [("schedule", cls.kind, cls) for cls in (ConstantStep, PolynomialDecay, TheoremRate)] + [
    ("map", "euclidean", EuclideanMap),
    ("map", "pnorm", PNormMap),
    ("map", "smoothed_l1", SmoothedL1Map),
    ("source", "orthonormal", DiscreteFiniteSource),
    ("source", "gaussian_linear", GaussianLinearSource),
]


@pytest.mark.parametrize("key,kind,cls", CONFIG_KINDS, ids=[cls.__name__ for _, _, cls in CONFIG_KINDS])
def test_schedule_kind_is_its_config_value(key, kind, cls):
    if key == "schedule":
        assert "kind" not in {f.name for f in dataclasses.fields(cls)}
    exp = build_experiment(with_overrides(ExperimentConfig(), **{key: kind}))
    assert type(getattr(exp, "mirror" if key == "map" else key)) is cls


@pytest.mark.parametrize("key", ["map", "source", "schedule"])
def test_config_kinds_are_their_tables(key):
    table = {"map": config._MAPS, "source": config._SOURCES, "schedule": config._SCHEDULES}[key]
    assert {kind for k, kind, _ in CONFIG_KINDS if k == key} == set(table)
    with pytest.raises(ConfigError, match=f"unknown {key} kind 'nope'"):
        with_overrides(ExperimentConfig(), **{key: "nope"})
