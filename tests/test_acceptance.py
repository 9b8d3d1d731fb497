"""End-to-end acceptance suite.

Each test exercises one acceptance criterion at its stated tolerance and
prints a single PASS line on success (run with ``pytest -v -s`` to see
them).  The noisy-source experiments share module-scoped fixtures so that
each Monte Carlo sweep runs once.
"""

import math
import time

import numpy as np
import pytest

import omdkit as k
from omdkit.cli import omega_table
from omdkit.config import _rotation
from omdkit.diagnostics import (
    ExperimentResult,
    Verdict,
    linear_rate_bracket,
    nonconvergence_floor,
    nonsmoothness_witness,
    theorem_verdict,
)
from omdkit.verification import run_verification

MODEL = k.LossModel(k.LeastSquares())
EUCLID = k.EuclideanMap()


def report(criterion: int, text: str) -> None:
    print(f"criterion {criterion:2d}: PASS - {text}")


def eight_atom_source(label_noise=0.0):
    w_star = np.array([0.8, -0.45, 0.3, 0.25])
    return k.orthonormal_atom_source(
        np.eye(4), [0.15, 0.15, 0.1, 0.1], w_star, label_noise=label_noise
    )


def timed_curve(mirror, model, source, schedule, w1, T, n_runs, base_seed, w_star):
    start = time.perf_counter()
    mc = k.monte_carlo_curve(
        mirror, model, source, schedule, w1, T, k.geometric_checkpoints(T),
        n_runs=n_runs, base_seed=base_seed, w_star=w_star, workers=1,
    )
    return mc, time.perf_counter() - start


@pytest.fixture(scope="module")
def noisy_setup():
    source = eight_atom_source(label_noise=1.0)
    w_star = k.minimizer(source, MODEL)
    constants = k.resolve_constants(EUCLID, MODEL, source)
    assert k.classify_variance(source, MODEL, w_star) is k.VarianceRegime.POSITIVE
    return source, w_star, constants


@pytest.fixture(scope="module")
def theorem_rate_run(noisy_setup):
    source, w_star, constants = noisy_setup
    schedule = k.TheoremRate(constants.sigma_f)
    mc, elapsed = timed_curve(EUCLID, MODEL, source, schedule, np.zeros(4), 2048, 1000, 2000, w_star)
    d1 = EUCLID.bregman(w_star, np.zeros(4))
    res = ExperimentResult(mc=mc, constants=constants, schedule=schedule, T=2048, d1=d1, w_star=w_star)
    return res, elapsed


def test_criterion_1_identity_suite():
    start = time.perf_counter()
    results = run_verification()
    elapsed = time.perf_counter() - start
    failures = [r.name for r in results if not r.passed]
    assert failures == []
    assert elapsed < 30.0
    report(1, f"identity suite green ({len(results)} checks in {elapsed:.1f}s)")


def test_criterion_2_linear_rate_bracket():
    source = eight_atom_source()
    w_star = k.minimizer(source, MODEL)
    assert k.classify_variance(source, MODEL, w_star) is k.VarianceRegime.ZERO
    constants = k.resolve_constants(EUCLID, MODEL, source)
    assert constants.radius == 1.0 and constants.lambda_min >= 0.1
    eta = 0.1
    assert eta < constants.sigma_psi / (2.0 * constants.smooth_L) == 0.5
    schedule = k.ConstantStep(eta)
    k.assert_step_regime("Thm3-linear-rate", schedule, constants, variance=k.VarianceRegime.ZERO)
    w1 = np.zeros(4)
    mc, elapsed = timed_curve(EUCLID, MODEL, source, schedule, w1, 100, 500, 1234, w_star)
    assert elapsed < 10.0

    from omdkit.diagnostics import fit_decay_rate

    fit = fit_decay_rate(mc.curve, 8, 100)
    lo = math.log(1.0 - 2.0 * constants.smooth_L * eta / constants.sigma_psi)
    hi = math.log(1.0 - 0.5 * constants.sigma_f * eta)
    assert lo - 0.02 <= fit.slope <= hi + 0.02

    d1 = EUCLID.bregman(w_star, w1)
    sel = mc.curve.checkpoints >= 8
    bracket = linear_rate_bracket(
        constants.sigma_psi, constants.smooth_L, constants.sigma_f, eta, d1,
        mc.curve.checkpoints[sel] - 1,
    )
    mean, se = mc.curve.mean[sel], mc.curve.std_err[sel]
    assert (mean >= bracket.lower - 2.0 * se).all()
    assert (mean <= bracket.upper + 2.0 * se).all()

    res = ExperimentResult(mc=mc, constants=constants, schedule=schedule, T=100, d1=d1, w_star=w_star)
    assert theorem_verdict(res, "Thm3-linear-rate").verdict is Verdict.PASS
    report(2, f"slope {fit.slope:.4f} in [{lo:.4f}, {hi:.4f}] +- 0.02, curve inside bracket ({elapsed:.1f}s)")


def test_criterion_3_one_over_t_rate(theorem_rate_run):
    res, elapsed = theorem_rate_run
    assert elapsed < 60.0
    fit = k.fit_rate(res.curve, 128, 2048)
    assert -1.25 <= fit.slope <= -0.75
    assert fit.r_squared >= 0.95
    assert theorem_verdict(res, "Thm2b-rate").verdict is Verdict.PASS
    report(3, f"fitted slope {fit.slope:.3f}, r^2 {fit.r_squared:.4f} ({elapsed:.1f}s)")


def test_criterion_4_lower_rate(theorem_rate_run):
    res, _ = theorem_rate_run
    curve = res.curve
    grid = [256, 512, 1024, 2048]
    scaled = {t: t * float(curve.mean[curve.checkpoints == t][0]) for t in grid}
    ref = scaled[256]
    assert min(scaled.values()) >= 0.5 * ref
    assert theorem_verdict(res, "Thm2a-lower").verdict is Verdict.PASS
    report(4, f"min t*mean = {min(scaled.values()):.2f} >= 0.5 * {ref:.2f}")


def test_criterion_5_necessity_of_divergent_step_sum(noisy_setup):
    source, w_star, constants = noisy_setup
    schedule = k.PolynomialDecay(0.05, 2.0)
    assert schedule(1) <= 1.0 / (3.0 * constants.growth_a)
    k.assert_step_regime("Thm2-necessity-sum", schedule, constants, violation_probe=True)
    mc, elapsed = timed_curve(EUCLID, MODEL, source, schedule, np.zeros(4), 2048, 500, 3000, w_star)
    assert elapsed < 60.0
    curve = mc.curve
    d_ref = float(curve.mean[curve.checkpoints == 2][0])
    floor = nonconvergence_floor(constants.growth_a, schedule, d_ref, 1, 2048)
    final = float(curve.mean[-1])
    final_se = float(curve.std_err[-1])
    assert final >= 0.9 * floor - 2.0 * final_se
    res = ExperimentResult(mc=mc, constants=constants, schedule=schedule, T=2048,
                           d1=EUCLID.bregman(w_star, np.zeros(4)), w_star=w_star)
    assert theorem_verdict(res, "Thm2-necessity-sum").verdict is Verdict.PASS
    report(5, f"mean(T) = {final:.4f} above floor {floor:.4f} ({elapsed:.1f}s)")


def test_criterion_6_necessity_of_vanishing_steps(noisy_setup):
    source, w_star, constants = noisy_setup
    schedule = k.ConstantStep(0.2)
    k.assert_step_regime("Thm2-necessity-limit", schedule, constants, violation_probe=True)
    mc, elapsed = timed_curve(EUCLID, MODEL, source, schedule, np.zeros(4), 2048, 500, 4000, w_star)
    curve = mc.curve
    ref = float(curve.mean[curve.checkpoints == 8][0])
    window = curve.mean[curve.checkpoints >= 256]
    assert (window >= 0.25 * ref).all()  # never decays below a quarter of mean(8)
    res = ExperimentResult(mc=mc, constants=constants, schedule=schedule, T=2048,
                           d1=EUCLID.bregman(w_star, np.zeros(4)), w_star=w_star)
    assert theorem_verdict(res, "Thm2-necessity-limit").verdict is Verdict.PASS
    report(6, f"plateau min {window.min():.4f} >= 0.25 * mean(8) = {0.25 * ref:.4f} ({elapsed:.1f}s)")


def test_criterion_7_almost_sure_convergence(noisy_setup):
    source, w_star, constants = noisy_setup
    schedule = k.PolynomialDecay(1.0 / constants.sigma_f, 1.0)
    assert schedule.sum_infinite and schedule.sum_squares_finite
    k.assert_step_regime("Thm4-as", schedule, constants)
    w1 = -w_star
    mc, elapsed = timed_curve(EUCLID, MODEL, source, schedule, w1, 4096, 200, 5000, w_star)
    assert elapsed < 90.0
    cps = list(mc.curve.checkpoints)
    i16, i1024, i4096 = cps.index(16), cps.index(1024), cps.index(4096)
    per_run_ok = mc.values[:, i4096] <= 0.05 * mc.values[:, i16]
    assert per_run_ok.mean() >= 0.95
    assert mc.values[:, i1024].max() > mc.values[:, i4096].max()
    res = ExperimentResult(mc=mc, constants=constants, schedule=schedule, T=4096,
                           d1=EUCLID.bregman(w_star, w1), w_star=w_star)
    assert theorem_verdict(res, "Thm4-as").verdict is Verdict.PASS
    report(7, f"{per_run_ok.mean():.1%} of runs below 5% of their t=16 value ({elapsed:.1f}s)")


def test_criterion_8_nonsmoothness_witness():
    start = time.perf_counter()
    grid = [1.0, 10.0, 100.0, 1000.0, 10000.0]
    for d in (2, 3):
        ratios = [nonsmoothness_witness(1.5, d, a) for a in grid]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] / ratios[0] > 10.0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    growth = nonsmoothness_witness(1.5, 2, 1e4) / nonsmoothness_witness(1.5, 2, 1.0)
    report(8, f"witness ratio grows {growth:.0f}x over the probe grid ({elapsed*1e3:.0f}ms)")


def test_criterion_9_control_function_table():
    table = omega_table(["4/3", "3/2", "2"], 3.0, 0.01)
    lines = table.strip().splitlines()
    ps = [4.0 / 3.0, 1.5, 2.0]
    taus = [2.0 / min(p, 3.0 - p) for p in ps]
    for line in lines[1:]:
        parts = [float(v) for v in line.split(",")]
        u, vals = parts[0], parts[1:]
        for val, p, t in zip(vals, ps, taus):
            closed = (u + 1.0 / t - 1.0) if u >= 1.0 else (u ** t) / t
            assert val == closed  # exact branch evaluation
    # continuity at u = 1: both branch formulas agree to 1e-15
    for t in taus:
        assert abs((1.0 + 1.0 / t - 1.0) - (1.0 ** t) / t) <= 1e-15
    cols = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    for j in range(1, cols.shape[1]):
        assert (np.diff(cols[:, j], 2) >= -1e-12).all()
    report(9, "control-function table matches the closed form, continuous and convex")


def test_criterion_10_kaczmarz_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(10_000):
        w = rng.standard_normal(4)
        x = rng.standard_normal(4)
        y = float(rng.standard_normal())
        eta = float(rng.uniform(0.01, 1.5))
        a = k.omd_step(EUCLID, MODEL, w, x, y, eta)
        b = k.kaczmarz_step(w, x, y, eta)
        worst = max(worst, float(np.abs(a - b).max()))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-15
    assert elapsed < 1.0
    report(10, f"max deviation {worst:.1e} over 10^4 random steps ({elapsed*1e3:.0f}ms)")


def test_criterion_11_pnorm_geometry_convergence():
    mirror = k.PNormMap(1.5)
    source = k.orthonormal_atom_source(
        _rotation(2, 7), [0.25, 0.25], np.array([1.1, -0.7]), scale=3.0, label_noise=0.15
    )
    w_star = k.minimizer(source, MODEL)
    assert k.classify_variance(source, MODEL, w_star, mirror.dual_p) is k.VarianceRegime.POSITIVE
    constants = k.resolve_constants(mirror, MODEL, source)
    schedule = k.PolynomialDecay(0.1, 1.0)
    k.assert_step_regime("Thm1a-pnorm", schedule, constants)
    w1 = np.zeros(2)
    mc, elapsed = timed_curve(mirror, MODEL, source, schedule, w1, 2048, 300, 6000, w_star)
    assert elapsed < 60.0
    curve = mc.curve
    ref = float(curve.mean[curve.checkpoints == 8][0])
    final = float(curve.mean[-1])
    assert final <= 0.1 * ref
    res = ExperimentResult(mc=mc, constants=constants, schedule=schedule, T=2048,
                           d1=mirror.bregman(w_star, w1), w_star=w_star)
    assert theorem_verdict(res, "Thm1a-pnorm").verdict is Verdict.PASS
    report(11, f"mean(2048) = {final:.5f} <= 0.1 * mean(8) = {0.1 * ref:.5f} ({elapsed:.1f}s)")
