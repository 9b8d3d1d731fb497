"""Theorem-level verifiers: rate fitting, bound evaluation, identity
residuals, the non-strong-smoothness witness, and pass/fail verdicts.

``THEOREMS`` is the one registry of theorem tags: each tag maps to a
``TheoremSpec`` holding its step-size regime check, its verdict rule and
whether it is a violation probe.  ``assert_step_regime`` and
``theorem_verdict`` are lookups in that table.

``kaczmarz_moments``, the exact E[D(w*, w_t)] of the Euclidean least-squares
case, steps the error's mean and second moment as d x d arrays through the
operators a source returns once (``kaczmarz_operators``), never its atoms.

Verdicts on Monte Carlo curves use 2x standard-error margins: a claim that
only holds (or only fails) inside the error band is reported Inconclusive
rather than Fail, since the underlying statements concern exact
expectations.  A curve a rule cannot score (a fit window at the float64
floor, a missing checkpoint) is Inconclusive too, with the reason attached.
"""

import enum
import math
from typing import Callable, NamedTuple

import numpy as np

from .geometry import as_points, as_result, as_vector, check_interval, dual_exponent, p_norm, row_inner
from .losses import LeastSquares, LossModel
from .mirror_maps import MirrorMap, pnorm_bregman, pnorm_gradient
from .sources import DiscreteFiniteSource, Sample, VarianceRegime, _discrete, minimizer
from .engine import (
    ExpectationCurve,
    MonteCarloResult,
    RegimeError,
    ResolvedConstants,
    StepSchedule,
    _checked_checkpoints,
    omd_step,
)

__all__ = [
    "RateFit",
    "fit_rate",
    "fit_decay_rate",
    "BoundBracket",
    "linear_rate_bracket",
    "nonconvergence_floor",
    "key_identity_residual",
    "kaczmarz_moments",
    "duality_residual",
    "nonsmoothness_witness",
    "cocoercivity_margin",
    "Verdict",
    "VerdictReport",
    "ExperimentResult",
    "TheoremSpec",
    "THEOREMS",
    "assert_step_regime",
    "theorem_verdict",
]


# -- rate fitting -----------------------------------------------------------------

class RateFit(NamedTuple):
    slope: float
    intercept: float
    r_squared: float
    t_min: int
    t_max: int
    n_points: int


def _fit_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    # The centered closed form: within a few ulps of exact least squares, where
    # np.polyfit's SVD (a LAPACK call) strays by hundreds.
    x_mean, y_mean = float(x.mean()), float(y.mean())
    x_c, y_c = x - x_mean, y - y_mean
    slope = float(x_c @ y_c) / float(x_c @ x_c)
    intercept = y_mean - slope * x_mean
    resid = y - (slope * x + intercept)
    ss_res = float(resid @ resid)
    ss_tot = float(y_c @ y_c)
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return slope, intercept, r2


def _curve_window(curve: ExpectationCurve, t_min: int, t_max: int):
    sel = (curve.checkpoints >= t_min) & (curve.checkpoints <= t_max)
    t = curve.checkpoints[sel].astype(np.float64)
    m = curve.mean[sel]
    if t.size < 4:
        raise ValueError(f"need at least 4 checkpoints in [{t_min}, {t_max}], found {t.size}")
    if not (m > 0.0).all():
        raise ValueError("rate fits need strictly positive means in the window")
    return t, m


def fit_rate(curve: ExpectationCurve, t_min: int, t_max: int) -> RateFit:
    """Least-squares line through (log t, log mean): a power-law exponent."""
    t, m = _curve_window(curve, t_min, t_max)
    slope, intercept, r2 = _fit_line(np.log(t), np.log(m))
    return RateFit(slope, intercept, r2, int(t_min), int(t_max), t.size)


def fit_decay_rate(curve: ExpectationCurve, t_min: int, t_max: int) -> RateFit:
    """Least-squares line through (t, log mean): a per-iteration geometric rate."""
    t, m = _curve_window(curve, t_min, t_max)
    slope, intercept, r2 = _fit_line(t, np.log(m))
    return RateFit(slope, intercept, r2, int(t_min), int(t_max), t.size)


# -- theoretical bounds -------------------------------------------------------------

class BoundBracket(NamedTuple):
    """Geometric lower/upper envelopes for the zero-variance constant-step regime.

    ``steps`` counts update steps, so an iterate with index t corresponds to
    steps = t - 1.  ``lo_factor`` = 1 - 2 L eta1 / sigma_psi and ``hi_factor``
    = 1 - sigma_f eta1 / 2 are the per-step contraction factors of the lower
    and upper envelopes.
    """

    steps: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    lo_factor: float
    hi_factor: float


def linear_rate_bracket(
    sigma_psi: float,
    smooth_L: float,
    sigma_f: float,
    eta1: float,
    d1: float,
    steps,
) -> BoundBracket:
    check_interval("eta1", eta1, 0.0, math.inf)
    if not eta1 < sigma_psi / (2.0 * smooth_L):
        raise ValueError("bracket needs eta1 < sigma_psi / (2 L)")
    if not sigma_f * eta1 < 2.0:
        raise ValueError("bracket needs sigma_f * eta1 < 2")
    check_interval("d1", d1, 0.0, math.inf, closed_low=True)
    steps = np.asarray(steps, dtype=np.int64)
    if (steps < 0).any():
        raise ValueError("step counts must be nonnegative")
    lo_factor = 1.0 - 2.0 * smooth_L * eta1 / sigma_psi
    hi_factor = 1.0 - 0.5 * sigma_f * eta1
    lower = lo_factor ** steps * d1
    upper = hi_factor ** steps * d1
    if (lower > upper + 1e-15 * max(d1, 1.0)).any():
        raise ValueError("inconsistent constants: lower envelope exceeds upper")
    return BoundBracket(steps, lower, upper, lo_factor, hi_factor)


def nonconvergence_floor(
    a: float,
    schedule: StepSchedule,
    d_ref: float,
    t0: int,
    T: int,
) -> float:
    """exp(-2a sum_{t=t0+1}^T eta_t) * d_ref — a certified floor under a
    summable schedule, valid while eta_t <= 1/(3a) from t0 on."""
    check_interval("a", a, 0.0, math.inf)
    check_interval("d_ref", d_ref, 0.0, math.inf, closed_low=True)
    t0, T = int(t0), int(T)
    if t0 < 1 or T < t0:
        raise ValueError("need 1 <= t0 <= T")
    bound = 1.0 / (3.0 * a)
    etas = np.array([schedule(t) for t in range(t0, T + 1)])
    if (etas > bound + 1e-12).any():
        raise ValueError(f"floor bound needs eta_t <= 1/(3a) = {bound!r} for t >= t0")
    total = float(etas[1:].sum())  # t = t0 + 1 .. T
    return math.exp(-2.0 * a * total) * d_ref


# -- identity residuals ---------------------------------------------------------------

def key_identity_residual(
    mirror: MirrorMap,
    model: LossModel,
    source: DiscreteFiniteSource,
    w_t,
    eta: float,
    w_star=None,
) -> float | np.ndarray:
    """|E_z[D(w*, w+)] - D(w*, w) - eta <w* - w, grad F(w)> - E_z[D(w, w+)]|,
    both sides as exact weighted sums over the support.

    ``w_t`` may be a stack of points, with ``eta`` one step or one per row;
    each row takes one stacked step over all atoms.
    """
    return as_result(_key_identity_with_step(mirror, model, source, w_t, eta, w_star)[0])


def _key_identity_with_step(mirror, model, source, w_t, eta, w_star):
    """``key_identity_residual`` with the step it took, for a scale of its
    rounding: the residual, the steps W_next from each point to every atom,
    and grad F(w)."""
    source = _discrete(source, "the exact one-step identity")
    w_t = as_points(w_t)
    w_star = minimizer(source, model) if w_star is None else as_vector(w_star)
    eta = np.asarray(eta, dtype=np.float64)
    W = w_t[..., None, :]  # each point against every atom
    W_next = omd_step(mirror, model, W, source.X, source.y, eta[..., None, None])
    e_next = mirror.bregman(w_star, W_next) @ source.probs
    e_move = mirror.bregman(W, W_next) @ source.probs
    grad_f = source.probs @ model.gradient(W, source.X, source.y)
    rhs = eta * row_inner(w_star - w_t, grad_f) + e_move
    return abs(e_next - mirror.bregman(w_star, w_t) - rhs), W_next, grad_f


def kaczmarz_moments(
    source: DiscreteFiniteSource,
    model: LossModel,
    schedule: StepSchedule,
    w1,
    w_star,
    T: int,
    checkpoints,
) -> np.ndarray:
    """The exact E[D(w*, w_t)] at each checkpoint of least-squares OMD under
    the Euclidean map (randomized Kaczmarz) on a discrete source.

    The error e = w - w* takes the affine step e <- a e - eta P e + eta g, with
    a = 1 - 2 eta lam, P = x x^T, g = xi x - 2 lam w* and xi = y - <x, w*>.
    The mean m and the second moment S = E[e e^T] step through the source's
    ``kaczmarz_operators``, read once:
    m <- a m - eta E[P] m + eta E[g] and
    S <- a^2 S - a eta (E[P] S + S E[P]) + eta^2 E[P S P] + K + K^T + eta^2 E[g g^T],
    with K = eta (a m E[g]^T - eta E[P m g^T]); E[D(w*, w_t)] = (1/2) tr S_t
    carries no Monte Carlo error.
    """
    source = _discrete(source, "the exact Kaczmarz moment recursion")
    if not isinstance(model.loss, LeastSquares):
        raise ValueError("the exact moments need the least-squares loss")
    cps = _checked_checkpoints(checkpoints, int(T))
    w1, w_star = as_vector(w1), as_vector(w_star)
    C, Eg, PP, PPg, Egg = source.kaczmarz_operators(model.lam, w_star)
    d = C.shape[0]
    # Every axis pair of E[P (x) P], and the two x axes of E[x (x) x (x) g], are
    # symmetric, so a flattened contraction gives E[P S P] and E[P m g^T].
    PP, PPg = PP.reshape(d * d, d * d), PPg.reshape(d, d * d)
    m = w1 - w_star
    S = np.outer(m, m)
    out = []
    for t in range(1, cps[-1] + 1):
        if t > 1:  # the step with eta_{t-1} that makes iterate t
            eta = float(schedule(t - 1))
            a = 1.0 - 2.0 * eta * model.lam
            CS = C @ S
            K = eta * (a * np.outer(m, Eg) - eta * (m @ PPg).reshape(d, d))
            S = (a * a * S - a * eta * (CS + CS.T) + eta * eta * (PP @ S.reshape(-1)).reshape(d, d)
                 + K + K.T + eta * eta * Egg)
            m = a * m - eta * (C @ m) + eta * Eg
        if t in cps:
            out.append(0.5 * np.trace(S))
    return np.array(out)


def duality_residual(p: float, w, w_tilde) -> float | np.ndarray:
    """|D_p(w, wt) - D_q(grad_p(wt), grad_p(w))| with q the dual exponent of p,
    for two points or row-wise for stacks."""
    p = check_interval("p", p, 1.0, 2.0, closed_high=True)
    w, w_tilde = as_points(w), as_points(w_tilde)
    primal = pnorm_bregman(w, w_tilde, p)
    q = dual_exponent(p)
    dual = pnorm_bregman(pnorm_gradient(w_tilde, p), pnorm_gradient(w, p), q)
    return abs(primal - dual)


def nonsmoothness_witness(p: float, d: int, a: float) -> float:
    """Implied smoothness modulus 2 D_p(wt, w) / ||wt - w||_p^2 for a witness
    family that degenerates as a grows.

    The base point is the first coordinate vector, whose zero coordinates are
    exactly where the squared-p-norm Hessian blows up for p < 2; the probe
    perturbs them by alternating-sign increments of size 1/a (d - 1 of them,
    which distinguishes the even- and odd-d patterns).  For p = 2 the ratio
    is identically 1; for p < 2 it grows like a^(2-p), so no finite modulus
    works in dimension > 1.
    """
    p = check_interval("p", p, 1.0, 2.0, closed_high=True)
    d = int(d)
    if d < 2:
        raise ValueError("the witness needs dimension d >= 2")
    check_interval("witness scale a", a, 1.0, math.inf, closed_low=True)
    w = np.zeros(d)
    w[0] = 1.0
    signs = np.array([(-1.0) ** j for j in range(d - 1)])
    w_tilde = w.copy()
    w_tilde[1:] = signs / a
    return 2.0 * pnorm_bregman(w_tilde, w, p) / p_norm(w_tilde - w, p) ** 2


def cocoercivity_margin(
    model: LossModel,
    z: Sample,
    w,
    w_tilde,
    L: float,
    q: float = 2.0,
) -> float | np.ndarray:
    """<w - wt, grad f(w,z) - grad f(wt,z)> - ||grad diff||_q^2 / L (>= 0 for
    convex losses that are L-strongly smooth in the dual q-norm).

    Takes one sample and two points, or acts row-wise on stacks: ``z.x`` a
    stack of features, ``z.y`` their labels, and w, wt points or stacks.
    """
    if not model.loss.convex:
        raise ValueError(f"co-coercivity needs a convex loss, got {model.loss!r}")
    check_interval("L", L, 0.0, math.inf)
    w, w_tilde = as_points(w), as_points(w_tilde)
    dg = model.gradient(w, z.x, z.y) - model.gradient(w_tilde, z.x, z.y)
    return as_result(row_inner(w - w_tilde, dg) - p_norm(dg, q) ** 2 / L)


# -- verdicts -----------------------------------------------------------------------

class Verdict(enum.Enum):
    PASS = "Pass"
    FAIL = "Fail"
    INCONCLUSIVE = "Inconclusive"


class VerdictReport(NamedTuple):
    tag: str
    verdict: Verdict
    details: dict


class ExperimentResult(NamedTuple):
    """Everything a verdict rule may consult after a Monte Carlo experiment."""

    mc: MonteCarloResult
    constants: ResolvedConstants
    schedule: StepSchedule
    T: int
    d1: float
    w_star: np.ndarray  # the minimizer the curve measures distance to

    @property
    def curve(self) -> ExpectationCurve:
        return self.mc.curve


def _margin_verdict(strict_pass: bool, strict_fail: bool) -> Verdict:
    if strict_pass:
        return Verdict.PASS
    if strict_fail:
        return Verdict.FAIL
    return Verdict.INCONCLUSIVE


def _at(curve: ExpectationCurve, t: int) -> tuple[float, float]:
    idx = np.nonzero(curve.checkpoints == t)[0]
    if idx.size != 1:
        raise ValueError(f"checkpoint t={t} not recorded")
    i = int(idx[0])
    return float(curve.mean[i]), float(curve.std_err[i])


def _index_at_least(curve: ExpectationCurve, t: int) -> int:
    idx = np.nonzero(curve.checkpoints >= t)[0]
    if idx.size == 0:
        raise ValueError(f"no checkpoint at or after t={t}")
    return int(idx[0])


def _first_checkpoint_at_least(curve: ExpectationCurve, t: int) -> int:
    return int(curve.checkpoints[_index_at_least(curve, t)])


def _verdict_linear_rate(res: ExperimentResult) -> tuple[Verdict, dict]:
    c = res.constants
    if c.sigma_f is None:
        raise ValueError("linear-rate verdict needs a resolvable sigma_f")
    eta1 = res.schedule(1)
    sel = res.curve.checkpoints >= 8
    ts = res.curve.checkpoints[sel]
    # The bracket refuses a step outside its conditions, so both factors lie in (0, 1].
    bracket = linear_rate_bracket(c.sigma_psi, c.smooth_L, c.sigma_f, eta1, res.d1, ts - 1)
    lo_log = math.log(bracket.lo_factor)
    hi_log = math.log(bracket.hi_factor)
    fit = fit_decay_rate(res.curve, 8, res.T)
    mean = res.curve.mean[sel]
    se = res.curve.std_err[sel]
    # An iterate within eps max(1, |w*|_inf) of w* in every coordinate, about
    # as close as float64 resolves, is within (L_psi / 2) d (eps max(1, |w*|_inf))^2
    # of it in Bregman distance; a window under twice that is rounding, not a rate.
    w_star = as_vector(res.w_star)
    resolution = float(np.finfo(np.float64).eps) * max(1.0, float(np.abs(w_star).max()))
    floor = c.map_smoothness * w_star.size * resolution ** 2
    if (mean <= floor).all():
        raise ValueError(f"every mean in the window lies under the float64 floor {floor!r}")
    slope_ok = (lo_log - 0.02) <= fit.slope <= (hi_log + 0.02)
    inside = (mean >= bracket.lower - 2.0 * se) & (mean <= bracket.upper + 2.0 * se)
    verdict = Verdict.PASS if (slope_ok and inside.all()) else Verdict.FAIL
    return verdict, {"slope": fit.slope, "slope_low": lo_log, "slope_high": hi_log,
                     "bracket_contained": bool(inside.all())}


def _verdict_one_over_t(res: ExperimentResult) -> tuple[Verdict, dict]:
    t_min = max(32, res.T // 16)
    fit = fit_rate(res.curve, t_min, res.T)
    ok = (-1.25 <= fit.slope <= -0.75) and fit.r_squared >= 0.95
    details = {"slope": fit.slope, "r_squared": fit.r_squared, "t_min": t_min}
    return Verdict.PASS if ok else Verdict.FAIL, details


def _verdict_lower_rate(res: ExperimentResult) -> tuple[Verdict, dict]:
    grid_start = _first_checkpoint_at_least(res.curve, max(1, res.T // 8))
    sel = res.curve.checkpoints >= grid_start
    if sel.sum() < 2:
        raise ValueError(f"the window from t={grid_start} holds fewer than 2 checkpoints")
    ts = res.curve.checkpoints[sel].astype(np.float64)
    mean = res.curve.mean[sel]
    se = res.curve.std_err[sel]
    scaled = ts * mean
    strict_pass = float((ts * (mean - 2.0 * se)).min()) >= 0.5 * float(ts[0] * (mean[0] + 2.0 * se[0]))
    strict_fail = float((ts * (mean + 2.0 * se)).min()) < 0.5 * float(ts[0] * (mean[0] - 2.0 * se[0]))
    details = {"min_scaled": float(scaled.min()), "ref_scaled": float(scaled[0]), "grid_start": grid_start}
    return _margin_verdict(strict_pass, strict_fail), details


def _verdict_convergence(res: ExperimentResult) -> tuple[Verdict, dict]:
    factor = 0.1
    t_ref = _first_checkpoint_at_least(res.curve, 8)
    ref, ref_se = _at(res.curve, t_ref)
    final, final_se = _at(res.curve, int(res.curve.checkpoints[-1]))
    strict_pass = final + 2.0 * final_se <= factor * max(ref - 2.0 * ref_se, 0.0)
    strict_fail = final - 2.0 * final_se > factor * (ref + 2.0 * ref_se)
    details = {"reference_t": t_ref, "reference": ref, "final": final, "factor": factor}
    return _margin_verdict(strict_pass, strict_fail), details


def _verdict_necessity_sum(res: ExperimentResult) -> tuple[Verdict, dict]:
    t0 = 1
    d_ref, _ = _at(res.curve, t0 + 1)
    floor = nonconvergence_floor(res.constants.growth_a, res.schedule, d_ref, t0, res.T)
    final, final_se = _at(res.curve, res.T)
    ok = final >= 0.9 * floor - 2.0 * final_se
    return Verdict.PASS if ok else Verdict.FAIL, {"floor": floor, "final": final, "d_ref": d_ref}


def _verdict_necessity_limit(res: ExperimentResult) -> tuple[Verdict, dict]:
    t_ref = _first_checkpoint_at_least(res.curve, 8)
    ref, ref_se = _at(res.curve, t_ref)
    sel = res.curve.checkpoints >= max(1, res.T // 8)
    mean = res.curve.mean[sel]
    se = res.curve.std_err[sel]
    thr = 0.25 * ref
    strict_pass = float((mean - 2.0 * se).min()) >= 0.25 * (ref + 2.0 * ref_se)
    strict_fail = float((mean + 2.0 * se).min()) < 0.25 * max(ref - 2.0 * ref_se, 0.0)
    details = {"plateau_min": float(mean.min()), "threshold": thr, "reference_t": t_ref}
    return _margin_verdict(strict_pass, strict_fail), details


def _verdict_almost_sure(res: ExperimentResult) -> tuple[Verdict, dict]:
    curve = res.curve
    values = res.mc.values
    if curve.run_count < res.mc.n_runs:  # the curve left the diverged runs out
        values = np.delete(values, res.mc.diverged_runs, axis=0)
    i_ref = _index_at_least(curve, 16)
    t_ref = int(curve.checkpoints[i_ref])
    i_final = len(curve.checkpoints) - 1
    i_mid = _index_at_least(curve, max(1, res.T // 4))
    ref_vals = values[:, i_ref]
    final_vals = values[:, i_final]
    frac = float((final_vals <= 0.05 * ref_vals).mean())
    max_decreases = float(values[:, i_mid].max()) > float(final_vals.max())
    ok = frac >= 0.95 and max_decreases
    details = {"per_run_fraction": frac, "max_run_decreases": max_decreases, "reference_t": t_ref}
    return Verdict.PASS if ok else Verdict.FAIL, details


# -- step-size regimes ------------------------------------------------------------------

def _require_positive_variance(tag: str, variance: VarianceRegime | None) -> None:
    if variance is not None and variance is not VarianceRegime.POSITIVE:
        raise RegimeError(f"{tag} needs a positive-variance source")


def _regime_linear_rate(tag, schedule, c, kappa, variance) -> None:
    # Every schedule whose steps do not vanish (theta = 0) is constant.
    if schedule.limit_zero:
        raise RegimeError(f"{tag} needs a constant schedule")
    eta = schedule(1)
    limit = c.sigma_psi / (2.0 * c.smooth_L)
    if not eta < limit:
        raise RegimeError(f"{tag} needs eta < sigma_psi/(2L) = {limit!r}")
    cap = c.sigma_psi / ((2.0 + kappa) * c.smooth_L)
    if eta > cap + 1e-12:
        raise RegimeError(f"{tag} needs eta <= sigma_psi/((2+kappa)L) = {cap!r}")
    if variance is not None and variance is not VarianceRegime.ZERO:
        raise RegimeError(f"{tag} needs a zero-variance source")


def _regime_one_over_t(tag, schedule, c, kappa, variance) -> None:
    # The theorem rate is the member c = 4, theta = 1, shift = 1, scale = sigma_f.
    if (schedule.c, schedule.theta, schedule.shift) != (4.0, 1.0, 1.0):
        raise RegimeError(f"{tag} needs the 4/((t+1) sigma_f) schedule")
    if c.sigma_f is None:
        raise RegimeError(f"{tag} needs a strongly smooth map with a resolvable sigma_f")
    if schedule.scale > c.sigma_f * (1.0 + 1e-9):
        raise RegimeError(
            f"schedule sigma_f {schedule.scale!r} exceeds the resolved value {c.sigma_f!r}"
        )
    _require_positive_variance(tag, variance)


def _regime_lower_rate(tag, schedule, c, kappa, variance) -> None:
    if not schedule.limit_zero:
        raise RegimeError(f"{tag} needs lim eta_t = 0")
    if c.map_smoothness is None:
        raise RegimeError(f"{tag} needs a strongly smooth map")
    _require_positive_variance(tag, variance)


def _regime_convergence(tag, schedule, c, kappa, variance) -> None:
    if not (schedule.limit_zero and schedule.sum_infinite):
        raise RegimeError(f"{tag} needs lim eta_t = 0 and sum eta_t = inf")


def _regime_summable(tag, schedule, c, kappa, variance) -> None:
    if schedule.sum_infinite:
        raise RegimeError(f"{tag} needs a summable schedule (sum eta_t < inf)")
    bound = 1.0 / (3.0 * c.growth_a)
    first = schedule(1)  # every schedule is nonincreasing: its largest step
    if first > bound + 1e-12:
        raise RegimeError(
            f"{tag} needs eta_t <= 1/(3a) = {bound!r} for the floor bound, "
            f"got max step {first!r}"
        )


def _regime_nonvanishing(tag, schedule, c, kappa, variance) -> None:
    if schedule.limit_zero:
        raise RegimeError(f"{tag} needs a schedule with lim eta_t != 0")
    _require_positive_variance(tag, variance)


def _regime_almost_sure(tag, schedule, c, kappa, variance) -> None:
    if not (schedule.sum_infinite and schedule.sum_squares_finite):
        raise RegimeError(f"{tag} needs sum eta_t = inf and sum eta_t^2 < inf")


# -- the theorem table ----------------------------------------------------------------

class TheoremSpec(NamedTuple):
    """One registered theorem.

    ``regime(tag, schedule, constants, kappa, variance)`` raises RegimeError
    outside the step-size regime the theorem needs; ``verdict(result)`` scores
    a curve as ``(Verdict, details)`` and raises ValueError on a curve it
    cannot score.  A probe theorem runs a deliberately non-convergent
    schedule, so it requires ``violation_probe``; for the others that flag
    skips the regime check.
    """

    probe: bool
    regime: Callable[..., None]
    verdict: Callable[[ExperimentResult], tuple[Verdict, dict]]


_NECESSITY_SUM = TheoremSpec(True, _regime_summable, _verdict_necessity_sum)

THEOREMS: dict[str, TheoremSpec] = {
    "Thm3-linear-rate": TheoremSpec(False, _regime_linear_rate, _verdict_linear_rate),
    "Thm2b-rate": TheoremSpec(False, _regime_one_over_t, _verdict_one_over_t),
    "Thm2a-lower": TheoremSpec(False, _regime_lower_rate, _verdict_lower_rate),
    "Thm2-sufficiency": TheoremSpec(False, _regime_convergence, _verdict_convergence),
    "Thm1a-pnorm": TheoremSpec(False, _regime_convergence, _verdict_convergence),
    "Thm2-necessity-sum": _NECESSITY_SUM,
    "Thm2-necessity-probe": _NECESSITY_SUM,  # alias kept for existing configs
    "Thm2-necessity-limit": TheoremSpec(True, _regime_nonvanishing, _verdict_necessity_limit),
    "Thm4-as": TheoremSpec(False, _regime_almost_sure, _verdict_almost_sure),
}


def assert_step_regime(
    tag: str,
    schedule: StepSchedule,
    constants: ResolvedConstants,
    kappa: float = 1.0,
    violation_probe: bool = False,
    variance: VarianceRegime | None = None,
) -> None:
    """Refuse schedules outside the regime the tagged theorem requires."""
    spec = THEOREMS.get(tag)
    if spec is None:
        raise RegimeError(f"unknown theorem tag {tag!r}")
    if spec.probe and not violation_probe:
        raise RegimeError(f"{tag} runs a non-convergent schedule; set violation_probe")
    if spec.probe or not violation_probe:
        spec.regime(tag, schedule, constants, kappa, variance)


def theorem_verdict(result: ExperimentResult, tag: str) -> VerdictReport:
    """Score the curve against the tagged theorem; a curve the rule cannot
    score is Inconclusive, with the reason in the details."""
    try:
        rule = THEOREMS[tag].verdict
    except KeyError:
        raise ValueError(f"unknown theorem tag {tag!r}") from None
    try:
        verdict, details = rule(result)
    except ValueError as exc:
        verdict, details = Verdict.INCONCLUSIVE, {"reason": str(exc)}
    return VerdictReport(tag, verdict, details)
