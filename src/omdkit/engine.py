"""The online mirror-descent iteration, the step-size family, and a
deterministic Monte Carlo estimator of expected Bregman-distance curves.

Every step-size schedule is one ``StepSchedule``,
``eta_t = c * (scale * (t + shift))^(-theta)``, judged by its parameters
alone; ``ConstantStep``, ``PolynomialDecay`` and ``TheoremRate`` build its
three config spellings.

Each Monte Carlo run owns a counter-based random stream keyed by
``base_seed + run_index`` and draws its whole sample from it, so extending
``n_runs`` reproduces the existing runs exactly.  Runs step in even blocks,
as few as a byte budget for what each block's sampling holds allows: a block
advances as one ``(B, d)`` stack, one run per row, through the same map and
loss kernels a single point takes, and a row's values do not depend on which
other runs share its block.  The source's ``stream`` method draws a block's
samples a span of steps at a time and hands them over one step at a time,
bit for bit those ``draw_arrays`` gives each run's stream, so what a block
holds does not grow with T: up to 1,517 runs of a discrete source at d = 4
fit one block, and 640 of a Gaussian one at d = 3.  A run large enough to be
worth sharing out, whatever its source, is cut into blocks that the workers
share evenly.  Worker processes share out whole blocks, and only when there
are two or more.  A row's values do not depend on its block, so the
artifacts are identical at any worker count.  A checkpoint where every kept
run has the same distance, as at t = 1, reads that distance with a standard
error of 0.  Divergence (iterate norm beyond 1e12) flags a run instead of
raising: the run leaves its block's stacks, keeping the iterate that crossed
the guard and its distance, and stays in the averages unless explicitly
excluded.  There is one stepping loop and one step: ``run_trajectory`` is a
block of one row.  A block allocates its iterates, dual iterates and
gradient once and steps them in place: the loss gradient writes into the
gradient buffer and a p-norm map's inverse into the iterate buffer, through
their ``out`` arguments, so a p-norm step allocates only per-row temporaries
and one scratch stack.  The tests check the engine against an exact oracle,
``diagnostics.kaczmarz_moments``, and against an out-of-place loop.

The module also resolves the geometry and loss constants that a theorem's
step-size regime is checked against; the regimes themselves are registered
in ``diagnostics.THEOREMS``.
"""

import math
import os
from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from typing import NamedTuple, Sequence

import numpy as np

from .geometry import DIVERGENCE_LIMIT, as_vector, check_interval, row_inner
from .losses import LeastSquares, LossModel
from .mirror_maps import MirrorMap
from .sources import SampleSource
# perfbench's tracer wraps ``engine.draw_arrays``, so the engine keeps the name.
from .sources import draw_arrays  # noqa: F401

__all__ = [
    "ConstantStep",
    "PolynomialDecay",
    "TheoremRate",
    "StepSchedule",
    "omd_step",
    "kaczmarz_step",
    "geometric_checkpoints",
    "Trajectory",
    "run_trajectory",
    "ExpectationCurve",
    "MonteCarloResult",
    "AllRunsDiverged",
    "NonFiniteCurve",
    "monte_carlo_curve",
    "ResolvedConstants",
    "resolve_constants",
    "RegimeError",
]

# Byte budget for what a block's sampling holds at once, as each source's
# ``_stream_bytes`` counts it per run (its generators, ~600 B each, aside).
# For any T >= 257: 1,517 runs of a discrete source at d = 4, 640 of a
# Gaussian one at d = 3.
BLOCK_BYTES = 5 << 20
# Run-steps (runs x steps) worth a worker process of their own, whatever the
# source: a run shares out from 10^6 run-steps, 489 runs at T = 2048.  In a
# cold ``omdkit run --workers 2`` on 2 cores, two processes, pool start
# included, overtake one from about 0.6 M run-steps on the Gaussian p-norm
# benchmark config and 1.5 M on the discrete Euclidean one: the step's cost
# follows the map more than the source.
SHARE_STEPS = 500_000


@dataclass(frozen=True)
class StepSchedule:
    """eta_t = c * (scale * (t + shift))^(-theta), a nonincreasing step sequence.

    The predicates read ``theta`` alone and the largest step is
    ``schedule(1)``.  ``ConstantStep``, ``PolynomialDecay`` and
    ``TheoremRate`` build the config spellings, and equal parameters make
    equal schedules: ``ConstantStep(0.1) == PolynomialDecay(0.1, 0.0)``.
    """

    c: float
    theta: float
    shift: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        # At theta = 0, c is the step size itself; only the theorem rate sets scale.
        check_interval("step size" if self.theta == 0.0 else "decay coefficient", self.c, 0.0, math.inf)
        check_interval("decay exponent", self.theta, 0.0, math.inf, closed_low=True)
        check_interval("step shift", self.shift, 0.0, math.inf, closed_low=True)
        check_interval("scale sigma_f", self.scale, 0.0, math.inf)
        # The first step is the largest, so one that is finite bounds them all;
        # it is 0.0 when scale * (1 + shift) overflows to inf.
        try:
            first = self(1)
        except OverflowError:
            first = math.inf
        if not 0.0 < first < math.inf:
            raise ValueError(f"the first step overflows or is not positive: {self!r}")

    def __call__(self, t: int) -> float:
        t = int(t)
        if t < 1:
            raise ValueError(f"iteration index must be >= 1, got {t}")
        return self.c * (self.scale * (t + self.shift)) ** (-self.theta)

    @property
    def limit_zero(self) -> bool:
        return self.theta > 0.0

    @property
    def sum_infinite(self) -> bool:
        return self.theta <= 1.0

    @property
    def sum_squares_finite(self) -> bool:
        return self.theta > 0.5


def ConstantStep(eta: float) -> StepSchedule:
    """eta_t = eta: theta = 0, and x^(-0.0) is exactly 1."""
    return StepSchedule(eta, 0.0)


def PolynomialDecay(c: float, theta: float) -> StepSchedule:
    """eta_t = c * t^(-theta)."""
    return StepSchedule(c, theta)


def TheoremRate(sigma_f: float) -> StepSchedule:
    """eta_t = 4 / ((t + 1) sigma_f), the rate-optimal schedule under a linear control.

    Stepped as 4 ((t + 1) sigma_f)^(-1), so its last bit is libm's pow's:
    a pow that is not correctly rounded may put it one ulp from the quotient."""
    return StepSchedule(4.0, 1.0, 1.0, sigma_f)


# -- single steps ---------------------------------------------------------------

def omd_step(mirror: MirrorMap, model: LossModel, w, x, y, eta) -> np.ndarray:
    """One dual-space step grad_inv(grad(w) - eta * grad f(w, z)) from a point
    or row-wise on a stack: iterates w, samples (x, y) and steps eta broadcast
    along their leading axes."""
    if not np.all(np.asarray(eta) > 0.0):
        raise ValueError("step size must be positive")
    w = np.asarray(w, dtype=np.float64)
    return mirror.grad_inv(mirror.grad(w) - eta * model.gradient(w, x, y))


def kaczmarz_step(w, x, y, eta) -> np.ndarray:
    """The direct residual update w - eta (<w, x> - y) x, from a point or row-wise on a stack."""
    w = np.asarray(w, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    return w - eta * ((row_inner(w, x) - y)[..., None] * x)


# -- trajectories ---------------------------------------------------------------

def geometric_checkpoints(T: int) -> list[int]:
    """{1, 2, 4, ...} up to T, always including T."""
    T = int(T)
    if T < 1:
        raise ValueError("horizon must be >= 1")
    out = []
    k = 1
    while k <= T:
        out.append(k)
        k *= 2
    if out[-1] != T:
        out.append(T)
    return out


class Trajectory(NamedTuple):
    checkpoints: np.ndarray
    bregman_to_optimum: np.ndarray
    seed: int
    final_iterate: np.ndarray
    diverged: bool = False
    diverged_at: int | None = None


def _checked_checkpoints(checkpoints, T: int) -> list[int]:
    cps = [int(t) for t in checkpoints]
    if not cps or any(b <= a for a, b in zip(cps, cps[1:])):
        raise ValueError("checkpoints must be strictly increasing and nonempty")
    if cps[0] < 1 or cps[-1] > T:
        raise ValueError("checkpoints must lie in [1, T]")
    return cps


def run_trajectory(
    mirror: MirrorMap,
    model: LossModel,
    source: SampleSource,
    schedule: StepSchedule,
    w1,
    T: int,
    checkpoints,
    seed: int,
    w_star,
) -> Trajectory:
    """Iterate the dual update for T iterates (T - 1 samples), recording
    the Bregman distance to w_star at each checkpoint.

    The run is a block of one row, so it takes exactly the steps that run
    ``seed`` of a Monte Carlo curve takes."""
    T = int(T)
    if T < 1:
        raise ValueError("horizon must be >= 1")
    cps = _checked_checkpoints(checkpoints, T)
    block = _run_block(mirror, model, source, schedule, w1, T, cps, w_star, range(seed, seed + 1))
    diverged_at = int(block.diverged_at[0])
    return Trajectory(
        checkpoints=np.asarray(cps, dtype=np.int64),
        bregman_to_optimum=block.values[0],
        seed=int(seed),
        final_iterate=block.last[0],
        diverged=diverged_at > 0,
        diverged_at=diverged_at or None,
    )


# -- Monte Carlo curves -----------------------------------------------------------

class ExpectationCurve(NamedTuple):
    checkpoints: np.ndarray
    mean: np.ndarray
    std_err: np.ndarray
    run_count: int


class MonteCarloResult(NamedTuple):
    curve: ExpectationCurve
    values: np.ndarray  # (n_runs, n_checkpoints) per-run Bregman distances
    diverged_runs: Sequence[int] = ()

    @property
    def n_runs(self) -> int:
        return self.values.shape[0]


class AllRunsDiverged(RuntimeError):
    pass


class NonFiniteCurve(AllRunsDiverged):
    """Some kept runs diverged to non-finite Bregman distances, so the curve is not finite."""

    def __init__(self, runs: list[int]):
        self.runs = runs
        super().__init__(f"the curve is not finite: runs {runs} diverged to non-finite distances")


def checked_workers(value) -> int:
    """``value`` as a worker count: an integer of at least 1, or its string
    (what ``--workers`` passes); ValueError for anything else, a bool or a
    float included."""
    if isinstance(value, (int, np.integer, str)) and not isinstance(value, bool):
        try:
            if int(value) >= 1:
                return int(value)
        except ValueError:
            pass
    raise ValueError(f"workers must be a positive integer, got {value!r}")


def default_workers() -> int:
    """The number of cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _block_runs(T: int, source: SampleSource) -> int:
    """The cap on runs per block: as many as fit what their streams hold in BLOCK_BYTES.

    A stream holds a bounded span of steps, so the cap does not fall as T grows."""
    return max(1, BLOCK_BYTES // source._stream_bytes(max(T - 1, 1)))


def _block_sizes(n_runs: int, T: int, source: SampleSource, workers: int = 1) -> list[int]:
    """The fewest blocks within the cap, their sizes differing by at most one.

    Every run, whatever its source, is shared out among as many of the
    ``workers`` as would each step SHARE_STEPS run-steps or more: its block
    count is rounded up to a multiple of theirs, so each steps as many
    blocks.  A row's values do not depend on its block, so the layout leaves
    the results as they are."""
    n_blocks = -(-n_runs // _block_runs(T, source))
    share = min(workers, n_runs, n_runs * (T - 1) // SHARE_STEPS)
    if share > 1:
        n_blocks = min(n_runs, -(-n_blocks // share) * share)
    size, extra = divmod(n_runs, n_blocks)
    return [size + 1] * extra + [size] * (n_blocks - extra)


class _Block(NamedTuple):
    """The runs of one block, one row each."""

    values: np.ndarray  # Bregman distances to w_star at the checkpoints
    last: np.ndarray  # final iterates
    diverged_at: np.ndarray  # the iterate index that crossed the guard, 0 if none did


def _run_block(
    mirror: MirrorMap,
    model: LossModel,
    source: SampleSource,
    schedule: StepSchedule,
    w1,
    T: int,
    cps: list[int],
    w_star,
    seeds: range,
) -> _Block:
    """Step the runs seeded ``seeds`` together, one run per row.

    Row r draws its whole sample from its own stream, seeded ``seeds[r]``,
    a span of steps at a time, and the kernels act on each row alone, so a
    row's values do not depend on the other rows of its block.  A row whose
    iterate crosses the divergence guard leaves the stacks, keeping that
    iterate and its distance at the checkpoints to come.
    """
    w1, w_star = as_vector(w1), as_vector(w_star)
    B = len(seeds)
    values = np.empty((B, len(cps)))
    diverged_at = np.zeros(B, dtype=np.int64)
    if T > 1:
        steps = source.stream(seeds, T - 1)
        # Steps never increase, so the last one bounds them all; each step's
        # size is evaluated where it is taken, so nothing here grows with T.
        if not schedule(T - 1) > 0.0:
            raise ValueError("step size must be positive")
    # Stepped in place; g is also the guard's scratch, and at p = 2 W is dual.
    W = np.tile(w1, (B, 1))
    dual = np.tile(mirror.grad(w1), (B, 1))
    g = np.empty_like(W)
    last = np.empty_like(W)
    rows = np.arange(B)  # the block rows still stepping
    gradient = model.gradient
    grad_inv = mirror.grad_inv
    ci = 0
    # Overflow is handled, not warned about: the guard freezes a row whose
    # iterate overflows, and monte_carlo_curve refuses a non-finite curve.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, T + 1):
            if ci < len(cps) and cps[ci] == t:
                values[rows, ci] = mirror.bregman(w_star, W)
                ci += 1
            if t == T:
                break
            x, y = next(steps)
            if len(rows) < B:
                x, y = x[rows], y[rows]
            gradient(W, x, y, g)
            g *= schedule(t)
            dual -= g
            W = grad_inv(dual, W)
            # argmax, faster than max, finds the largest |entry| or the first NaN.
            if g.item(np.abs(W, out=g).argmax()) <= DIVERGENCE_LIMIT:  # False on NaN as well
                continue
            keep = g.max(axis=1) <= DIVERGENCE_LIMIT
            frozen = rows[~keep]
            diverged_at[frozen], last[frozen] = t + 1, W[~keep]
            values[frozen, ci:] = mirror.bregman(w_star, last[frozen])[:, None]
            rows, W, dual, g = rows[keep], W[keep], dual[keep], g[keep]
            if not len(rows):
                break  # every row has diverged, so no more samples are drawn
    last[rows] = W
    return _Block(values, last, diverged_at)


def monte_carlo_curve(
    mirror: MirrorMap,
    model: LossModel,
    source: SampleSource,
    schedule: StepSchedule,
    w1,
    T: int,
    checkpoints,
    n_runs: int,
    base_seed: int,
    w_star,
    workers: int | None = None,
    exclude_diverged: bool = False,
) -> MonteCarloResult:
    """Aggregate n_runs independent trajectories; run i is seeded base_seed + i.

    Runs step in blocks (``_block_sizes``); one block steps in the calling
    process, and when there are two or more, ``workers`` processes share
    them out.  A row's values do not depend on its block, and aggregation is
    a fold in run-index order, so the result is independent of the worker
    count.
    """
    n_runs = int(n_runs)
    if n_runs < 2:
        raise ValueError("need at least 2 runs for a standard error")
    T = int(T)
    cps = _checked_checkpoints(checkpoints, T)
    workers = default_workers() if workers is None else checked_workers(workers)
    bounds = [0, *accumulate(_block_sizes(n_runs, T, source, workers))]
    blocks = [range(base_seed + lo, base_seed + hi) for lo, hi in zip(bounds, bounds[1:])]
    block = partial(_run_block, mirror, model, source, schedule, w1, T, cps, w_star)
    if workers == 1 or len(blocks) == 1:
        results = list(map(block, blocks))
    else:
        # Imported here: the pool's modules cost import time and memory that
        # a run of one block never uses.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(blocks))) as pool:
            results = list(pool.map(block, blocks))
    values = np.concatenate([b.values for b in results])
    diverged = np.flatnonzero(np.concatenate([b.diverged_at for b in results]) > 0).tolist()
    if len(diverged) == n_runs:
        raise AllRunsDiverged(f"all {n_runs} runs exceeded the divergence guard")
    keep = np.ones(n_runs, dtype=bool)
    if exclude_diverged and diverged:
        keep[diverged] = False
        if n_runs - len(diverged) < 2:
            raise AllRunsDiverged(f"{n_runs - 1} of {n_runs} runs exceeded the divergence guard, "
                                  "and a standard error needs 2 that did not")
    kept = values[keep]
    with np.errstate(invalid="ignore", over="ignore"):
        mean = kept.mean(axis=0)
        std_err = kept.std(axis=0, ddof=1) / np.sqrt(kept.shape[0])
    # Where every kept run has the same distance (t = 1, where all start at
    # w1), the curve is that distance with a standard error of 0, not the
    # rounding of a sum.  NaN equals nothing, and an inf column stays inf.
    same = (kept == kept[0]).all(axis=0)
    mean[same] = kept[0, same]
    std_err[same] = 0.0
    if not (np.isfinite(mean).all() and np.isfinite(std_err).all()):
        # Only diverged runs reach non-finite distances, or distances whose sum
        # overflows; name the non-finite ones, else every kept diverged run.
        bad = np.flatnonzero(keep & ~np.isfinite(values).all(axis=1)).tolist()
        raise NonFiniteCurve(bad or [i for i in diverged if keep[i]])
    curve = ExpectationCurve(
        checkpoints=np.asarray(cps, dtype=np.int64),
        mean=mean,
        std_err=std_err,
        run_count=int(kept.shape[0]),
    )
    return MonteCarloResult(curve=curve, values=values, diverged_runs=diverged)


# -- constants and schedule regimes ------------------------------------------------

class ResolvedConstants(NamedTuple):
    """Geometry/loss constants an experiment resolves before running.

    ``sigma_f`` is the Bregman-sense strong-convexity constant of the risk
    (only defined when the mirror map is strongly smooth); ``growth_a`` is
    the contraction constant 2 L_F / sigma_psi used by non-convergence
    floors.
    """

    sigma_psi: float
    smooth_L: float
    risk_L: float
    sigma_f_norm: float
    sigma_f: float | None
    lambda_min: float | None
    radius: float
    growth_a: float
    map_smoothness: float | None


def resolve_constants(mirror: MirrorMap, model: LossModel, source: SampleSource) -> ResolvedConstants:
    R = source.radius(mirror.dual_p)
    sigma_psi = mirror.strong_convexity
    L = model.smoothness_bound(R)
    lambda_min: float | None = None
    if isinstance(model.loss, LeastSquares):
        eigs = np.linalg.eigvalsh(source.covariance())
        lambda_min = float(eigs[0])
        sigma_f_norm = lambda_min + 2.0 * model.lam
        # D_F <= (lam_max/2) ||.||_2^2 <= (lam_max/2) ||.||_p^2 for p <= 2.
        risk_L = float(eigs[-1]) + 2.0 * model.lam
    else:
        sigma_f_norm = 2.0 * model.lam
        risk_L = L
    L_psi = mirror.smoothness
    sigma_f = 2.0 * sigma_f_norm / L_psi if (L_psi is not None and sigma_f_norm > 0.0) else None
    return ResolvedConstants(
        sigma_psi=sigma_psi,
        smooth_L=L,
        risk_L=risk_L,
        sigma_f_norm=sigma_f_norm,
        sigma_f=sigma_f,
        lambda_min=lambda_min,
        radius=R,
        growth_a=2.0 * risk_L / sigma_psi,
        map_smoothness=L_psi,
    )


class RegimeError(RuntimeError):
    """A theorem-tagged experiment was configured outside the theorem's regime."""
