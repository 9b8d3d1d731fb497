"""The identity and property suite behind ``omdkit verify``.

Every check draws from a counter-based stream with a fixed key, computes a
worst-case residual over a randomized sweep, and compares it against the
tolerance the check is specified at; it returns ``(passed, max_residual,
tolerance)`` and ``CHECKS`` names it.  Every sweep is drawn as stacks, one
point or sample per row, each evaluated by one call of the library's own
kernel; every norm comes from ``geometry``, so no check restates a formula
it checks.  The Fenchel-conjugate check draws ``_DIRECTIONS`` directions
per case in one stack, takes the best, and polishes it with a numpy local
search (``_local_search``), so the suite needs numpy alone; the result must
match the closed form to 1e-9, relative, on either side.  Reports are
byte-identical across runs.
"""

from typing import Callable, NamedTuple

import numpy as np

from .geometry import dual_exponent, p_norm, row_inner
from .losses import Huber, LeastSquares, Logistic, LossModel, Sigmoid, SquaredHinge
from .mirror_maps import (
    EuclideanMap,
    PNormMap,
    SmoothedL1Map,
    b_p_constant,
    norm_power_conjugate,
    omega_p,
    pnorm_bregman,
    pnorm_gradient,
)
from . import sources
from .sources import DiscreteFiniteSource, Sample, mean_gradient_norm, minimizer, orthonormal_atom_source
from .engine import kaczmarz_step, omd_step
from .diagnostics import cocoercivity_margin, duality_residual, key_identity_residual, nonsmoothness_witness

__all__ = ["CheckResult", "run_verification", "CHECK_NAMES"]

_SEED = 20250801
# The Fenchel check's random directions per case, and its polish's rounds
# and perturbations per round.
_DIRECTIONS = 2_000
_POLISH_ROUNDS = 30
_POLISH_POINTS = 300


class CheckResult(NamedTuple):
    name: str
    passed: bool
    max_residual: float
    tolerance: float

    def line(self) -> str:
        status = "pass" if self.passed else "fail"
        return f"{self.name},{status},{self.max_residual!r}"


Outcome = tuple[bool, float, float]


def _rng(offset: int) -> "np.random.Generator":
    return sources._rng(_SEED + offset)


def _maps():
    return [
        EuclideanMap(),
        PNormMap(1.2),
        PNormMap(1.5),
        PNormMap(1.9),
        PNormMap(2.0),
        SmoothedL1Map(0.5, 1.0),
        SmoothedL1Map(0.1, 2.0),
    ]


def _scaled(rng, n, d, scales):
    """n standard normal points of dimension d, each scaled by a draw from ``scales``."""
    return rng.standard_normal((n, d)) * rng.choice(scales, size=(n, 1))


def _check_holder(seed: int) -> Outcome:
    rng = _rng(seed)
    worst = -np.inf
    for p in (1.2, 1.5, 2.0):
        W, V = (_scaled(rng, 1000, 6, [0.1, 1.0, 10.0]) for _ in range(2))
        gap = np.abs(row_inner(W, V)) - p_norm(W, p) * p_norm(V, dual_exponent(p))
        worst = max(worst, float(gap.max()))
    return worst <= 1e-12, worst, 1e-12


def _check_triangle(seed: int) -> Outcome:
    rng = _rng(seed)
    worst = -np.inf
    for p in (1.2, 1.5, 2.0, 3.0):
        W, V = (_scaled(rng, 1000, 5, [0.1, 1.0, 10.0]) for _ in range(2))
        gap = p_norm(W + V, p) - (p_norm(W, p) + p_norm(V, p))
        worst = max(worst, float(gap.max()))
    return worst <= 1e-12, worst, 1e-12


def _check_round_trip(seed: int) -> Outcome:
    rng = _rng(seed)
    worst = 0.0
    for mirror in _maps():
        W = _scaled(rng, 1000, 5, [0.05, 1.0, 20.0])
        worst = max(worst, float(np.abs(mirror.grad_inv(mirror.grad(W)) - W).max()))
    return worst <= 1e-10, worst, 1e-10


def _check_gradient_norm_identity(seed: int) -> Outcome:
    rng = _rng(seed)
    worst = 0.0
    for p in (1.2, 1.5, 1.9):
        W = _scaled(rng, 1000, 6, [0.1, 1.0, 10.0])
        resid = np.abs(p_norm(pnorm_gradient(W, p), dual_exponent(p)) - p_norm(W, p))
        worst = max(worst, float(resid.max()))
    return worst <= 1e-10, worst, 1e-10


def _check_strong_convexity(seed: int) -> Outcome:
    rng = _rng(seed)
    worst = -np.inf  # max violation of D >= (sigma/2) ||diff||^2
    for mirror in _maps():
        W, V = (_scaled(rng, 500, 5, [0.3, 1.0, 3.0]) for _ in range(2))
        gap = 0.5 * mirror.strong_convexity * p_norm(W - V, mirror.p) ** 2 - mirror.bregman(W, V)
        worst = max(worst, float(gap.max()))
    return worst <= 1e-10, worst, 1e-10


def _check_strong_smoothness(seed: int) -> Outcome:
    rng = _rng(seed)
    worst = -np.inf  # max violation of D <= (L/2) ||diff||^2
    for mirror in _maps():
        L = mirror.smoothness
        if L is None:
            continue
        W, V = (_scaled(rng, 500, 5, [0.3, 1.0, 3.0]) for _ in range(2))
        gap = mirror.bregman(W, V) - 0.5 * L * p_norm(W - V, mirror.p) ** 2
        worst = max(worst, float(gap.max()))
    return worst <= 1e-10, worst, 1e-10


def _check_bregman_sum(seed: int) -> Outcome:
    rng = _rng(seed)
    worst = 0.0
    for mirror in _maps():
        W, V = (_scaled(rng, 500, 5, [0.3, 1.0, 5.0]) for _ in range(2))
        lhs = mirror.bregman(W, V) + mirror.bregman(V, W)
        rhs = row_inner(W - V, mirror.grad(W) - mirror.grad(V))
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst <= 1e-10, worst, 1e-10


def _check_bregman_duality(seed: int) -> Outcome:
    rng = _rng(seed)
    worst = 0.0
    for p in (1.2, 1.5, 2.0):
        W, V = rng.uniform(-10.0, 10.0, size=(2, 1000, 6))
        worst = max(worst, float(duality_residual(p, W, V).max()))
    return worst <= 1e-9, worst, 1e-9


def _pnorm_pairs(rng):
    """3334 targets and, around each, a point at a drawn perturbation scale."""
    Wt = _scaled(rng, 3334, 5, [0.3, 1.0, 3.0])
    return Wt, Wt + _scaled(rng, 3334, 5, [0.05, 0.5, 1.0, 4.0])


def _check_pnorm_upper(seed: int) -> Outcome:
    rng = _rng(seed)
    worst = -np.inf  # max violation of the displayed upper bound
    for p in (1.2, 1.5, 1.9):
        Wt, W = _pnorm_pairs(rng)
        diff = p_norm(Wt - W, p)
        nt = p_norm(Wt, p)
        coef = (2.0 * nt) ** (2.0 - p) + nt ** (p - 1.0) + 1.0
        rhs = coef * (diff ** 2 + diff ** min(p, 3.0 - p))
        worst = max(worst, float((pnorm_bregman(Wt, W, p) - rhs).max()))
    return worst <= 1e-12, worst, 1e-12


def _check_pnorm_lower_control(seed: int) -> Outcome:
    rng = _rng(seed)
    worst = 0.0  # max of B_p * Omega_p(D) / ||diff||^2, which the bound keeps <= 1
    for p in (1.2, 1.5, 1.9):
        Wt, W = _pnorm_pairs(rng)
        # The ratio is largest for a target at or near 0 and a point far from it,
        # where it nears 2^-(tau_p + 1): 0.198 at p = 1.5.
        near = _scaled(rng, 1000, 5, [0.0, 1e-6, 1e-3])
        Wt = np.concatenate([Wt, near])
        W = np.concatenate([W, near + _scaled(rng, 1000, 5, [10.0, 1e3, 1e6])])
        d_vals = np.maximum(pnorm_bregman(Wt, W, p), 0.0)
        ratio = b_p_constant(p, p_norm(Wt, p)) * omega_p(p, d_vals) / p_norm(Wt - W, p) ** 2
        worst = max(worst, float(ratio.max()))
    return worst <= 1.0 + 1e-12, worst, 1.0 + 1e-12


def _check_incremental(seed: int) -> Outcome:
    rng = _rng(seed)
    worst = -np.inf  # max violation of ||grad|| <= C (1 + ||w||)
    for mirror in _maps():
        L = mirror.smoothness
        if isinstance(mirror, PNormMap):
            C = 1.0
        else:
            C = p_norm(mirror.grad(np.zeros(5)), mirror.dual_p) + L
        W = _scaled(rng, 500, 5, [1e-3, 1.0, 50.0, 1e3])
        lhs = p_norm(mirror.grad(W), mirror.dual_p)
        worst = max(worst, float((lhs - C * (1.0 + p_norm(W, mirror.p))).max()))
    return worst <= 1e-8, worst, 1e-8


def _check_cocoercivity(seed: int) -> Outcome:
    rng = _rng(seed)
    worst = np.inf  # min margin must stay above -1e-10
    losses = [LeastSquares(), Logistic(), SquaredHinge(), Huber()]
    for loss in losses:
        model = LossModel(loss, lam=float(rng.choice([0.0, 0.2])))
        X = rng.standard_normal((2500, 4))
        X /= np.maximum(1.0, p_norm(X, 2.0))[:, None]
        y = rng.uniform(-1.0, 1.0, size=2500)
        W, V = rng.standard_normal((2, 2500, 4)) * 2.0
        L = model.smoothness_bound(1.0)
        worst = min(worst, float(cocoercivity_margin(model, Sample(X, y), W, V, L).min()))
    return worst >= -1e-10, worst, -1e-10


def _local_search(objective, w, rng):
    """Raise ``objective`` (a function of the last axis) from w: each round keeps
    the best of ``_POLISH_POINTS`` Gaussian perturbations of the incumbent, at a
    scale shrinking geometrically from ||w||/10 to ||w|| 1e-9 over
    ``_POLISH_ROUNDS`` rounds.  Returns the best value seen."""
    best = float(objective(w))
    for scale in p_norm(w, 2.0) * np.geomspace(0.1, 1e-9, _POLISH_ROUNDS):
        W = w + scale * rng.standard_normal((_POLISH_POINTS, w.shape[-1]))
        vals = objective(W)
        j = int(vals.argmax())
        if vals[j] > best:
            w, best = W[j], float(vals[j])
    return best


def _check_fenchel_conjugate(seed: int) -> Outcome:
    rng = _rng(seed)
    # The polish draws from its own stream, so the directions stay those drawn
    # by rng alone.
    polish_rng = np.random.Generator(rng.bit_generator.jumped())
    worst = 0.0  # max relative gap between brute force and formula, either way
    cases = [
        (2.0, 2.0, np.array([3.0, 4.0])),
        (1.5, 2.0, np.array([1.0, -0.5])),
        (2.0, 1.5, np.array([0.8, 1.3, -0.4])),
        (3.0, 1.5, np.array([1.5, -2.0])),
    ]
    for kappa, p, v in cases:
        formula = norm_power_conjugate(kappa, v, p)
        U = rng.standard_normal((_DIRECTIONS, v.shape[0]))
        norms_p = p_norm(U, p)
        s = U @ v
        # Along direction u the scalar problem max_r [s r - (||u||^kappa / kappa) r^kappa]
        # peaks at (kappa - 1) / kappa * (s / ||u||)^(kappa / (kappa - 1)), which
        # grows with s / ||u||, at r0 = (s / ||u||^kappa)^(1 / (kappa - 1)).
        j = int((s / norms_p).argmax())
        start = (s[j] / norms_p[j] ** kappa) ** (1.0 / (kappa - 1.0)) * U[j]

        def objective(w):
            return w @ v - p_norm(w, p) ** kappa / kappa

        best = _local_search(objective, start, polish_rng)
        worst = max(worst, abs(best - formula) / max(1.0, formula))
    return worst <= 1e-9, worst, 1e-9


def _identity_fixture():
    atoms = [
        Sample(np.array([0.9, 0.1, -0.2]), 1.0),
        Sample(np.array([-0.3, 0.8, 0.4]), -0.5),
        Sample(np.array([0.2, -0.6, 0.7]), 0.8),
        Sample(np.array([-0.5, -0.4, -0.6]), 0.25),
    ]
    return DiscreteFiniteSource(atoms, [0.4, 0.3, 0.2, 0.1])


def _check_key_identity(seed: int) -> Outcome:
    rng = _rng(seed)
    source = _identity_fixture()
    worst = 0.0
    configs = [
        (EuclideanMap(), LossModel(LeastSquares())),
        (PNormMap(1.5), LossModel(LeastSquares())),
        (SmoothedL1Map(0.5, 1.0), LossModel(Logistic(), lam=0.1)),
    ]
    for mirror, model in configs:
        w_star = minimizer(source, model)
        W = _scaled(rng, 100, 3, [0.5, 2.0])
        etas = rng.choice([0.05, 0.5], size=100)
        worst = max(worst, float(key_identity_residual(mirror, model, source, W, etas, w_star).max()))
    return worst <= 1e-10, worst, 1e-10


def _check_witness_monotone(seed: int) -> Outcome:
    del seed  # deterministic grid
    grid = [1.0, 10.0, 100.0, 1000.0, 10000.0]
    min_gap = np.inf
    for p in (1.2, 1.5, 1.8):
        for d in (2, 3, 5):
            ratios = [nonsmoothness_witness(p, d, a) for a in grid]
            gaps = np.diff(ratios)
            min_gap = min(min_gap, float(gaps.min()))
    return min_gap > 0.0, min_gap, 0.0


def _check_kaczmarz(seed: int) -> Outcome:
    rng = _rng(seed)
    W, X = rng.standard_normal((2, 10_000, 4))
    y = rng.standard_normal(10_000)
    eta = rng.uniform(0.01, 1.5, size=(10_000, 1))
    a = omd_step(EuclideanMap(), LossModel(LeastSquares()), W, X, y, eta)
    worst = float(np.abs(a - kaczmarz_step(W, X, y, eta)).max())
    return worst <= 1e-15, worst, 1e-15


def _check_loss_gradients(seed: int) -> Outcome:
    rng = _rng(seed)
    losses = [LeastSquares(), Logistic(), Sigmoid(), SquaredHinge(), Huber()]
    h = 1e-6
    worst = 0.0
    # (a, y) pairs in the order a draw per pair would give, less those near the
    # huber / hinge kinks where phi'' jumps; each loss scores the next 1,000.
    A, Y = rng.uniform((-4.0, -1.0), (4.0, 1.0), size=(6000, 2)).T
    keep = (np.abs(np.abs(A - Y) - 1.0) >= 1e-3) & (np.abs(A * Y - 1.0) >= 1e-3)
    rows = [z[keep][:1000 * len(losses)].reshape(len(losses), 1000) for z in (A, Y)]
    for loss, a, y in zip(losses, *rows):
        fd = (loss.value(a + h, y) - loss.value(a - h, y)) / (2.0 * h)
        worst = max(worst, float(np.abs(fd - loss.derivative(a, y)).max()))
    return worst <= 1e-6, worst, 1e-6


def _check_loss_lipschitz(seed: int) -> Outcome:
    del seed
    losses = [LeastSquares(), Logistic(), Sigmoid(), SquaredHinge(), Huber()]
    a_grid = np.linspace(-6.0, 6.0, 1201)
    labels = np.linspace(-1.0, 1.0, 21)[:, None]
    worst = -np.inf  # max of (quotient - declared constant)
    for loss in losses:
        quot = np.abs(np.diff(loss.derivative(a_grid, labels))) / np.diff(a_grid)
        worst = max(worst, float(quot.max()) - loss.lipschitz)
    return worst <= 1e-8, worst, 1e-8


def _check_one_step_contract(seed: int) -> Outcome:
    rng = _rng(seed)
    source = _identity_fixture()
    worst = np.inf  # min slack of E[D+] <= D + (eta^2/sigma) E||grad f(w*)||^2
    configs = [
        (EuclideanMap(), LossModel(LeastSquares())),
        (EuclideanMap(), LossModel(Huber(), lam=0.05)),
        (SmoothedL1Map(0.5, 1.0), LossModel(Logistic(), lam=0.1)),
    ]
    for mirror, model in configs:
        w_star = minimizer(source, model)
        sigma = mirror.strong_convexity
        L = model.smoothness_bound(source.radius(mirror.dual_p))
        eta = sigma / (2.0 * L)
        G = model.gradient(w_star, source.X, source.y)
        noise = float(source.probs @ p_norm(G, mirror.dual_p) ** 2)
        W = _scaled(rng, 1000, 3, [0.5, 2.0])
        # Each point steps on every atom: (1000, atoms, 3) next iterates.
        W_next = omd_step(mirror, model, W[:, None, :], source.X, source.y, eta)
        e_next = mirror.bregman(w_star, W_next) @ source.probs
        bound = mirror.bregman(w_star, W) + eta * eta / sigma * noise
        worst = min(worst, float((bound - e_next).min()))
    return worst >= -1e-9, worst, -1e-9


def _check_omega(seed: int) -> Outcome:
    del seed
    worst = 0.0
    for p in (4.0 / 3.0, 1.5, 2.0):
        # branch agreement at u = 1: the upper branch there against the lower one an ulp below
        worst = max(worst, abs(omega_p(p, 1.0) - omega_p(p, np.nextafter(1.0, 0.0))))
        second = np.diff(omega_p(p, np.arange(601) / 200.0), 2)
        worst = max(worst, float((-second).max()))
    return worst <= 1e-12, worst, 1e-12


def _check_mean_gradient_zero(seed: int) -> Outcome:
    # zero-variance source: exact mean gradient norm vanishes at the minimizer
    del seed
    U = np.eye(3)
    source = orthonormal_atom_source(U, [1 / 6] * 3, w_star=np.array([1.0, -0.5, 0.25]))
    model = LossModel(LeastSquares())
    w_star = minimizer(source, model)
    value = mean_gradient_norm(source, model, w_star)
    return value <= 1e-10, value, 1e-10


CHECKS: list[tuple[str, Callable[[int], Outcome]]] = [
    ("holder_inequality", _check_holder),
    ("triangle_inequality", _check_triangle),
    ("gradient_round_trip", _check_round_trip),
    ("gradient_norm_identity", _check_gradient_norm_identity),
    ("strong_convexity", _check_strong_convexity),
    ("strong_smoothness", _check_strong_smoothness),
    ("bregman_sum_identity", _check_bregman_sum),
    ("bregman_duality", _check_bregman_duality),
    ("pnorm_bregman_upper", _check_pnorm_upper),
    ("pnorm_lower_control", _check_pnorm_lower_control),
    ("incremental_condition", _check_incremental),
    ("cocoercivity_margin", _check_cocoercivity),
    ("fenchel_conjugate_bruteforce", _check_fenchel_conjugate),
    ("key_identity", _check_key_identity),
    ("nonsmoothness_witness_monotone", _check_witness_monotone),
    ("kaczmarz_equivalence", _check_kaczmarz),
    ("loss_gradient_fd", _check_loss_gradients),
    ("loss_lipschitz_quotients", _check_loss_lipschitz),
    ("one_step_distance_contract", _check_one_step_contract),
    ("omega_continuity_convexity", _check_omega),
    ("zero_variance_gradient", _check_mean_gradient_zero),
]

CHECK_NAMES = [name for name, _ in CHECKS]


def run_verification() -> list[CheckResult]:
    """Run every registered check with its fixed stream; deterministic output."""
    return [CheckResult(name, *fn(offset)) for offset, (name, fn) in enumerate(CHECKS)]
