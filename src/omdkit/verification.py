"""The identity and property suite behind ``omdkit verify``.

``CHECKS`` is one table, and a row is the one place a check is declared:
``(name, rule(bound, residual))``.  The residual function takes the check's
counter-based stream and returns only its worst residual or margin over a
randomized sweep.  The rule, ``_at_most``, ``_at_least`` or ``_above``,
writes the bound once: it opens the stream ``_rng(seed)`` for the row's
offset and returns ``(passed, max_residual, tolerance)``.  Every sweep is
drawn as stacks, one point or sample per row, each evaluated by one call of
the library's own kernel; every norm comes from ``geometry``, so no check
restates a formula it checks.  A sweep holds one stack at a time (tier-1
traces each row under 1.25 MiB), so a cold ``omdkit verify`` peaks at
39.7-39.9 MB of RSS in the benchmark, 41.1 MB when the Kaczmarz and
Lipschitz sweeps were drawn whole.  The checks over the test maps share one
sweep, ``_map_sweep``, and the two modulus checks also score each map at
``_tight_pairs``, where its modulus is attained.  The Fenchel-conjugate
check draws ``_DIRECTIONS`` directions per case in one stack, takes the
best, and polishes it with a numpy local search (``_local_search``), so the
suite needs numpy alone.  Reports are byte-identical across runs.
"""

import operator
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


# The ends of the refusals ``_rule`` scores as a failed row: the geometry
# kernels' of a NaN, and ``minimizer``'s when damped Newton finds no minimizer.
_REFUSALS = ("must be finite", "got nan", "or took 100 steps")


def _rule(holds):
    """``rule(bound, residual)`` is a row's check, ``(holds(worst, bound), worst,
    bound)`` for ``worst = residual(_rng(seed))``; a fixed grid's residual takes ``_``.
    A checked kernel that refuses a NaN input with a ``ValueError``, and
    ``minimizer`` when damped Newton finds no minimizer (as a defective loss
    gradient makes it), fail the row with a NaN residual; any other
    ``ValueError`` is a defect, and is raised."""
    def rule(bound: float, residual):
        def check(seed: int) -> tuple[bool, float, float]:
            try:
                worst = float(residual(_rng(seed)))
            except ValueError as error:
                if not str(error).endswith(_REFUSALS):
                    raise
                return False, np.nan, bound
            return holds(worst, bound), worst, bound
        return check
    return rule


_at_most, _at_least, _above = _rule(operator.le), _rule(operator.ge), _rule(operator.gt)


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


def _tight_pairs(mirror):
    """Targets t and bases b at which the map attains its modulus.  For a p-norm
    map, b = s (1, 1, 0, 0, 0) and t = b + s eps (1, -1, 0, 0, 0), s in {1, 3,
    10}, eps in {1e-4, 1e-3}: along (1, -1) the Hessian's gradient term vanishes
    and the rest meets its lower bound p - 1.  For a smoothed-l1 map, opposite
    corners of the quadratic band |w_j| <= epsilon, where D is exactly quadratic."""
    if isinstance(mirror, PNormMap):
        s, eps = (a.reshape(-1, 1) for a in np.meshgrid([1.0, 3.0, 10.0], [1e-4, 1e-3]))
        B = s * np.array([1.0, 1.0, 0.0, 0.0, 0.0])
        return B + s * eps * np.array([1.0, -1.0, 0.0, 0.0, 0.0]), B
    T = mirror.epsilon * np.array([[1.0, -1.0, 1.0, -1.0, 1.0]])
    return T, -T


def _map_sweep(rng, maps, stacks, n, scales, gap, tight=False):
    """The largest entry of ``gap(mirror, *arrays)`` over ``maps``: each map in
    turn draws ``stacks`` arrays of n points of dimension 5 at ``scales``, and
    with ``tight`` is scored at its ``_tight_pairs`` as well."""
    worst = -np.inf
    for mirror in maps:
        arrays = [_scaled(rng, n, 5, scales) for _ in range(stacks)]
        worst = np.maximum(worst, float(gap(mirror, *arrays).max()))
        if tight:
            worst = np.maximum(worst, float(gap(mirror, *_tight_pairs(mirror)).max()))
    return worst


def _holder(rng):
    def gap(W, V, p):
        return np.abs(row_inner(W, V)) - p_norm(W, p) * p_norm(V, dual_exponent(p))
    worst = -np.inf
    for p in (1.2, 1.5, 2.0):
        W, V = (_scaled(rng, 1000, 6, [0.1, 1.0, 10.0]) for _ in range(2))
        worst = np.maximum(worst, float(gap(W, V, p).max()))
    # Equality holds at V = pnorm_gradient(W, p): <w, V> = ||w||_p^2 = ||w||_p ||V||_q.
    # At scales up to 1 its rounding stays under 3e-14; at 10 it passes the 1e-12 bound.
    for p in (1.2, 1.5, 2.0):
        W = _scaled(rng, 1000, 6, [0.1, 1.0])
        worst = np.maximum(worst, float(gap(W, pnorm_gradient(W, p), p).max()))
    return worst


def _triangle(rng):
    worst = -np.inf
    for p in (1.2, 1.5, 2.0, 3.0):
        W, V = (_scaled(rng, 1000, 5, [0.1, 1.0, 10.0]) for _ in range(2))
        gap = p_norm(W + V, p) - (p_norm(W, p) + p_norm(V, p))
        worst = np.maximum(worst, float(gap.max()))
    return worst


def _round_trip(rng):
    return _map_sweep(rng, _maps(), 1, 1000, [0.05, 1.0, 20.0],
                      lambda mirror, W: np.abs(mirror.grad_inv(mirror.grad(W)) - W))


def _gradient_norm_identity(rng):
    worst = 0.0
    for p in (1.2, 1.5, 1.9):
        W = _scaled(rng, 1000, 6, [0.1, 1.0, 10.0])
        resid = np.abs(p_norm(pnorm_gradient(W, p), dual_exponent(p)) - p_norm(W, p))
        worst = np.maximum(worst, float(resid.max()))
    return worst


def _strong_convexity(rng):
    def gap(mirror, W, V):  # violation of D >= (sigma/2) ||diff||^2
        return 0.5 * mirror.strong_convexity * p_norm(W - V, mirror.p) ** 2 - mirror.bregman(W, V)
    return _map_sweep(rng, _maps(), 2, 500, [0.3, 1.0, 3.0], gap, tight=True)


def _strong_smoothness(rng):
    def gap(mirror, W, V):  # violation of D <= (L/2) ||diff||^2
        return mirror.bregman(W, V) - 0.5 * mirror.smoothness * p_norm(W - V, mirror.p) ** 2
    smooth = [mirror for mirror in _maps() if mirror.smoothness is not None]
    return _map_sweep(rng, smooth, 2, 500, [0.3, 1.0, 3.0], gap, tight=True)


def _bregman_sum(rng):
    def gap(mirror, W, V):
        lhs = mirror.bregman(W, V) + mirror.bregman(V, W)
        return np.abs(lhs - row_inner(W - V, mirror.grad(W) - mirror.grad(V)))
    return _map_sweep(rng, _maps(), 2, 500, [0.3, 1.0, 5.0], gap)


def _bregman_duality(rng):
    worst = 0.0
    for p in (1.2, 1.5, 2.0):
        W, V = rng.uniform(-10.0, 10.0, size=(2, 1000, 6))
        worst = np.maximum(worst, float(duality_residual(p, W, V).max()))
    return worst


def _pnorm_pairs(rng):
    """3334 targets and, around each, a point at a drawn perturbation scale."""
    Wt = _scaled(rng, 3334, 5, [0.3, 1.0, 3.0])
    return Wt, Wt + _scaled(rng, 3334, 5, [0.05, 0.5, 1.0, 4.0])


def _pnorm_upper(rng):
    worst = -np.inf  # max violation of the displayed upper bound
    for p in (1.2, 1.5, 1.9):
        Wt, W = _pnorm_pairs(rng)
        diff = p_norm(Wt - W, p)
        nt = p_norm(Wt, p)
        coef = (2.0 * nt) ** (2.0 - p) + nt ** (p - 1.0) + 1.0
        rhs = coef * (diff ** 2 + diff ** min(p, 3.0 - p))
        worst = np.maximum(worst, float((pnorm_bregman(Wt, W, p) - rhs).max()))
    return worst


def _pnorm_lower_control(rng):
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
        worst = np.maximum(worst, float(ratio.max()))
    return worst


def _incremental(rng):
    def gap(mirror, W):  # violation of ||grad|| <= C (1 + ||w||)
        if isinstance(mirror, PNormMap):
            C = 1.0
        else:
            C = p_norm(mirror.grad(np.zeros(5)), mirror.dual_p) + mirror.smoothness
        return p_norm(mirror.grad(W), mirror.dual_p) - C * (1.0 + p_norm(W, mirror.p))
    return _map_sweep(rng, _maps(), 1, 500, [1e-3, 1.0, 50.0, 1e3], gap)


def _cocoercivity(rng):
    worst = np.inf  # the smallest margin
    losses = [LeastSquares(), Logistic(), SquaredHinge(), Huber()]
    for loss in losses:
        model = LossModel(loss, lam=float(rng.choice([0.0, 0.2])))
        X = rng.standard_normal((2500, 4))
        X /= np.maximum(1.0, p_norm(X, 2.0))[:, None]
        y = rng.uniform(-1.0, 1.0, size=2500)
        W, V = rng.standard_normal((2, 2500, 4)) * 2.0
        L = model.smoothness_bound(1.0)
        worst = np.minimum(worst, float(cocoercivity_margin(model, Sample(X, y), W, V, L).min()))
    return worst


def _local_search(objective, w, rng):
    """Raise ``objective`` (a function of the last axis) from w: each round keeps
    the best of ``_POLISH_POINTS`` Gaussian perturbations of the incumbent, at a
    scale shrinking geometrically from ||w||/10 to ||w|| 1e-9 over
    ``_POLISH_ROUNDS`` rounds.  Returns the best value seen, or NaN once one is seen."""
    best = float(objective(w))
    for scale in p_norm(w, 2.0) * np.geomspace(0.1, 1e-9, _POLISH_ROUNDS):
        W = w + scale * rng.standard_normal((_POLISH_POINTS, w.shape[-1]))
        vals = objective(W)
        j = int(vals.argmax())  # the first NaN, if any
        if vals[j] > best or np.isnan(vals[j]):
            w, best = W[j], float(vals[j])
    return best


def _fenchel_conjugate(rng):
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
        worst = np.maximum(worst, abs(best - formula) / max(1.0, formula))
    return worst


def _identity_fixture():
    atoms = [
        Sample(np.array([0.9, 0.1, -0.2]), 1.0),
        Sample(np.array([-0.3, 0.8, 0.4]), -0.5),
        Sample(np.array([0.2, -0.6, 0.7]), 0.8),
        Sample(np.array([-0.5, -0.4, -0.6]), 0.25),
    ]
    return DiscreteFiniteSource(atoms, [0.4, 0.3, 0.2, 0.1])


def _key_identity(rng):
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
        worst = np.maximum(worst, float(key_identity_residual(mirror, model, source, W, etas, w_star).max()))
    return worst


def _witness_monotone(_):
    grid = [1.0, 10.0, 100.0, 1000.0, 10000.0]
    min_gap = np.inf
    for p in (1.2, 1.5, 1.8):
        for d in (2, 3, 5):
            ratios = [nonsmoothness_witness(p, d, a) for a in grid]
            gaps = np.diff(ratios)
            min_gap = np.minimum(min_gap, float(gaps.min()))
    return min_gap


def _kaczmarz(rng):
    worst = 0.0
    for _ in range(10):  # 10,000 samples, drawn and scored as stacks of 1,000
        W, X = rng.standard_normal((2, 1000, 4))
        y = rng.standard_normal(1000)
        eta = rng.uniform(0.01, 1.5, size=(1000, 1))
        a = omd_step(EuclideanMap(), LossModel(LeastSquares()), W, X, y, eta)
        worst = np.maximum(worst, float(np.abs(a - kaczmarz_step(W, X, y, eta)).max()))
    return worst


def _off_kinks(a, y):
    """Where the pair (a, y) is at least 1e-3 from the huber and squared-hinge kinks, at which phi'' jumps."""
    return (np.abs(np.abs(a - y) - 1.0) >= 1e-3) & (np.abs(a * y - 1.0) >= 1e-3)


def _loss_gradients(rng):
    # Each sweep's stacks are freed before the next draws its own.
    return np.maximum(_loss_derivatives(rng), _model_gradients(rng))


def _loss_derivatives(rng):
    losses = [LeastSquares(), Logistic(), Sigmoid(), SquaredHinge(), Huber()]
    h = 1e-6
    worst = 0.0
    # (a, y) pairs in the order a draw per pair would give, less those near the kinks;
    # each loss's next 1,000 score phi' and, if convex, phi''.
    A, Y = rng.uniform((-4.0, -1.0), (4.0, 1.0), size=(6000, 2)).T
    keep = _off_kinks(A, Y)
    rows = [z[keep][:1000 * len(losses)].reshape(len(losses), 1000) for z in (A, Y)]
    for loss, a, y in zip(losses, *rows):
        pairs = [(loss.value, loss.derivative)] + ([(loss.derivative, loss.curvature)] if loss.convex else [])
        for f, df in pairs:
            fd = (f(a + h, y) - f(a - h, y)) / (2.0 * h)
            worst = np.maximum(worst, float(np.abs(fd - df(a, y)).max()))
    return worst


def _model_gradients(rng):
    """The largest gap between ``LossModel.gradient`` and central differences of
    ``LossModel.f_value`` along each coordinate, for each convex loss at lam = 0
    and 0.2, which checks the chain rule and the 2 lam w term.  Points whose
    margin is near a kink are dropped; a step of h |x_j| < 1e-5 keeps the rest off it."""
    h = 1e-6
    steps = h * np.concatenate([np.eye(4), -np.eye(4)])  # w + h e_j, then w - h e_j
    worst = 0.0
    for loss in (LeastSquares(), Logistic(), SquaredHinge(), Huber()):
        for lam in (0.0, 0.2):
            model = LossModel(loss, lam)
            W, X = rng.standard_normal((2, 100, 4))
            y = rng.uniform(-1.0, 1.0, size=100)
            keep = _off_kinks(np.vecdot(W, X), y)
            W, X, y = W[keep], X[keep], y[keep]
            # (points, coordinates) differences, with the samples shared along the steps
            f = model.f_value(W[:, None] + steps, X[:, None], y[:, None])
            fd = (f[:, :4] - f[:, 4:]) / (2.0 * h)
            worst = np.maximum(worst, float(np.abs(fd - model.gradient(W, X, y)).max()))
    return worst


def _loss_lipschitz(_):
    losses = [LeastSquares(), Logistic(), Sigmoid(), SquaredHinge(), Huber()]
    a_grid = np.linspace(-6.0, 6.0, 1201)
    # 21 labels, taken as 7 blocks of 3 rows
    label_blocks = np.linspace(-1.0, 1.0, 21).reshape(7, 3, 1)
    worst = -np.inf  # max of (quotient - declared constant)
    for loss in losses:
        for labels in label_blocks:
            quot = np.abs(np.diff(loss.derivative(a_grid, labels))) / np.diff(a_grid)
            worst = np.maximum(worst, float(quot.max()) - loss.lipschitz)
    return worst


def _one_step_contract(rng):
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
        worst = np.minimum(worst, float((bound - e_next).min()))
    return worst


def _omega(_):
    worst = 0.0
    for p in (4.0 / 3.0, 1.5, 2.0):
        # branch agreement at u = 1: the upper branch there against the lower one an ulp below
        worst = np.maximum(worst, abs(omega_p(p, 1.0) - omega_p(p, np.nextafter(1.0, 0.0))))
        second = np.diff(omega_p(p, np.arange(601) / 200.0), 2)
        worst = np.maximum(worst, float((-second).max()))
    return worst


def _mean_gradient_zero(_):
    # zero-variance source: exact mean gradient norm vanishes at the minimizer
    source = orthonormal_atom_source(np.eye(3), [1 / 6] * 3, w_star=np.array([1.0, -0.5, 0.25]))
    model = LossModel(LeastSquares())
    return mean_gradient_norm(source, model, minimizer(source, model))


CHECKS: list[tuple[str, Callable[[int], tuple[bool, float, float]]]] = [
    ("holder_inequality", _at_most(1e-12, _holder)),
    ("triangle_inequality", _at_most(1e-12, _triangle)),
    ("gradient_round_trip", _at_most(1e-10, _round_trip)),
    ("gradient_norm_identity", _at_most(1e-10, _gradient_norm_identity)),
    ("strong_convexity", _at_most(1e-10, _strong_convexity)),
    ("strong_smoothness", _at_most(1e-10, _strong_smoothness)),
    ("bregman_sum_identity", _at_most(1e-10, _bregman_sum)),
    ("bregman_duality", _at_most(1e-9, _bregman_duality)),
    ("pnorm_bregman_upper", _at_most(1e-12, _pnorm_upper)),
    ("pnorm_lower_control", _at_most(1.0 + 1e-12, _pnorm_lower_control)),
    ("incremental_condition", _at_most(1e-8, _incremental)),
    ("cocoercivity_margin", _at_least(-1e-10, _cocoercivity)),
    ("fenchel_conjugate_bruteforce", _at_most(1e-9, _fenchel_conjugate)),
    ("key_identity", _at_most(1e-10, _key_identity)),
    ("nonsmoothness_witness_monotone", _above(0.0, _witness_monotone)),
    ("kaczmarz_equivalence", _at_most(1e-15, _kaczmarz)),
    ("loss_gradient_fd", _at_most(1e-6, _loss_gradients)),
    ("loss_lipschitz_quotients", _at_most(1e-8, _loss_lipschitz)),
    ("one_step_distance_contract", _at_least(-1e-9, _one_step_contract)),
    ("omega_continuity_convexity", _at_most(1e-12, _omega)),
    ("zero_variance_gradient", _at_most(1e-10, _mean_gradient_zero)),
]

CHECK_NAMES = [name for name, _ in CHECKS]


def run_verification() -> list[CheckResult]:
    """Run every registered check with its fixed stream; deterministic output."""
    return [CheckResult(name, *fn(offset)) for offset, (name, fn) in enumerate(CHECKS)]
