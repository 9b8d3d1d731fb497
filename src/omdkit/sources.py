"""Sample sources z = (x, y): finite discrete supports with exact
expectations, and a clipped-Gaussian linear model.

Discrete sources are the default for identity checks because every
population quantity (gradient, minimizer, mean gradient norm) is an exact
weighted sum.  The Gaussian source clips features to an l2 ball of the
declared radius, which keeps sup ||x||_q <= radius for every dual exponent
q >= 2 and leaves the second moments in closed form (chi-square tails at
integer degrees of freedom, summed in ``_chi2_tails`` from ``math.exp`` and
``math.erfc``), so its least-squares population quantities stay exact as well.

Run ``seed`` of a Monte Carlo curve reads the Philox stream ``_rng(seed)`` in
the layout ``draw_arrays`` defines.  Each source's ``stream`` yields a block
of runs' draws in that layout one chunk of steps at a time.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .geometry import EUCLIDEAN, NormSpec, as_vector, p_norm, row_inner
from .losses import LeastSquares, LossModel

__all__ = [
    "Sample",
    "VarianceRegime",
    "DiscreteFiniteSource",
    "GaussianLinearSource",
    "SampleSource",
    "orthonormal_atom_source",
    "draw",
    "draw_arrays",
    "draw_indices",
    "population_gradient",
    "minimizer",
    "mean_gradient_norm",
    "classify_variance",
]

_PROB_TOL = 1e-12
_MINIMIZER_TOL = 1e-10
_OPTIMALITY_TOL = 1e-8
_ZERO_VARIANCE_TOL = 1e-10


@dataclass(frozen=True)
class Sample:
    x: np.ndarray
    y: float


class VarianceRegime(enum.Enum):
    ZERO = "ZeroVariance"
    POSITIVE = "PositiveVariance"


class DiscreteFiniteSource:
    """A finite support {(x_i, y_i)} with positive probabilities summing to 1."""

    def __init__(self, atoms: Sequence[Sample], probs):
        if len(atoms) < 1:
            raise ValueError("need at least one atom")
        self.X = np.stack([as_vector(a.x) for a in atoms])
        self.y = np.array([float(a.y) for a in atoms], dtype=np.float64)
        if not np.isfinite(self.y).all():
            raise ValueError("labels must be finite")
        p = np.asarray(probs, dtype=np.float64)
        if p.shape != (len(atoms),):
            raise ValueError("one probability per atom required")
        if not (p > 0.0).all():
            raise ValueError("probabilities must be positive")
        if abs(float(p.sum()) - 1.0) > _PROB_TOL:
            raise ValueError(f"probabilities sum to {p.sum()!r}, not 1")
        self.probs = p
        self._cum = np.cumsum(p)
        self._cum[-1] = 1.0

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @property
    def n_atoms(self) -> int:
        return self.X.shape[0]

    def radius(self, dual_norm: NormSpec = EUCLIDEAN) -> float:
        return float(p_norm(self.X, dual_norm.p).max())

    def covariance(self) -> np.ndarray:
        return (self.probs[:, None] * self.X).T @ self.X

    def mean_xy(self) -> np.ndarray:
        return self.X.T @ (self.probs * self.y)

    def stream(self, seeds: Sequence[int], n: int, chunk: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The first n draws of the runs seeded ``seeds``, one chunk of at most
        ``chunk`` steps at a time: (X, y) with X[i, r] and y[i, r] run r's draw
        for the chunk's step i.  Each uniform takes one Philox word, so a run's
        chunks of uniforms are the ones ``draw_indices`` takes at once."""
        rngs = [_rng(seed) for seed in seeds]
        u = np.empty((len(rngs), min(chunk, n)))
        for c in range(0, n, chunk):
            m = min(chunk, n - c)
            for r, rng in enumerate(rngs):
                rng.random(out=u[r, :m])
            idx = np.searchsorted(self._cum, u[:, :m].T, side="right")
            yield self.X.take(idx, axis=0), self.y.take(idx)


class GaussianLinearSource:
    """x = scale * g clipped to the l2 ball of the given radius, y = <w_true, x> + noise."""

    def __init__(self, w_true, noise_sd: float, feature_scale: float = 1.0, radius: float = 10.0):
        self.w_true = as_vector(w_true)
        if noise_sd < 0.0:
            raise ValueError("noise_sd must be nonnegative")
        if feature_scale <= 0.0 or radius <= 0.0:
            raise ValueError("feature_scale and radius must be positive")
        self.noise_sd = float(noise_sd)
        self.feature_scale = float(feature_scale)
        self._radius = float(radius)

    @property
    def d(self) -> int:
        return self.w_true.shape[0]

    def radius(self, dual_norm: NormSpec = EUCLIDEAN) -> float:
        # l2 clipping bounds every q-norm with q >= 2 by the same radius.
        if dual_norm.p < 2.0:
            raise ValueError("declared radius only bounds dual norms with exponent >= 2")
        return self._radius

    def covariance(self) -> np.ndarray:
        # E[x x^T] of the clipped isotropic Gaussian: exact via chi-square tails,
        # E[min(Q, rho^2)] = d F_{d+2}(rho^2) + rho^2 (1 - F_d(rho^2)), Q ~ chi2_d.
        d = self.d
        rho2 = (self._radius / self.feature_scale) ** 2
        second_moment = d * _chi2_tails(d + 2, rho2)[0] + rho2 * _chi2_tails(d, rho2)[1]
        coef = self.feature_scale ** 2 * second_moment / d
        return coef * np.eye(d)

    def mean_xy(self) -> np.ndarray:
        return self.covariance() @ self.w_true

    def clip_and_label(self, normals: np.ndarray, noise: np.ndarray):
        """The samples (X, y) that standard normals make: feature rows ``normals``
        (last axis of length d, any leading axes) and label noise ``noise`` (the
        leading axes alone).  Each row is clipped and labelled on its own, so a
        row's values do not depend on the shape of the stack it comes in."""
        X = self.feature_scale * normals
        norms = np.sqrt((X * X).sum(axis=-1))
        X = X * np.minimum(1.0, self._radius / np.maximum(norms, 1e-300))[..., None]
        return X, row_inner(X, self.w_true) + self.noise_sd * noise

    def stream(self, seeds: Sequence[int], n: int, chunk: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """As ``DiscreteFiniteSource.stream``.  Run r reads its stream through two
        cursors: one at its feature normals, one past them at its noise, which
        ``draw_arrays`` draws after every feature."""
        d, B, C = self.d, len(seeds), min(chunk, n)
        features = [_rng(seed) for seed in seeds]
        noises = [_rng(seed) for seed in seeds]
        for rng in noises:
            for c in range(0, n, chunk):
                rng.standard_normal(min(chunk, n - c) * d)
        normals = np.empty((B, C, d))
        noise = np.empty((B, C))
        for c in range(0, n, chunk):
            m = min(chunk, n - c)
            for r in range(B):
                features[r].standard_normal(out=normals[r, :m])
                noises[r].standard_normal(out=noise[r, :m])
            X, y = self.clip_and_label(normals[:, :m], noise[:, :m])
            yield X.swapaxes(0, 1), y.T


SampleSource = DiscreteFiniteSource | GaussianLinearSource


def _chi2_tails(k: int, x: float) -> tuple[float, float]:
    """(F_k(x), 1 - F_k(x)) of the chi-square law with k >= 1 degrees of freedom at x >= 0.

    With h = x/2, a = k/2 and t_i = e^{-h} h^i / Gamma(i + 1) for i = 1/2, 3/2,
    ... (odd k) or i = 0, 1, ... (even k), the tails are
    Q = [erfc(sqrt(h)) for odd k] + sum_{i < a} t_i and P = sum_{i >= a} t_i.
    Below the mean (x < k) P comes from its series, since 1 - Q would cancel
    there, and above it Q from its finite sum.  Both walk away from t_a, one
    product per term, so each tail is good to a few ulps, plus about h ulps
    from rounding sqrt(h) in erfc.  t_a is a chain of products from e^{-h}
    while that is a normal float; past h = 700 it comes from logarithms and
    is good to about h + a log(h) ulps.
    """
    h, a = 0.5 * x, 0.5 * k
    odd = k % 2 == 1
    if h < 700.0:
        i, t = (0.5, 2.0 * math.exp(-h) * math.sqrt(h / math.pi)) if odd else (0.0, math.exp(-h))
        while i < a:
            i += 1.0
            t *= h / i
    else:
        t = math.exp(a * math.log(h) - h - math.lgamma(a + 1.0))
    if x < k:
        p, i = 0.0, a
        while p + t != p:
            p += t
            i += 1.0
            t *= h / i
        return p, 1.0 - p
    q, i = (math.erfc(math.sqrt(h)) if odd else 0.0), a
    while i > 0.75:
        t *= i / h
        i -= 1.0
        q += t
    return 1.0 - q, q


def orthonormal_atom_source(
    directions: np.ndarray,
    weights,
    w_star,
    scale: float = 1.0,
    label_noise: float = 0.0,
) -> DiscreteFiniteSource:
    """Atoms +-scale*u_j over orthonormal rows u_j, labels y = <w_star, x>.

    ``weights[j]`` is the probability of each of the two signs of direction j
    (so the weights sum to 1/2).  With ``label_noise`` > 0 every atom splits
    into labels y +- label_noise at half its probability, which leaves the
    covariance and the cross-moment E[XY] unchanged: the least-squares
    minimizer stays exactly at ``w_star`` while the gradient variance there
    becomes positive.
    """
    U = np.atleast_2d(np.asarray(directions, dtype=np.float64))
    wts = np.asarray(weights, dtype=np.float64)
    if wts.shape != (U.shape[0],):
        raise ValueError("one weight per direction required")
    if abs(2.0 * wts.sum() - 1.0) > _PROB_TOL:
        raise ValueError("direction weights must sum to 1/2")
    gram = U @ U.T
    if not np.allclose(gram, np.eye(U.shape[0]), atol=1e-12):
        raise ValueError("directions must be orthonormal")
    w_star = as_vector(w_star)
    atoms, probs = [], []
    for u, wt in zip(U, wts):
        for sign in (1.0, -1.0):
            x = sign * scale * u
            y = float(w_star @ x)
            if label_noise > 0.0:
                atoms.append(Sample(x, y + label_noise))
                atoms.append(Sample(x, y - label_noise))
                probs.extend([wt / 2.0, wt / 2.0])
            else:
                atoms.append(Sample(x, y))
                probs.append(wt)
    return DiscreteFiniteSource(atoms, probs)


# -- sampling ------------------------------------------------------------------

def _rng(seed: int) -> np.random.Generator:
    """The Philox stream of run ``seed``."""
    return np.random.Generator(np.random.Philox(key=int(seed)))


def draw_indices(source: DiscreteFiniteSource, rng: np.random.Generator, n: int) -> np.ndarray:
    """The atom indices of n i.i.d. draws; deterministic given the generator state."""
    return np.searchsorted(source._cum, rng.random(n), side="right")


def draw_arrays(source: SampleSource, rng: np.random.Generator, n: int):
    """n i.i.d. draws as (X, y) arrays; deterministic given the generator state."""
    if isinstance(source, DiscreteFiniteSource):
        idx = draw_indices(source, rng, n)
        return source.X[idx], source.y[idx]
    if isinstance(source, GaussianLinearSource):
        # Every feature normal first, then every noise value.
        normals = rng.standard_normal((n, source.d))
        return source.clip_and_label(normals, rng.standard_normal(n))
    raise TypeError(f"unknown source type {type(source).__name__}")


def draw(source: SampleSource, rng: np.random.Generator) -> Sample:
    X, y = draw_arrays(source, rng, 1)
    return Sample(X[0], float(y[0]))


# -- exact population quantities -----------------------------------------------

def population_gradient(source: SampleSource, model: LossModel, w) -> np.ndarray:
    """Exact gradient of the regularized risk F(w) = E[f(w, Z)]."""
    w = as_vector(w)
    if isinstance(source, DiscreteFiniteSource):
        if w.shape[0] != source.d:
            raise ValueError("dimension mismatch between w and source")
        a = source.X @ w
        der = np.asarray(model.loss.derivative(a, source.y), dtype=np.float64)
        g = (source.probs * der) @ source.X
        if model.lam:
            g = g + (2.0 * model.lam) * w
        return g
    if isinstance(source, GaussianLinearSource):
        if not isinstance(model.loss, LeastSquares):
            raise ValueError("exact population gradient for a Gaussian source needs the least-squares loss")
        if w.shape[0] != source.d:
            raise ValueError("dimension mismatch between w and source")
        return source.covariance() @ w - source.mean_xy() + (2.0 * model.lam) * w
    raise TypeError(f"unknown source type {type(source).__name__}")


def _check_positive_definite(C: np.ndarray) -> float:
    """Return lambda_min after a factorization-based positive-definiteness check."""
    try:
        np.linalg.cholesky(C)
    except np.linalg.LinAlgError as exc:
        raise ValueError("covariance matrix is not positive definite") from exc
    lam_min = float(np.linalg.eigvalsh(C)[0])
    if lam_min <= _PROB_TOL:
        raise ValueError(f"covariance matrix is numerically singular (lambda_min={lam_min!r})")
    return lam_min


def minimizer(source: SampleSource, model: LossModel) -> np.ndarray:
    """The exact (or to 1e-10 gradient norm) minimizer of the regularized risk."""
    if not model.loss.convex:
        raise ValueError(f"minimizer undefined for the non-convex {model.loss!r}")
    if isinstance(model.loss, LeastSquares):
        C = source.covariance()
        if model.lam == 0.0:
            _check_positive_definite(C)
        A = C + 2.0 * model.lam * np.eye(C.shape[0])
        return np.linalg.solve(A, source.mean_xy())
    if not isinstance(source, DiscreteFiniteSource):
        raise ValueError("exact minimizer for a Gaussian source needs the least-squares loss")
    if model.lam <= 0.0:
        raise ValueError("non-quadratic losses need lam > 0 for a guaranteed minimizer")
    # Full-gradient descent; strong convexity from the regularizer gives a
    # linear rate with step 1/L.
    L = model.smoothness_bound(source.radius(EUCLIDEAN))
    step = 1.0 / L
    w = np.zeros(source.d)
    for _ in range(500_000):
        g = population_gradient(source, model, w)
        if float(np.sqrt(g @ g)) <= _MINIMIZER_TOL:
            return w
        w = w - step * g
    raise RuntimeError("full-gradient descent failed to reach the gradient tolerance")


def mean_gradient_norm(
    source: DiscreteFiniteSource,
    model: LossModel,
    w,
    dual_norm: NormSpec = EUCLIDEAN,
) -> float:
    """E ||grad f(w, Z)||_*, an exact weighted sum over a discrete support."""
    if not isinstance(source, DiscreteFiniteSource):
        raise TypeError(f"the mean gradient norm is exact only on a discrete source, not {type(source).__name__}")
    norms = p_norm(model.gradient(as_vector(w), source.X, source.y), dual_norm.p)
    return float(source.probs @ norms)


def classify_variance(
    source: SampleSource,
    model: LossModel,
    w_star,
    dual_norm: NormSpec = EUCLIDEAN,
) -> VarianceRegime:
    """Zero- vs positive-variance regime of the per-sample gradients at the minimizer."""
    w_star = as_vector(w_star)
    g = population_gradient(source, model, w_star)
    if float(np.sqrt(g @ g)) > _OPTIMALITY_TOL:
        raise ValueError("w_star fails the optimality check ||grad F(w_star)|| <= 1e-8")
    if isinstance(source, DiscreteFiniteSource):
        value = mean_gradient_norm(source, model, w_star, dual_norm)
        return VarianceRegime.ZERO if value <= _ZERO_VARIANCE_TOL else VarianceRegime.POSITIVE
    # Gaussian linear + least squares (population_gradient already enforced this):
    # the gradient at the minimizer vanishes almost surely only in the
    # noiseless unregularized case (or when the target itself is zero).
    noiseless = source.noise_sd == 0.0
    unshifted = model.lam == 0.0 or float(source.w_true @ source.w_true) == 0.0
    return VarianceRegime.ZERO if (noiseless and unshifted) else VarianceRegime.POSITIVE
