"""Sample sources z = (x, y): finite discrete supports with exact
expectations, and a clipped-Gaussian linear model.

Each source gives its second moments ``covariance()`` and ``mean_xy()``
exactly, and under least squares the population gradient and minimizer come
from them alone.  The Gaussian source clips features to an l2 ball of the
declared radius, which keeps sup ||x||_q <= radius for every dual exponent
q >= 2 and leaves the second moments in closed form (chi-square tails at
integer degrees of freedom, summed in ``_chi2_tails`` from ``math.exp`` and
``math.erfc``).  Every other population quantity, damped Newton's minimizer
included, comes from probability-weighted sums over a discrete source's atoms,
and ``_discrete`` refuses any other source with a ValueError naming the quantity.
A discrete source's ``kaczmarz_operators`` are such sums too, taken once: the
fixed operators of the Euclidean least-squares error step, which the exact
Kaczmarz moments read at every step in place of the atoms.

Run ``seed`` of a Monte Carlo curve reads the Philox stream ``_rng(seed)`` in
the layout ``draw_arrays`` defines.  Each source's ``stream`` draws a block
of runs' samples in that layout a span of steps at a time and hands them
over one step at a time; ``_stream_bytes`` counts what it holds per run.  A
discrete run draws its uniforms 256 steps to a generator call, and an exact
bucket table over the cumulative probabilities, ``_atom_index``, turns them
into the atom indices ``np.searchsorted`` gives, 16 steps of samples at a
time.  A Gaussian run draws its normals 64 steps at a time, and its stream
clips and labels them in its own buffers.

Under least squares, ``least_squares_system`` gives the covariance's spectrum
and the minimizer's solve; a covariance exactly diagonal, as every Gaussian
source's and every unrotated orthonormal source's is, takes them in closed
form, bit for bit LAPACK's, and no LAPACK routine runs.
"""

import enum
import math
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .geometry import (DIVERGENCE_LIMIT, SQUARE_MAX, as_vector, check_exponent, check_interval, p_norm,
                       row_inner, row_sum)
from .losses import LeastSquares, LossModel

__all__ = [
    "Sample",
    "VarianceRegime",
    "DiscreteFiniteSource",
    "GaussianLinearSource",
    "SampleSource",
    "orthonormal_atom_source",
    "draw_arrays",
    "population_gradient",
    "minimizer",
    "mean_gradient_norm",
    "classify_variance",
]

_PROB_TOL = 1e-12
_OPTIMALITY_TOL = 1e-8
_ZERO_VARIANCE_TOL = 1e-10
# Steps of uniforms a discrete run draws per generator call.  A call costs
# about as much as drawing 130 uniforms, so a call per 256 steps keeps the
# calls' cost to about half the uniforms' own.
_UNIFORM_SPAN = 256
# Steps of samples a discrete stream looks up and gathers at once.  On the
# discrete benchmark config (200 runs), gathers of 32 and 64 steps were at
# most 10 % faster and held 1.3 and 2.0 times as much at peak.
_GATHER = 16
# Steps of normals a Gaussian run draws at once.  At 256, 100 runs of the
# Gaussian benchmark workload took 7 % more peak memory and no less time.
_NORMAL_CHUNK = 64


class Sample(NamedTuple):
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
        check_interval("probabilities", p, 0.0, 1.0, closed_high=True)
        if abs(float(p.sum()) - 1.0) > _PROB_TOL:
            raise ValueError(f"probabilities sum to {p.sum()!r}, not 1")
        self.probs = p
        # Clipped at 1 so that it never decreases; a uniform u < 1 compares
        # with an entry past 1 as with 1 itself, so no draw moves.
        self._cum = np.minimum(np.cumsum(p), 1.0)
        self._cum[-1] = 1.0
        # The bucket table: K is a power of two, so the edges k/K and u*K are
        # exact.  Bucket [k/K, (k+1)/K) is pure when no entry of _cum lies
        # strictly inside it; every u in it then has the searchsorted index of
        # k/K, which the table holds.  An impure bucket holds -1.
        K = 1 << max(10, (4 * len(p) - 1).bit_length())
        edges = np.arange(K + 1) / K
        lo = np.searchsorted(self._cum, edges[:-1], side="right")
        hi = np.searchsorted(self._cum, edges[1:], side="left")
        self._buckets = np.where(lo == hi, lo, -1)

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @property
    def n_atoms(self) -> int:
        return self.X.shape[0]

    def radius(self, q: float = 2.0) -> float:
        """The largest q-norm of an atom's features."""
        return float(p_norm(self.X, q).max())

    def covariance(self) -> np.ndarray:
        return (self.probs[:, None] * self.X).T @ self.X

    def mean_xy(self) -> np.ndarray:
        return self.X.T @ (self.probs * self.y)

    def kaczmarz_operators(self, lam: float, w_star) -> tuple[np.ndarray, ...]:
        """The fixed operators of the least-squares error step under the
        Euclidean map, e <- a e - eta P e + eta g with a = 1 - 2 eta lam,
        P = x x^T, g = xi x - 2 lam w* and xi = y - <x, w*>:
        (E[P], E[g], E[P (x) P], E[x (x) x (x) g], E[g g^T]), the third- and
        fourth-order ones as (d, d, d) and (d, d, d, d) arrays, one axis per
        factor.  E[P] is ``covariance()``."""
        w_star = as_vector(w_star)
        G = (self.y - self.X @ w_star)[:, None] * self.X - (2.0 * lam) * w_star
        P = self.X[:, :, None] * self.X[:, None, :]
        pP = self.probs[:, None, None] * P
        return (self.covariance(), self.probs @ G, np.einsum("kij,klm->ijlm", pP, P),
                np.einsum("kij,kl->ijl", pP, G), (self.probs[:, None] * G).T @ G)

    def _atom_index(self, u: np.ndarray) -> np.ndarray:
        """``np.searchsorted(self._cum, u, side="right")`` exactly, for uniforms
        ``u`` in [0, 1): one table lookup, and a binary search only for the
        uniforms in impure buckets."""
        idx = self._buckets.take((u * len(self._buckets)).astype(np.intp))
        impure = idx < 0
        if impure.any():
            idx[impure] = np.searchsorted(self._cum, u[impure], side="right")
        return idx

    def _stream_bytes(self, n: int) -> int:
        """The most ``stream`` holds per run over n steps: a span of uniforms,
        the atom indices of a gather, and two gathers of features and labels,
        the one the caller still holds and the next."""
        return 8 * (min(n, _UNIFORM_SPAN) + (2 * self.d + 3) * min(n, _GATHER))

    def stream(self, seeds: Sequence[int], n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The first n draws of the runs seeded ``seeds``, yielded one step at
        a time: (X, y) with X[r] and y[r] run r's draw for that step.  Each run
        draws its uniforms _UNIFORM_SPAN steps to a call, and their samples
        are gathered _GATHER steps at a time.  Each uniform takes one Philox
        word, so a run's spans of uniforms are the ones ``draw_arrays`` takes
        at once."""
        rngs = [_rng(seed) for seed in seeds]
        u = np.empty((len(rngs), min(_UNIFORM_SPAN, n)))
        for c in range(0, n, _UNIFORM_SPAN):
            m = min(_UNIFORM_SPAN, n - c)
            for r, rng in enumerate(rngs):
                rng.random(out=u[r, :m])
            for g in range(0, m, _GATHER):
                idx = self._atom_index(u[:, g:min(g + _GATHER, m)].T)
                yield from zip(self.X.take(idx, axis=0), self.y.take(idx))


class GaussianLinearSource:
    """x = scale * g clipped to the l2 ball of the given radius, y = <w_true, x> + noise."""

    def __init__(self, w_true, noise_sd: float, feature_scale: float = 1.0, radius: float = 10.0):
        self.w_true = check_interval("w_true", as_vector(w_true), -SQUARE_MAX, SQUARE_MAX,
                                     closed_low=True, closed_high=True)
        self.noise_sd = check_interval("noise_sd", noise_sd, 0.0, SQUARE_MAX, closed_low=True)
        # covariance() squares feature_scale and radius / feature_scale as
        # Python floats, whose ** raises OverflowError past the largest float.
        self._radius = check_interval("radius", radius, 0.0, SQUARE_MAX)
        self.feature_scale = check_interval(
            "feature_scale", feature_scale, self._radius / SQUARE_MAX, SQUARE_MAX)
        # E[x x^T] = covariance_coef * I for the clipped isotropic Gaussian, exact
        # via chi-square tails: E[min(Q, rho^2)] = d F_{d+2}(rho^2) + rho^2 (1 - F_d(rho^2)),
        # Q ~ chi2_d, with rho = radius / feature_scale.
        d = self.d
        rho2 = (self._radius / self.feature_scale) ** 2
        second_moment = d * _chi2_tails(d + 2, rho2)[0] + rho2 * _chi2_tails(d, rho2)[1]
        self.covariance_coef = self.feature_scale ** 2 * second_moment / d

    @property
    def d(self) -> int:
        return self.w_true.shape[0]

    def radius(self, q: float = 2.0) -> float:
        """The declared radius: l2 clipping bounds every feature's q-norm by it for q >= 2."""
        check_interval("dual exponent q of the declared radius", q, 2.0, np.inf, closed_low=True)
        return self._radius

    def covariance(self) -> np.ndarray:
        return self.covariance_coef * np.eye(self.d)

    def mean_xy(self) -> np.ndarray:
        return self.covariance() @ self.w_true

    def clip_and_label(self, normals: np.ndarray, noise: np.ndarray, out=None):
        """The samples (X, y) that standard normals make: feature rows ``normals``
        (last axis of length d, one or more leading axes) and label noise
        ``noise`` (the leading axes alone).  Each row is clipped and labelled on
        its own, so a row's values do not depend on the shape of the stack it
        comes in.  ``out``, a pair of arrays shaped as ``normals`` and ``noise``,
        takes X and y in place of new arrays; it may be the pair itself."""
        X, y = (np.empty_like(normals), np.empty_like(noise)) if out is None else out
        np.multiply(self.feature_scale, normals, out=X)
        X *= np.minimum(1.0, self._radius / np.maximum(np.sqrt(row_sum(X * X)), 1e-300))[..., None]
        np.multiply(self.noise_sd, noise, out=y)
        y += row_inner(X, self.w_true)
        return X, y

    def _stream_bytes(self, n: int) -> int:
        """The most ``stream`` holds per run over n steps, in values per step
        of a chunk: its normals and noise, which it clips and labels in place
        (d + 1), and at the peak of ``clip_and_label`` the squared feature
        stack and its row sums (d + 1)."""
        return 8 * min(n, _NORMAL_CHUNK) * (2 * self.d + 2)

    def stream(self, seeds: Sequence[int], n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """As ``DiscreteFiniteSource.stream``, drawn _NORMAL_CHUNK steps at a
        time and clipped and labelled in the chunk's own buffers, so a step's
        arrays are views of the stream's buffers, valid until the next step is
        requested.  Run r reads its stream through two cursors: one at its
        feature normals, one past them at its noise, which ``draw_arrays``
        draws after every feature.  The noise cursor skips the n·d feature
        normals by drawing them into the chunk buffer before its first fill; a
        normal's words do not depend on how the draws are split into calls, so
        any split leaves the cursor at the same place."""
        d, B, C = self.d, len(seeds), min(_NORMAL_CHUNK, n)
        features = [_rng(seed) for seed in seeds]
        noises = [_rng(seed) for seed in seeds]
        normals = np.empty(B * C * d)
        noise = np.empty(B * C)
        for rng in noises:
            for s in range(0, n * d, max(normals.size, 1)):  # normals is empty only when n = 0
                rng.standard_normal(out=normals[:min(normals.size, n * d - s)])
        for c in range(0, n, _NORMAL_CHUNK):
            m = min(_NORMAL_CHUNK, n - c)
            # A short last chunk takes the buffers' heads, so every chunk is
            # contiguous: on a strided stack numpy's ufuncs take buffers of
            # their own, 64 KiB an operand.
            xs, es = normals[:B * m * d].reshape(B, m, d), noise[:B * m].reshape(B, m)
            # Iterating the chunk takes each run's rows as views one at a
            # time, so the block holds no view per run beyond the buffers.
            for feature, noise_rng, x, e in zip(features, noises, xs, es):
                feature.standard_normal(out=x)
                noise_rng.standard_normal(out=e)
            self.clip_and_label(xs, es, out=(xs, es))
            yield from zip(xs.swapaxes(0, 1), es.T)


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
    w_star = check_interval("w_star", as_vector(w_star), -SQUARE_MAX, SQUARE_MAX,
                            closed_low=True, closed_high=True)
    scale = check_interval("scale", scale, -SQUARE_MAX, SQUARE_MAX, closed_low=True, closed_high=True)
    label_noise = check_interval("label_noise", label_noise, 0.0, SQUARE_MAX, closed_low=True)
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

# The generator annotations are strings: numpy loads np.random on first
# access, and a process that draws nothing need not load it at import.
def _rng(seed: int) -> "np.random.Generator":
    """The Philox stream of run ``seed``."""
    return np.random.Generator(np.random.Philox(key=int(seed)))


def draw_arrays(source: SampleSource, rng: "np.random.Generator", n: int):
    """n i.i.d. draws as (X, y) arrays; deterministic given the generator state."""
    if isinstance(source, DiscreteFiniteSource):
        idx = source._atom_index(rng.random(n))
        return source.X[idx], source.y[idx]
    if isinstance(source, GaussianLinearSource):
        # Every feature normal first, then every noise value.
        normals = rng.standard_normal((n, source.d))
        return source.clip_and_label(normals, rng.standard_normal(n))
    raise TypeError(f"unknown source type {type(source).__name__}")


# -- exact population quantities -----------------------------------------------

def _discrete(source: SampleSource, what: str) -> DiscreteFiniteSource:
    """``source`` if it is discrete; ValueError naming ``what`` if not."""
    if not isinstance(source, DiscreteFiniteSource):
        raise ValueError(f"{what} needs a discrete source, not {type(source).__name__}")
    return source


def population_gradient(source: SampleSource, model: LossModel, w) -> np.ndarray:
    """Exact gradient of the regularized risk F(w) = E[f(w, Z)]: from the
    source's second moments under least squares, else the probability-weighted
    sum of the loss gradient over a discrete source's atoms."""
    w = as_vector(w)
    if isinstance(model.loss, LeastSquares):
        return source.covariance() @ w - source.mean_xy() + (2.0 * model.lam) * w
    source = _discrete(source, "the exact population gradient of a loss other than least-squares")
    return source.probs @ model.gradient(w, source.X, source.y)


def least_squares_system(C: np.ndarray, lam: float, b=None) -> tuple[np.ndarray, np.ndarray | None]:
    """The ascending eigenvalues of a covariance C and, given b, the solution w of
    (C + 2 lam I) w = b; w is None without b, or when lam = 0 and C is not
    positive definite.  For C exactly diagonal these are its diagonal in
    ascending order and b / (diag + 2 lam), bit for bit what LAPACK's
    ``eigvalsh`` and ``solve`` give, with no LAPACK call; any other C goes to
    LAPACK."""
    diag = C.diagonal()
    diagonal = (C == np.diag(diag)).all()
    # Python's sort: np.sort would page in numpy's SIMD sort code for d entries.
    eigs = np.array(sorted(diag.tolist())) if diagonal else np.linalg.eigvalsh(C)
    if b is None or (lam == 0.0 and not eigs[0] > _PROB_TOL):
        return eigs, None
    return eigs, b / (diag + 2.0 * lam) if diagonal else np.linalg.solve(C + 2.0 * lam * np.eye(C.shape[0]), b)


def minimizer(source: SampleSource, model: LossModel) -> np.ndarray:
    """The minimizer of the regularized risk F: in closed form under least squares, else by damped
    Newton on a discrete source until ||grad F|| stops falling, at its rounding.  ValueError when
    there is none to find, or when Newton stalls, leaves the divergence guard or takes 100 steps."""
    if not model.loss.convex:
        raise ValueError(f"minimizer undefined for the non-convex {model.loss!r}")
    if isinstance(model.loss, LeastSquares):
        eigs, w = least_squares_system(source.covariance(), model.lam, source.mean_xy())
        if w is None:
            raise ValueError(f"covariance matrix is not positive definite (lambda_min={float(eigs[0])!r})")
        return w
    source = _discrete(source, "the exact minimizer of a loss other than least-squares")
    if model.lam <= 0.0:
        raise ValueError("non-quadratic losses need lam > 0 for a guaranteed minimizer")
    # Armijo halving on F from 0; once F's fall is below its rounding, ||grad F|| must fall
    # instead, and where it stops falling it must be within 64 ulps of its terms' sizes.
    X, y, p, w = source.X, source.y, source.probs, np.zeros(source.d)
    F, g = p @ model.f_value(w, X, y), population_gradient(source, model, w)
    for _ in range(100):
        shift = 2.0 * model.lam + np.sqrt(g @ g) / DIVERGENCE_LIMIT  # keeps a step inside the guard
        H = (X.T * (p * model.loss.curvature(X @ w, y))) @ X + shift * np.eye(source.d)
        step = np.linalg.lstsq(H, g)[0]  # drops directions singular to rounding
        t, slope = 1.0, g @ step / 4.0
        while F - t * slope < F and not (np.abs(w - t * step).max() <= DIVERGENCE_LIMIT
                                          and p @ model.f_value(w - t * step, X, y) < F - t * slope):
            t /= 2.0
        g_next = population_gradient(source, model, w - t * step)
        if F - t * slope == F and not g_next @ g_next < g @ g:
            break
        w = w - t * step
        F, g = p @ model.f_value(w, X, y), g_next
    size = np.abs(X).T @ (p * np.abs(model.loss.derivative(X @ w, y))) + np.abs(H) @ np.abs(w)
    if np.abs(w).max() <= DIVERGENCE_LIMIT and g @ g <= (64.0 * np.finfo(float).eps) ** 2 * (size @ size):
        return w
    raise ValueError("damped Newton for the minimizer stalled, left the divergence guard or took 100 steps")


def mean_gradient_norm(
    source: DiscreteFiniteSource,
    model: LossModel,
    w,
    q: float = 2.0,
) -> float:
    """E ||grad f(w, Z)||_q, an exact weighted sum over a discrete support."""
    source = _discrete(source, "the exact mean gradient norm")
    norms = p_norm(model.gradient(as_vector(w), source.X, source.y), q)
    return float(source.probs @ norms)


def classify_variance(
    source: SampleSource,
    model: LossModel,
    w_star,
    q: float = 2.0,
) -> VarianceRegime:
    """Zero- vs positive-variance regime of the per-sample gradients at the
    minimizer, whose norms are measured in the q-norm."""
    q = check_exponent(q)
    w_star = as_vector(w_star)
    g = population_gradient(source, model, w_star)
    if float(np.sqrt(g @ g)) > _OPTIMALITY_TOL:
        raise ValueError("w_star fails the optimality check ||grad F(w_star)|| <= 1e-8")
    if isinstance(source, DiscreteFiniteSource):
        value = mean_gradient_norm(source, model, w_star, q)
        return VarianceRegime.ZERO if value <= _ZERO_VARIANCE_TOL else VarianceRegime.POSITIVE
    # Gaussian linear + least squares (population_gradient already enforced this):
    # the gradient at the minimizer vanishes almost surely only in the
    # noiseless unregularized case (or when the target itself is zero).
    noiseless = source.noise_sd == 0.0
    unshifted = model.lam == 0.0 or float(source.w_true @ source.w_true) == 0.0
    return VarianceRegime.ZERO if (noiseless and unshifted) else VarianceRegime.POSITIVE
