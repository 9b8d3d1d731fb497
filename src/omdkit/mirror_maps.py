"""Mirror-map potentials, their gradients and inverses, and Bregman distances.

Three potentials are provided: the Euclidean half-squared norm, the squared
p-norm potential (1 < p <= 2), and a smoothed-l1 potential built from a
Huber-type scalar penalty.  Each map fixes its natural reference norm (the
p-norm for the p-norm potential, the Euclidean norm otherwise), and exposes
the strong-convexity / strong-smoothness moduli it attains with respect to
that norm.  Gradients and inverse gradients are exact closed forms; the
inverse of the p-norm gradient is the gradient of the dual-exponent
potential.  Every formula acts on the last axis, so it takes a point or a
stack of points, one per row (what the batched Monte Carlo engine steps);
the potential and the Bregman distance of a point are Python floats.  The
Bregman distance is value(t) - value(b) - <t - b, grad(b)>, which cancels
near t = b; the Euclidean map, and the p-norm map at p = 2, whose potential
is the Euclidean one, compute it as (1/2) ||t - b||^2 instead.
"""

from __future__ import annotations

import numpy as np

from .geometry import (
    EUCLIDEAN,
    NormSpec,
    as_points,
    as_result,
    check_exponent,
    dual_exponent,
    p_norm,
    row_inner,
    unchecked_p_norm,
)

__all__ = [
    "MirrorMap",
    "EuclideanMap",
    "PNormMap",
    "SmoothedL1Map",
    "pnorm_potential",
    "pnorm_gradient",
    "pnorm_bregman",
    "tau",
    "omega_p",
    "b_p_constant",
    "norm_power_conjugate",
]


def _bregman_pair(target, base):
    """The two arguments of a Bregman distance as points or stacks of one dimension."""
    t, b = as_points(target), as_points(base)
    if t.shape[-1] != b.shape[-1]:
        raise ValueError(f"dimension mismatch: {t.shape[-1]} vs {b.shape[-1]}")
    return t, b


def _half_squared_distance(target, base):
    """(1/2) ||target - base||_2^2, the Bregman distance of (1/2) ||.||_2^2 without cancellation."""
    t, b = _bregman_pair(target, base)
    diff = t - b
    return as_result(0.5 * row_inner(diff, diff))


def _bregman(value, grad, target, base):
    """value(target) - value(base) - <target - base, grad(base)>; either argument may be a stack."""
    t, b = _bregman_pair(target, base)
    return as_result(value(t) - value(b) - row_inner(t - b, grad(b)))


# -- squared-p-norm helpers (valid for any exponent q in (1, inf)) -----------

def pnorm_potential(w, q: float):
    """(1/2) ||w||_q^2."""
    return as_result(0.5 * unchecked_p_norm(np.asarray(w, dtype=np.float64), check_exponent(q)) ** 2)


def pnorm_gradient(w, q: float) -> np.ndarray:
    """Gradient ||w||_q^{2-q} (sgn(w_j) |w_j|^{q-1})_j, with value 0 at w = 0."""
    q = check_exponent(q)
    w = np.asarray(w, dtype=np.float64)
    n = unchecked_p_norm(w, q)
    # A zero row has sign 0 in every coordinate, so any finite scale keeps it
    # at 0, the limit along every ray.  n + (n == 0) puts in 1 for a zero norm
    # and, unlike np.where, keeps a point's norm a numpy scalar, whose power
    # is libm's; an array's power may differ from it in the last digit.
    scale = (n + (n == 0.0)) ** (2.0 - q)
    return scale[..., None] * np.sign(w) * np.abs(w) ** (q - 1.0)


def pnorm_bregman(target, base, q: float):
    return _bregman(lambda w: pnorm_potential(w, q), lambda w: pnorm_gradient(w, q), target, base)


# -- mirror maps --------------------------------------------------------------

class MirrorMap:
    """A strongly convex potential with gradient, inverse gradient, and moduli.

    ``value``, ``grad``, ``grad_inv`` and ``bregman`` take a point or a stack.
    """

    norm: NormSpec = EUCLIDEAN

    def value(self, w):
        raise NotImplementedError

    def grad(self, w) -> np.ndarray:
        raise NotImplementedError

    def grad_inv(self, v) -> np.ndarray:
        raise NotImplementedError

    def strong_convexity(self) -> float:
        """Modulus sigma with D(t, b) >= (sigma/2) ||t - b||^2 in the reference norm."""
        raise NotImplementedError

    def smoothness(self) -> float | None:
        """Modulus L with D(t, b) <= (L/2) ||t - b||^2, or None if no such L exists."""
        raise NotImplementedError

    def bregman(self, target, base):
        """D(target, base) = value(target) - value(base) - <target - base, grad(base)>."""
        return _bregman(self.value, self.grad, target, base)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class EuclideanMap(MirrorMap):
    """(1/2) ||w||_2^2; the gradient is the identity, so mirror steps are plain steps."""

    norm = EUCLIDEAN

    def value(self, w):
        return as_result(0.5 * row_inner(w, w))

    def grad(self, w) -> np.ndarray:
        return np.asarray(w, dtype=np.float64)

    def grad_inv(self, v) -> np.ndarray:
        return np.asarray(v, dtype=np.float64)

    def bregman(self, target, base):
        """(1/2) ||target - base||_2^2, the generic difference without its
        cancellation, so it is never negative, even next to the optimum."""
        return _half_squared_distance(target, base)

    def strong_convexity(self) -> float:
        return 1.0

    def smoothness(self) -> float | None:
        return 1.0


class PNormMap(MirrorMap):
    """(1/2) ||w||_p^2 with 1 < p <= 2, measured in its own p-norm.

    Strongly convex with modulus p - 1; not strongly smooth for p < 2 in
    dimension > 1.  The inverse gradient is the gradient of the dual
    potential (1/2) ||.||_q^2 with 1/p + 1/q = 1.
    """

    def __init__(self, p: float):
        p = check_exponent(p)
        if p > 2.0:
            raise ValueError(f"p-norm potential requires p in (1, 2], got {p}")
        self.p = p
        self.dual_p = dual_exponent(p)
        self.norm = NormSpec(p)

    def value(self, w):
        return pnorm_potential(w, self.p)

    def grad(self, w) -> np.ndarray:
        return pnorm_gradient(w, self.p)

    def grad_inv(self, v) -> np.ndarray:
        return pnorm_gradient(v, self.dual_p)

    def bregman(self, target, base):
        """The generic difference for p < 2; at p = 2 the potential is the
        Euclidean one, whose distance (1/2) ||target - base||_2^2 never cancels."""
        if self.p == 2.0:
            return _half_squared_distance(target, base)
        return super().bregman(target, base)

    def strong_convexity(self) -> float:
        return self.p - 1.0

    def smoothness(self) -> float | None:
        return 1.0 if self.p == 2.0 else None

    def __repr__(self) -> str:
        return f"PNormMap(p={self.p!r})"


class SmoothedL1Map(MirrorMap):
    """lam * sum_j huber_eps(w_j) + (1/2) ||w||_2^2, measured in the 2-norm.

    huber_eps(t) = t^2 / (2 eps) for |t| <= eps and |t| - eps/2 beyond, so the
    potential is 1-strongly convex and (1 + lam/eps)-strongly smooth.  The
    gradient is strictly increasing and piecewise linear per coordinate, which
    gives the explicit inverse below (branch switch at |v| = lam + eps).
    """

    norm = EUCLIDEAN

    def __init__(self, epsilon: float, lam: float):
        if not epsilon > 0.0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        if not lam > 0.0:
            raise ValueError(f"lam must be positive, got {lam}")
        self.epsilon = float(epsilon)
        self.lam = float(lam)

    def value(self, w):
        w = np.asarray(w, dtype=np.float64)
        a = np.abs(w)
        hub = np.where(a <= self.epsilon, w * w / (2.0 * self.epsilon), a - 0.5 * self.epsilon)
        return as_result(self.lam * hub.sum(axis=-1) + 0.5 * row_inner(w, w))

    def grad(self, w) -> np.ndarray:
        w = np.asarray(w, dtype=np.float64)
        slope = np.where(np.abs(w) <= self.epsilon, w / self.epsilon, np.sign(w))
        return self.lam * slope + w

    def grad_inv(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        thr = self.lam + self.epsilon
        return np.where(
            np.abs(v) <= thr,
            v * (self.epsilon / thr),
            v - self.lam * np.sign(v),
        )

    def strong_convexity(self) -> float:
        return 1.0

    def smoothness(self) -> float | None:
        return 1.0 + self.lam / self.epsilon

    def __repr__(self) -> str:
        return f"SmoothedL1Map(epsilon={self.epsilon!r}, lam={self.lam!r})"


# -- convexity-control machinery ----------------------------------------------

def tau(p: float) -> float:
    """tau_p = 2 / min(p, 3 - p) for p in (1, 2]."""
    p = float(p)
    if not (1.0 < p <= 2.0):
        raise ValueError(f"tau requires p in (1, 2], got {p}")
    return 2.0 / min(p, 3.0 - p)


def omega_p(p: float, u: float) -> float:
    """Huber-like control function: u + 1/tau_p - 1 for u >= 1, u^tau_p / tau_p below."""
    t = tau(p)
    u = float(u)
    if u < 0.0:
        raise ValueError(f"control function argument must be nonnegative, got {u}")
    if u >= 1.0:
        return u + 1.0 / t - 1.0
    return (u ** t) / t


def b_p_constant(p: float, target_norm: float) -> float:
    """min(C, C^tau_p) with C = (2 (2 r)^{2-p} + 2 r^{p-1} + 2)^{-1}, r = target_norm."""
    p = float(p)
    if not (1.0 < p < 2.0):
        raise ValueError(f"b_p_constant requires p in (1, 2), got {p}")
    r = float(target_norm)
    if r < 0.0:
        raise ValueError(f"target_norm must be nonnegative, got {r}")
    # 0^s = 0 for s > 0, so r = 0 gives C = 1/2 continuously.
    c = 1.0 / (2.0 * (2.0 * r) ** (2.0 - p) + 2.0 * r ** (p - 1.0) + 2.0)
    return min(c, c ** tau(p))


def norm_power_conjugate(kappa: float, v, norm: NormSpec = EUCLIDEAN) -> float:
    """Fenchel conjugate of (1/kappa) ||.||^kappa at v: ((kappa-1)/kappa) ||v||_*^{kappa/(kappa-1)}."""
    kappa = float(kappa)
    if not kappa > 1.0:
        raise ValueError(f"kappa must exceed 1, got {kappa}")
    dual_norm = p_norm(v, norm.dual.p)
    return (kappa - 1.0) / kappa * dual_norm ** (kappa / (kappa - 1.0))
