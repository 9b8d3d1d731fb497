"""Mirror-map potentials, their gradients and inverses, and Bregman distances.

Two families of potentials are provided: the squared p-norm potential
(1 < p <= 2), whose p = 2 member is the Euclidean half-squared norm
(``EuclideanMap`` is ``PNormMap(2.0)``), and a smoothed-l1 potential built
from a Huber-type scalar penalty.  Each map fixes its natural reference norm
(the p-norm for the p-norm potential, the Euclidean norm otherwise), and
exposes the strong-convexity / strong-smoothness moduli it attains with
respect to that norm.  Gradients and inverse gradients are exact closed
forms; the inverse of the p-norm gradient is the gradient of the
dual-exponent potential, and at exponent 2 the gradient is the identity.
Every formula acts on the last axis, so it takes a point or a stack of
points, one per row (what the batched Monte Carlo engine steps); the
potential and the Bregman distance of a point are Python floats.  The
control functions ``omega_p`` and ``b_p_constant`` take a number, giving a
Python float, or an array, taken entry by entry.  The Bregman distance is
value(t) - value(b) - <t - b, grad(b)>, which cancels near t = b; at
exponent 2 ``pnorm_bregman`` computes it as (1/2) ||t - b||^2 instead.
"""

from __future__ import annotations

import numpy as np

from .geometry import (
    EUCLIDEAN,
    NormSpec,
    _p_norm_of_abs,
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


def _bregman(value, grad, target, base):
    """value(target) - value(base) - <target - base, grad(base)>; either argument may be a stack."""
    t, b = _bregman_pair(target, base)
    return as_result(value(t) - value(b) - row_inner(t - b, grad(b)))


# -- squared-p-norm helpers (valid for any exponent q in (1, inf)) -----------

def pnorm_potential(w, q: float):
    """(1/2) ||w||_q^2."""
    return as_result(0.5 * unchecked_p_norm(np.asarray(w, dtype=np.float64), check_exponent(q)) ** 2)


def pnorm_gradient(w, q: float) -> np.ndarray:
    """Gradient ||w||_q^{2-q} (sgn(w_j) |w_j|^{q-1})_j, with value 0 at w = 0.

    At q = 2 that is w itself, which is returned (a -0.0 entry stays -0.0)."""
    q = check_exponent(q)
    w = np.asarray(w, dtype=np.float64)
    if q == 2.0:
        return w
    a = np.abs(w)
    g = a ** (q - 1.0)
    n = _p_norm_of_abs(a, q)
    # A zero row has sign 0 in every coordinate, so any finite scale keeps it
    # at 0, the limit along every ray.  n + (n == 0) puts in 1 for a zero norm
    # and, unlike np.where, keeps a point's norm a numpy scalar, whose power
    # is libm's; an array's power may differ from it in the last digit.
    scale = (n + (n == 0.0)) ** (2.0 - q)
    # The same three factors as scale * sgn(w) * |w|^{q-1}, in place; the sign
    # factor is exact, so the order does not move a bit.
    g *= np.sign(w)
    g *= scale[..., None]
    return g


def pnorm_bregman(target, base, q: float):
    """The Bregman distance of (1/2) ||.||_q^2; at q = 2 it is (1/2) ||target - base||_2^2,
    computed without the generic difference's cancellation, so it is never
    negative, even next to the optimum."""
    if check_exponent(q) == 2.0:
        t, b = _bregman_pair(target, base)
        diff = t - b
        return as_result(0.5 * row_inner(diff, diff))
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


class PNormMap(MirrorMap):
    """(1/2) ||w||_p^2 with 1 < p <= 2, measured in its own p-norm.

    Strongly convex with modulus p - 1; not strongly smooth for p < 2 in
    dimension > 1, and 1-smooth at p = 2, the Euclidean potential, where the
    gradient and its inverse are the identity.  The inverse gradient is the
    gradient of the dual potential (1/2) ||.||_q^2 with 1/p + 1/q = 1.
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
        return pnorm_bregman(target, base, self.p)

    def strong_convexity(self) -> float:
        return self.p - 1.0

    def smoothness(self) -> float | None:
        return 1.0 if self.p == 2.0 else None

    def __repr__(self) -> str:
        return f"PNormMap(p={self.p!r})"


class EuclideanMap(PNormMap):
    """(1/2) ||w||_2^2, the p-norm potential at p = 2: mirror steps are plain steps."""

    def __init__(self):
        super().__init__(2.0)

    def __repr__(self) -> str:
        return "EuclideanMap()"


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


def _nonnegative(x, what: str):
    """x as float64: a number stays a numpy scalar, whose power is libm's, as a
    Python float's is; an array's power may differ from it in the last digit."""
    x = np.asarray(x, dtype=np.float64)[()]
    if (x < 0.0).any():
        raise ValueError(f"{what} must be nonnegative, got {np.min(x)}")
    return x


def omega_p(p: float, u):
    """Huber-like control function: u + 1/tau_p - 1 for u >= 1, u^tau_p / tau_p
    below; u is a number or an array, taken entry by entry."""
    t = tau(p)
    u = _nonnegative(u, "control function argument")
    # np.where evaluates both branches; u capped at 1 keeps the unused power finite.
    return as_result(np.where(u >= 1.0, u + 1.0 / t - 1.0, np.minimum(u, 1.0) ** t / t))


def b_p_constant(p: float, target_norm):
    """min(C, C^tau_p) with C = (2 (2 r)^{2-p} + 2 r^{p-1} + 2)^{-1}, r = target_norm,
    a number or an array, taken entry by entry."""
    p = float(p)
    if not (1.0 < p < 2.0):
        raise ValueError(f"b_p_constant requires p in (1, 2), got {p}")
    r = _nonnegative(target_norm, "target_norm")
    # 0^s = 0 for s > 0, so r = 0 gives C = 1/2 continuously.
    c = 1.0 / (2.0 * (2.0 * r) ** (2.0 - p) + 2.0 * r ** (p - 1.0) + 2.0)
    return as_result(np.minimum(c, c ** tau(p)))


def norm_power_conjugate(kappa: float, v, norm: NormSpec = EUCLIDEAN) -> float:
    """Fenchel conjugate of (1/kappa) ||.||^kappa at v: ((kappa-1)/kappa) ||v||_*^{kappa/(kappa-1)}."""
    kappa = float(kappa)
    if not kappa > 1.0:
        raise ValueError(f"kappa must exceed 1, got {kappa}")
    dual_norm = p_norm(v, norm.dual.p)
    return (kappa - 1.0) / kappa * dual_norm ** (kappa / (kappa - 1.0))
