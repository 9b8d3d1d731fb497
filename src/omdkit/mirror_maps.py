"""Mirror-map potentials, their gradients and inverses, and Bregman distances.

Two families of potentials are provided: the squared p-norm potential
(1 < p <= 2), whose p = 2 member is the Euclidean half-squared norm
(``EuclideanMap`` is ``PNormMap(2.0)``), and a smoothed-l1 potential built
from a Huber-type scalar penalty.  Each map fixes its natural reference norm
by its exponent ``p`` (p for the p-norm potential, 2 otherwise), measures
gradients in the dual norm, whose exponent is ``dual_p``, and carries the
strong-convexity / strong-smoothness moduli it attains with respect to
that norm, ``strong_convexity`` and ``smoothness``, set when it is made.
Gradients and inverse gradients are exact closed forms; the inverse of
the p-norm gradient is the gradient of the dual-exponent potential, and at
exponent 2 the gradient is the identity.
Every formula acts on the last axis, so it takes a point or a stack of
points, one per row (what the batched Monte Carlo engine steps); the
potential and the Bregman distance of a point are Python floats.  The
control functions ``omega_p`` and ``b_p_constant`` take a number, giving a
Python float, or an array, taken entry by entry.  The Bregman distance is
value(t) - value(b) - <t - b, grad(b)>, which cancels near t = b; at
exponent 2 ``pnorm_bregman`` computes it as (1/2) ||t - b||^2 instead.
A map's ``bregman_scale`` sums the magnitudes its distance cancels, so
the distance's rounding error is a few eps times it.
"""

import numpy as np

from .geometry import (
    SQUARE_MAX,
    as_points,
    as_result,
    check_exponent,
    check_interval,
    dual_exponent,
    p_norm,
    row_inner,
    row_sum,
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
    return _pnorm_gradient(np.asarray(w, dtype=np.float64), check_exponent(q))


def _pnorm_gradient(w: np.ndarray, q: float, out=None) -> np.ndarray:
    """pnorm_gradient of a float64 w without the exponent check, for a map
    that checked its exponents once, when it was made; written into ``out``,
    which must not overlap w, if given, except at q = 2, where w is returned.

    ||w||_q^{2-q} is (sum_j |w_j|^q)^{(2-q)/q}, one power of the row sums, and
    |w_j|^q is |w_j| |w_j|^{q-1}, from the power the gradient takes anyway."""
    if q == 2.0:
        return w
    g = np.abs(w, out=out)  # **= below takes the same power as a ** (q - 1) would
    g **= q - 1.0
    a = np.abs(w)
    a *= g
    s = row_sum(a)
    # A zero row has sign 0 in every coordinate, so any finite scale keeps it
    # at 0, the limit along every ray.  s + (s == 0) puts in 1 for a zero sum
    # and, unlike np.where, keeps a point's sum a numpy scalar, whose power
    # is libm's; an array's power may differ from it in the last digit.
    scale = (s + (s == 0.0)) ** ((2.0 - q) / q)
    g *= scale[..., None]
    # The gradient is odd, so w's sign goes on exactly, a -0.0 entry included.
    return np.copysign(g, w, out=g)


def pnorm_bregman(target, base, q: float):
    """The Bregman distance of (1/2) ||.||_q^2; at q = 2 it is (1/2) ||target - base||_2^2,
    computed without the generic difference's cancellation, so it is never
    negative, even next to the optimum."""
    if check_exponent(q) == 2.0:
        t, b = _bregman_pair(target, base)
        diff = t - b
        return as_result(0.5 * row_inner(diff, diff))
    return _bregman(lambda w: pnorm_potential(w, q), lambda w: pnorm_gradient(w, q), target, base)


def _bregman_scale(value, grad, target, base):
    """The magnitudes ``_bregman(value, grad, target, base)`` cancels, whose
    rounding bounds its error: value(t) + value(b) + <|t - b|, |grad(b)|>."""
    t, b = _bregman_pair(target, base)
    return as_result(value(t) + value(b) + row_inner(np.abs(t - b), np.abs(grad(b))))


def _pnorm_bregman_scale(target, base, q: float):
    """The magnitudes ``pnorm_bregman(target, base, q)`` cancels; at q = 2 it
    cancels nothing, so its scale is its value."""
    if check_exponent(q) == 2.0:
        return pnorm_bregman(target, base, q)
    return _bregman_scale(lambda w: pnorm_potential(w, q), lambda w: pnorm_gradient(w, q), target, base)


# -- mirror maps --------------------------------------------------------------

class MirrorMap:
    """A strongly convex potential with gradient, inverse gradient, and moduli.

    ``value``, ``grad``, ``grad_inv``, ``bregman`` and ``bregman_scale`` take
    a point or a stack.
    ``grad_inv`` may write its result into ``out``, which must not overlap its
    argument, and returns the result, which need not be ``out``: the identity
    map (the p-norm potential at p = 2) returns its argument.
    The reference norm is the ``p``-norm, and gradients are measured in its
    dual, the ``dual_p``-norm.  ``strong_convexity`` is the modulus sigma with
    D(t, b) >= (sigma/2) ||t - b||^2 in the reference norm; ``smoothness`` is
    the modulus L with D(t, b) <= (L/2) ||t - b||^2, or None if no such L
    exists.
    """

    p = 2.0
    dual_p = 2.0
    strong_convexity: float
    smoothness: float | None

    def value(self, w):
        raise NotImplementedError

    def grad(self, w) -> np.ndarray:
        raise NotImplementedError

    def grad_inv(self, v, out=None) -> np.ndarray:
        raise NotImplementedError

    def bregman(self, target, base):
        """D(target, base) = value(target) - value(base) - <target - base, grad(base)>."""
        return _bregman(self.value, self.grad, target, base)

    def bregman_scale(self, target, base):
        """The magnitudes ``bregman(target, base)`` cancels: its error is a few eps times this."""
        return _bregman_scale(self.value, self.grad, target, base)

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
        self.p = check_interval("p-norm potential exponent p", p, 1.0, 2.0, closed_high=True)
        self.dual_p = dual_exponent(self.p)
        self.strong_convexity = self.p - 1.0
        self.smoothness = 1.0 if self.p == 2.0 else None

    def value(self, w):
        return pnorm_potential(w, self.p)

    def grad(self, w) -> np.ndarray:
        return _pnorm_gradient(np.asarray(w, dtype=np.float64), self.p)

    def grad_inv(self, v, out=None) -> np.ndarray:
        return _pnorm_gradient(np.asarray(v, dtype=np.float64), self.dual_p, out)

    def bregman(self, target, base):
        return pnorm_bregman(target, base, self.p)

    def bregman_scale(self, target, base):
        return _pnorm_bregman_scale(target, base, self.p)

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

    def __init__(self, epsilon: float, lam: float):
        # grad divides every coordinate by epsilon, the kept branch or not.
        self.epsilon = check_interval("epsilon", epsilon, 1.0 / SQUARE_MAX, SQUARE_MAX)
        self.lam = check_interval("lam", lam, 0.0, SQUARE_MAX)
        self.strong_convexity = 1.0
        self.smoothness = 1.0 + self.lam / self.epsilon

    def value(self, w):
        w = np.asarray(w, dtype=np.float64)
        a = np.abs(w)
        hub = np.where(a <= self.epsilon, w * w / (2.0 * self.epsilon), a - 0.5 * self.epsilon)
        return as_result(self.lam * row_sum(hub) + 0.5 * row_inner(w, w))

    def grad(self, w) -> np.ndarray:
        w = np.asarray(w, dtype=np.float64)
        slope = np.where(np.abs(w) <= self.epsilon, w / self.epsilon, np.sign(w))
        return self.lam * slope + w

    def grad_inv(self, v, out=None) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        thr = self.lam + self.epsilon
        return np.where(  # a new array: out is not used
            np.abs(v) <= thr,
            v * (self.epsilon / thr),
            v - self.lam * np.sign(v),
        )

    def __repr__(self) -> str:
        return f"SmoothedL1Map(epsilon={self.epsilon!r}, lam={self.lam!r})"


# -- convexity-control machinery ----------------------------------------------

def tau(p: float) -> float:
    """tau_p = 2 / min(p, 3 - p) for p in (1, 2]."""
    p = check_interval("p", p, 1.0, 2.0, closed_high=True)
    return 2.0 / min(p, 3.0 - p)


def omega_p(p: float, u):
    """Huber-like control function: u + 1/tau_p - 1 for u >= 1, u^tau_p / tau_p
    below; u is a number or an array, taken entry by entry."""
    t = tau(p)
    u = check_interval("control function argument", u, 0.0, np.inf, closed_low=True)
    # np.where evaluates both branches; u capped at 1 keeps the unused power finite.
    return as_result(np.where(u >= 1.0, u + 1.0 / t - 1.0, np.minimum(u, 1.0) ** t / t))


def b_p_constant(p: float, target_norm):
    """min(C, C^tau_p) with C = (2 (2 r)^{2-p} + 2 r^{p-1} + 2)^{-1}, r = target_norm,
    a number or an array, taken entry by entry."""
    p = check_interval("p", p, 1.0, 2.0)
    r = check_interval("target_norm", target_norm, 0.0, np.inf, closed_low=True)
    # 0^s = 0 for s > 0, so r = 0 gives C = 1/2 continuously.
    c = 1.0 / (2.0 * (2.0 * r) ** (2.0 - p) + 2.0 * r ** (p - 1.0) + 2.0)
    return as_result(np.minimum(c, c ** tau(p)))


def norm_power_conjugate(kappa: float, v, p: float = 2.0) -> float:
    """Fenchel conjugate of (1/kappa) ||.||_p^kappa at v: ((kappa-1)/kappa) ||v||_q^{kappa/(kappa-1)},
    with q the dual exponent of p."""
    kappa = check_interval("kappa", kappa, 1.0, np.inf)
    dual_norm = p_norm(v, dual_exponent(p))
    return (kappa - 1.0) / kappa * dual_norm ** (kappa / (kappa - 1.0))
