"""Scalar losses phi(a, y), their first and (``curvature``, if convex) second derivatives
in a, and the regularized per-sample objective f(w, z) = phi(<w, x>, y) + lam ||w||_2^2.

Derivative Lipschitz constants for the margin losses assume labels in
[-1, 1]; sample sources enforce that range for classification data.  All
value/derivative formulas accept scalars or numpy arrays in the first
argument, and ``LossModel.f_value`` and ``gradient`` take a point or a stack
of points and samples.  The logistic and sigmoid losses use ``_expit``, scipy's formula
for the logistic function in numpy.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import SQUARE_MAX, check_interval, row_inner

__all__ = [
    "Loss",
    "LeastSquares",
    "Logistic",
    "Sigmoid",
    "SquaredHinge",
    "Huber",
    "LossModel",
    "LOSSES",
]


def _expit(x):
    """The logistic function 1 / (1 + exp(-x)), scipy's formula for ``expit``.

    exp(-x) overflows to inf for x below about -709, which gives the exact
    limit 0, so that overflow is not reported.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


class Loss:
    """A scalar loss; ``lipschitz`` is the Lipschitz constant of
    derivative(., y) over the admissible labels."""

    convex: bool = True
    lipschitz: float

    def value(self, a, y):
        raise NotImplementedError

    def derivative(self, a, y):
        """Partial derivative of value(a, y) in a."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class LeastSquares(Loss):
    lipschitz = 1.0

    def value(self, a, y):
        d = a - y
        return 0.5 * d * d

    def derivative(self, a, y):
        return a - y

    def curvature(self, a, y):
        return np.ones_like(a)


class Logistic(Loss):
    """log(1 + exp(-a y)); curvature y^2/4 peaks at a y = 0."""

    lipschitz = 0.25

    def value(self, a, y):
        return np.logaddexp(0.0, -a * y)

    def derivative(self, a, y):
        return -y * _expit(-a * y)

    def curvature(self, a, y):
        return y * y * _expit(-a * y) * _expit(a * y)


class Sigmoid(Loss):
    """1/(1 + exp(a y)); bounded but non-convex, so no convergence theorem applies."""

    convex = False

    # max |d^2/da^2 expit(-a y)| over a and |y| <= 1; equals sqrt(3)/18,
    # cross-checked by dense sampling of difference quotients.
    lipschitz = 0.09622504486493762

    def value(self, a, y):
        return _expit(-a * y)

    def derivative(self, a, y):
        s = _expit(-a * y)
        return -y * s * (1.0 - s)


class SquaredHinge(Loss):
    """max(0, 1 - a y)^2 with labels in [-1, 1]."""

    lipschitz = 2.0

    def value(self, a, y):
        m = np.maximum(0.0, 1.0 - a * y)
        return m * m

    def derivative(self, a, y):
        return -2.0 * y * np.maximum(0.0, 1.0 - a * y)

    def curvature(self, a, y):
        return 2.0 * y * y * (1.0 - a * y > 0.0)


class Huber(Loss):
    """Quadratic in |a - y| below 1, linear beyond; the derivative is a clipped residual."""

    lipschitz = 1.0

    def value(self, a, y):
        u = np.abs(a - y)
        return np.where(u < 1.0, 0.5 * u * u, u - 0.5)

    def derivative(self, a, y):
        return np.clip(a - y, -1.0, 1.0)

    def curvature(self, a, y):
        return np.where(np.abs(a - y) < 1.0, 1.0, 0.0)


LOSSES = {
    "least_squares": LeastSquares,
    "logistic": Logistic,
    "sigmoid": Sigmoid,
    "squared_hinge": SquaredHinge,
    "huber": Huber,
}


@dataclass(frozen=True)
class LossModel:
    """A loss plus the l2 regularizer weight lam >= 0."""

    loss: Loss
    lam: float = 0.0

    def __post_init__(self):
        check_interval("regularizer weight lam", self.lam, 0.0, SQUARE_MAX, closed_low=True)

    def f_value(self, w, x, y):
        """phi(<w, x>, y) + lam ||w||^2 at a point or row-wise on a stack, broadcast as in ``gradient``."""
        return self.loss.value(row_inner(w, x), y) + self.lam * row_inner(w, w)

    def gradient(self, w, x, y, out=None) -> np.ndarray:
        """phi'(<w, x>, y) x + 2 lam w at a point or row-wise on a stack: w and
        the samples x broadcast along their leading axes, so one point w is
        shared by every row of a stack x.  Written into ``out``, which must not
        overlap w, if given.  ``np.vecdot`` is ``row_inner`` without its
        conversions; it refuses samples of another dimension with a ValueError."""
        w = np.asarray(w, dtype=np.float64)
        x = np.asarray(x, dtype=np.float64)
        g = np.multiply(self.loss.derivative(np.vecdot(w, x), y)[..., None], x, out=out)
        if self.lam:
            g += (2.0 * self.lam) * w
        return g

    def smoothness_bound(self, radius: float) -> float:
        """The per-sample smoothness modulus for sup ||x||_* <= R, valid for
        every sample: R^2 + 2 lam for least squares (its Hessian is
        x x^T + 2 lam I), 2 (l_phi R^2 + lam) otherwise."""
        radius = check_interval("radius", radius, 0.0, np.inf, closed_low=True)
        if isinstance(self.loss, LeastSquares):
            return radius * radius + 2.0 * self.lam
        return 2.0 * (self.loss.lipschitz * radius * radius + self.lam)
