"""Dense real vectors, inner products, and p-norms with their duals.

``row_inner`` and ``p_norm`` act on the last axis, so each takes a point (a
1-d vector) or a stack of points, one per row; ``p_norm`` of a point is a
Python float.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "EUCLIDEAN",
    "NormSpec",
    "as_vector",
    "as_points",
    "as_result",
    "check_exponent",
    "dual_exponent",
    "inner",
    "row_inner",
    "p_norm",
    "unchecked_p_norm",
]


def as_vector(x) -> np.ndarray:
    """Coerce ``x`` to a finite 1-d float64 array of length >= 1."""
    w = np.asarray(x, dtype=np.float64)
    if w.ndim != 1 or w.size < 1:
        raise ValueError(f"expected a 1-d vector of length >= 1, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise ValueError("vector entries must be finite")
    return w


def as_points(x) -> np.ndarray:
    """Coerce ``x`` to a float64 point or stack of points of dimension >= 1; entries may be non-finite."""
    w = np.asarray(x, dtype=np.float64)
    if w.ndim < 1 or w.shape[-1] < 1:
        raise ValueError(f"expected a point or a stack of points of dimension >= 1, got shape {w.shape}")
    return w


def as_result(x):
    """A per-point result: a Python float for one point, the array for a stack."""
    return x if isinstance(x, np.ndarray) and x.ndim else float(x)


def check_exponent(p: float) -> float:
    p = float(p)
    # p = 1 and p = inf are rejected: the squared p-norm potential loses
    # strong convexity there and every dual-exponent formula degenerates.
    if not (1.0 < p < np.inf):
        raise ValueError(f"norm exponent must lie in (1, inf), got {p}")
    return p


def inner(w, v) -> float:
    """Euclidean pairing sum_j w(j) v(j)."""
    w, v = as_vector(w), as_vector(v)
    if w.shape != v.shape:
        raise ValueError(f"dimension mismatch: {w.shape[0]} vs {v.shape[0]}")
    return float(w @ v)


def row_inner(W, V) -> np.ndarray:
    """<w_i, v_i> along the last axis, broadcast over the leading ones, so a
    point pairs with every row of a stack.

    Each entry equals ``float(w_i @ v_i)`` bit for bit.
    """
    return np.vecdot(np.asarray(W, dtype=np.float64), np.asarray(V, dtype=np.float64))


def p_norm(w, p: float):
    """(sum_j |w(j)|^p)^(1/p) for 1 < p < inf, of a finite point or of each row of a stack."""
    w = as_points(w)
    if not np.isfinite(w).all():
        raise ValueError("vector entries must be finite")
    return as_result(unchecked_p_norm(w, check_exponent(p)))


def unchecked_p_norm(w: np.ndarray, p: float):
    """p_norm without the checks, so non-finite entries pass through.

    Each result equals ``np.linalg.norm(w, ord=p)`` of the point or of each
    row bit for bit.  For p != 2 this is numpy's general-order branch, written
    out to skip the dispatch; at p = 2 a point keeps numpy's whole-vector path
    (a dot product), whose digits differ from the per-row reduction a stack
    takes.
    """
    if p == 2.0:
        return np.linalg.norm(w, ord=p, axis=-1 if w.ndim > 1 else None)
    return _p_norm_of_abs(np.abs(w), p)


def _p_norm_of_abs(a: np.ndarray, p: float):
    """unchecked_p_norm for p != 2 from the entries' absolute values ``a``,
    which it overwrites with their p-th powers, so that a caller that needs
    |w| for more than the norm takes it once."""
    a **= p
    s = np.add.reduce(a, axis=-1)
    s **= 1.0 / p
    return s


def dual_exponent(p: float) -> float:
    """The exponent q with 1/p + 1/q = 1."""
    p = check_exponent(p)
    return p / (p - 1.0)


@dataclass(frozen=True)
class NormSpec:
    """A p-norm on R^d, together with its dual."""

    p: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "p", check_exponent(self.p))

    @property
    def dual(self) -> "NormSpec":
        return NormSpec(dual_exponent(self.p))

    def __call__(self, w) -> float:
        return p_norm(w, self.p)


EUCLIDEAN = NormSpec(2.0)
