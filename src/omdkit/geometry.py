"""Dense real vectors, inner products, and p-norms with their duals.

A norm is its exponent p, a float in (1, inf); its dual norm has the exponent
``dual_exponent(p)``.

``row_inner`` and ``p_norm`` act on the last axis, so each takes a point (a
1-d vector) or a stack of points, one per row; ``p_norm`` of a point is a
Python float.

Every p-norm sums its rows through ``row_sum``, which gives
``np.add.reduce(a, axis=-1)`` bit for bit.  numpy reduces a stack one row at
a time, and a row shorter than 8 entries (numpy's pairwise-summation block)
it adds left to right from 0.0, so ``row_sum`` adds such rows column by
column instead, one vector operation per column; from 8 entries numpy sums
in pairwise blocks, and ``row_sum`` leaves the sum to it.
"""

import numpy as np

__all__ = [
    "SQUARE_MAX",
    "as_vector",
    "as_points",
    "as_result",
    "check_exponent",
    "check_interval",
    "dual_exponent",
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


# The largest magnitude of a parameter that scales a source's features,
# labels or target, or the regularizer: a power of two whose square, 2^1022,
# is finite, as the covariance, the labels and the risk square them.
SQUARE_MAX = 2.0 ** 511
DIVERGENCE_LIMIT = 1e12  # an iterate with an entry past it has diverged


def check_interval(what: str, value, low: float, high: float, *, closed_low: bool = False,
                   closed_high: bool = False):
    """``value`` as a float, or an array as its float64 array, if it lies in
    the interval from ``low`` to ``high``, each end left out unless closed;
    else a ``ValueError`` naming ``what``, the interval and the value, or
    for an array its least or greatest entry, that lies outside.

    Each comparison asks whether a value is inside, so NaN, unordered with
    every bound, never is; an array's least and greatest entries are NaN
    when any entry is."""
    x = np.asarray(value, dtype=np.float64)
    if not x.ndim:
        x = least = greatest = float(x)
    elif x.size:
        least, greatest = float(x.min()), float(x.max())
    else:
        return x
    above = low <= least if closed_low else low < least
    if not (above and (greatest <= high if closed_high else greatest < high)):
        interval = f"{'[' if closed_low else '('}{low:g}, {high:g}{']' if closed_high else ')'}"
        raise ValueError(f"{what} must lie in {interval}, got {greatest if above else least!r}")
    return x


def check_exponent(p: float) -> float:
    # p = 1 and p = inf are rejected: the squared p-norm potential loses
    # strong convexity there and every dual-exponent formula degenerates.
    return check_interval("norm exponent", float(p), 1.0, np.inf)


def row_inner(W, V) -> np.ndarray:
    """<w_i, v_i> along the last axis, broadcast over the leading ones, so a
    point pairs with every row of a stack.

    Each entry equals ``float(w_i @ v_i)`` bit for bit.
    """
    return np.vecdot(np.asarray(W, dtype=np.float64), np.asarray(V, dtype=np.float64))


def p_norm(w, p: float):
    """(sum_j |w(j)|^p)^(1/p) for 1 < p < inf, of a finite point or of each row of a stack.

    Finite entries whose p-th powers overflow raise a ``ValueError`` that
    names the exponent, in place of numpy's overflow warning."""
    w = as_points(w)
    if not np.isfinite(w).all():
        raise ValueError("vector entries must be finite")
    p = check_exponent(p)
    with np.errstate(over="ignore"):
        norm = unchecked_p_norm(w, p)
    if not np.isfinite(norm).all():
        raise ValueError(f"the p-norm with exponent {p!r} of finite entries overflows")
    return as_result(norm)


def unchecked_p_norm(w: np.ndarray, p: float):
    """p_norm without the checks, so non-finite entries pass through.

    Each result equals numpy's ``norm(w, ord=p, axis=-1)`` from
    ``numpy.linalg`` bit for bit, with numpy's branch for that order written
    out to skip the dispatch.  At p = 2 a point takes numpy's whole-vector
    path, a dot product, whose digits differ from the per-row reduction a
    stack takes.
    """
    if p == 2.0:
        if w.ndim == 1:
            w = w.ravel(order="K")
            return np.sqrt(w.dot(w))
        return np.sqrt(row_sum(w * w))
    a = np.abs(w)
    a **= p
    s = row_sum(a)
    s **= 1.0 / p
    return s


# numpy sums a row of fewer entries than this left to right, and a longer one
# in pairwise blocks of this many (its PW_BLOCKSIZE).
_PAIRWISE_BLOCK = 8


def row_sum(a: np.ndarray):
    """``np.add.reduce(a, axis=-1)`` of a float64 point or stack, bit for bit.

    Below ``_PAIRWISE_BLOCK`` entries a stack is summed column by column,
    ((0.0 + a_0) + a_1) + ..., which is numpy's order for such a row; the
    0.0 turns a row of -0.0 into +0.0, as numpy does.  A point is one row,
    which numpy sums in one call, and a longer row takes numpy's blocks, so
    both go to ``np.add.reduce``."""
    d = a.shape[-1]
    if a.ndim == 1 or not 0 < d < _PAIRWISE_BLOCK:
        return np.add.reduce(a, axis=-1)
    s = a[..., 0] + 0.0
    for j in range(1, d):
        s += a[..., j]
    return s


def dual_exponent(p: float) -> float:
    """The exponent q with 1/p + 1/q = 1."""
    p = check_exponent(p)
    return p / (p - 1.0)

