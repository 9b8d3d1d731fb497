"""Property tests of the point-or-stack kernels at extreme scales.

Each kernel acts on the last axis, so a stack of points must give, row by
row, what the rows give alone (bit for bit) and what the 1-d point calls
give (to rtol 1e-12: a point and a stack may take different numpy power
routines), and a last-axis mismatch must raise.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from omdkit.geometry import row_inner
from omdkit.losses import Huber, LeastSquares, Logistic, LossModel, Sigmoid, SquaredHinge
from omdkit.mirror_maps import b_p_constant, omega_p, pnorm_bregman, pnorm_gradient, tau
from omdkit.verification import _maps

MAPS = _maps()  # the maps that omdkit verify sweeps
LOSSES = [LeastSquares(), Logistic(), Sigmoid(), SquaredHinge(), Huber()]
MODELS = [LossModel(loss, lam=lam) for loss in LOSSES for lam in (0.0, 0.3)]
SCALES = [1e-100, 1e-10, 1.0, 1e10, 1e100]
PROPERTY = settings(max_examples=30, deadline=None)

# Entries in [-1, 1] away from the subnormal range once scaled; small ones become exact zeros.
UNIT = st.floats(-1.0, 1.0).map(lambda x: x if abs(x) >= 1e-3 else 0.0)


@st.composite
def stacks(draw, d, B=None):
    """A (B, d) stack whose rows sit at drawn scales, one of them a zero row."""
    B = draw(st.integers(2, 6)) if B is None else B
    W = draw(arrays(np.float64, (B, d), elements=UNIT))
    W *= np.array(draw(st.lists(st.sampled_from(SCALES), min_size=B, max_size=B)))[:, None]
    W[draw(st.integers(0, B - 1))] = 0.0
    return W


@st.composite
def stack_and_point(draw):
    d = draw(st.integers(1, 5))
    point = draw(arrays(np.float64, d, elements=UNIT)) * draw(st.sampled_from(SCALES))
    return draw(stacks(d)), point


def assert_row_wise(form, W, atol=0.0):
    """form(W) row by row: equal to form(W[i:i+1]) bit for bit, and to the point call within rtol 1e-12."""
    with np.errstate(all="ignore"):
        out = form(W)
        for i in range(len(W)):
            np.testing.assert_array_equal(out[i], form(W[i:i + 1])[0])
        points = np.array([form(w) for w in W])
        close = np.abs(out - points) <= 1e-12 * np.abs(points) + atol
    same = (out == points) | (np.isnan(out) & np.isnan(points))  # inf and nan included
    assert (close | same).all(), (out, points)


def bregman_terms(mirror, target, W):
    """The size of the terms the Bregman distance subtracts: the tolerance its cancellation needs."""
    with np.errstate(all="ignore"):
        return 1e-12 * (abs(mirror.value(target)) + np.abs(mirror.value(W))
                        + np.abs(row_inner(target - W, mirror.grad(W))))


@pytest.mark.parametrize("mirror", MAPS, ids=repr)
@PROPERTY
@given(case=stack_and_point())
def test_map_kernels_act_row_wise(mirror, case):
    W, target = case
    for form in (mirror.value, mirror.grad, mirror.grad_inv):
        assert_row_wise(form, W)
    assert_row_wise(lambda A: mirror.bregman(target, A), W, atol=bregman_terms(mirror, target, W))
    np.testing.assert_array_equal(mirror.grad(W)[(W == 0.0).all(axis=1)], 0.0)
    with pytest.raises(ValueError, match="mismatch"):
        mirror.bregman(np.append(target, 0.0), W)


@pytest.mark.parametrize("q", [2.5, 3.0, 6.0])
@PROPERTY
@given(case=stack_and_point())
def test_dual_pnorm_gradient_acts_row_wise(q, case):
    W, target = case
    assert_row_wise(lambda A: pnorm_gradient(A, q), W)
    with np.errstate(all="ignore"):  # rows at 1e100 overflow |w|^q
        np.testing.assert_array_equal(pnorm_gradient(W, q)[(W == 0.0).all(axis=1)], 0.0)
    with pytest.raises(ValueError, match="mismatch"):
        pnorm_bregman(np.append(target, 0.0), W, q)


@pytest.mark.parametrize("model", MODELS, ids=lambda m: f"{m.loss!r}-lam{m.lam}")
@PROPERTY
@given(data=st.data())
def test_loss_gradient_acts_row_wise(model, data):
    d = data.draw(st.integers(1, 5))
    W = data.draw(stacks(d))
    X = data.draw(stacks(d, len(W)))
    y = data.draw(arrays(np.float64, len(W), elements=st.floats(-1.0, 1.0)))
    rows = np.column_stack([W, X, y])  # one row per sample, so the helper can slice it
    assert_row_wise(lambda R: model.gradient(R[..., :d], R[..., d:2 * d], R[..., 2 * d]), rows)
    with pytest.raises(ValueError, match="mismatch"):
        model.gradient(W, np.column_stack([X, X[:, :1]]), y)


@pytest.mark.parametrize("loss", LOSSES, ids=repr)
@PROPERTY
@given(data=st.data())
def test_loss_kernels_act_entry_wise(loss, data):
    # phi(a, y), phi' and, if convex, phi'' take numbers or arrays of margins and
    # labels, entry by entry; a point call takes Python floats.
    n = data.draw(st.integers(1, 8))
    a = data.draw(arrays(np.float64, n, elements=UNIT))
    a *= np.array(data.draw(st.lists(st.sampled_from(SCALES + [2.0]), min_size=n, max_size=n)))
    y = data.draw(arrays(np.float64, n, elements=st.floats(-1.0, 1.0)))
    pairs = np.column_stack([a, y])
    for kernel in [loss.value, loss.derivative] + ([loss.curvature] if loss.convex else []):
        assert_row_wise(lambda R: kernel(R[:, 0], R[:, 1]) if R.ndim == 2 else kernel(*map(float, R)), pairs)


@pytest.mark.parametrize("p", [1.2, 4.0 / 3.0, 1.5, 1.9, 2.0])
@PROPERTY
@given(data=st.data())
def test_control_functions_act_entry_wise(p, data):
    # Omega_p and B_p take a number or an array; an array of numbers is a stack of points.
    n = data.draw(st.integers(1, 8))
    u = np.abs(data.draw(arrays(np.float64, n, elements=UNIT)))
    u *= np.array(data.draw(st.lists(st.sampled_from(SCALES + [2.0]), min_size=n, max_size=n)))
    forms = [lambda v: omega_p(p, v)] + ([lambda r: b_p_constant(p, r)] if p < 2.0 else [])
    negative = u.copy()
    negative[data.draw(st.integers(0, n - 1))] = -data.draw(st.sampled_from(SCALES))
    for form in forms:
        assert_row_wise(form, u)
        with pytest.raises(ValueError, match=r"(control function argument|target_norm) must lie in \[0, inf\)"):
            form(negative)


def test_control_function_points_are_the_closed_form_bit_for_bit():
    # A number stays on libm's power, so a point call is the scalar closed form
    # exactly; the grid is the one `omdkit omega` tabulates by default.
    grid = [i * 0.01 for i in range(301)]
    for p in (4.0 / 3.0, 1.5, 2.0):
        t = tau(p)
        expected = [u + 1.0 / t - 1.0 if u >= 1.0 else u ** t / t for u in grid]
        got = [omega_p(p, u) for u in grid]
        assert got == expected and all(type(v) is float for v in got)
    for p in (1.2, 4.0 / 3.0, 1.5, 1.9):
        cs = [1.0 / (2.0 * (2.0 * r) ** (2.0 - p) + 2.0 * r ** (p - 1.0) + 2.0) for r in grid]
        got = [b_p_constant(p, r) for r in grid]
        assert got == [min(c, c ** tau(p)) for c in cs] and all(type(v) is float for v in got)
