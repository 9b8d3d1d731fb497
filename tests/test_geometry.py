import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omdkit.geometry import as_vector, dual_exponent, p_norm, row_inner, row_sum


def test_inner_orthogonal_axes():
    assert row_inner([1.0, 0.0], [0.0, 1.0]) == 0.0


def test_inner_hand_arithmetic():
    assert row_inner([1.0, 2.0], [3.0, 4.0]) == 11.0


def test_inner_zero_vector_annihilates():
    rng = np.random.default_rng(0)
    w = rng.standard_normal(7)
    assert row_inner(w, np.zeros(7)) == 0.0


def test_inner_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        row_inner([1.0, 2.0], [1.0, 2.0, 3.0])


@pytest.mark.parametrize("d", range(1, 17))
def test_row_inner_is_the_1d_product_bit_for_bit(d):
    rng = np.random.default_rng(d)
    W = rng.standard_normal((200, d)) * 10.0 ** rng.integers(-8, 9, (200, 1))
    V = rng.standard_normal((200, d))
    assert row_inner(W, V).tolist() == [float(w @ v) for w, v in zip(W, V)]
    assert row_inner(W[0], V[0]) == float(W[0] @ V[0])


@st.composite
def row_sum_inputs(draw):
    """A point, an (n, d) or a (b, c, d) stack, laid out in C or Fortran order
    or as a strided view (every other entry, rows reversed).  Rows are normal
    draws at scales from 1e-300 to 1e300, so that their entries are of one
    size and the order of a sum shows in its last bits; a stack has a row of
    -0.0, and any entry may be a signed zero, an infinity or NaN."""
    d = draw(st.integers(1, 12))
    lead = draw(st.sampled_from([(), (draw(st.integers(2, 64)),),
                                 (draw(st.integers(1, 6)), draw(st.integers(2, 6)))]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((*lead, d)) * 10.0 ** rng.integers(-300, 301, (*lead, 1))
    if lead:
        a[(0,) * len(lead)] = -0.0
    for i, special in draw(st.lists(st.tuples(st.integers(0, a.size - 1),
                                              st.sampled_from((0.0, -0.0, np.inf, -np.inf, np.nan))),
                                    max_size=4)):
        a.flat[i] = special
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "F":
        return np.asfortranarray(a)
    if layout == "strided":
        return np.flip(np.repeat(a, 2, axis=-1), axis=0)[..., ::2]
    return a


@settings(max_examples=120, deadline=None)
@given(a=row_sum_inputs())
@example(a=np.random.default_rng(7).standard_normal((64, 7)))  # wide stacks on each side of 8
@example(a=np.random.default_rng(8).standard_normal((64, 8)))
def test_row_sum_is_numpys_last_axis_sum_bit_for_bit(a):
    # Below 8 entries row_sum adds columns left to right, which must be the
    # order numpy's reduction takes; from 8 it is numpy's own reduction.  This
    # test is what holds the installed numpy to that order.
    with np.errstate(invalid="ignore", over="ignore"):
        got, ref = np.asarray(row_sum(a)), np.asarray(np.add.reduce(a, axis=-1))
    assert got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


def test_p_norm_pythagorean():
    assert p_norm([3.0, 4.0], 2.0) == 5.0


def test_p_norm_direct_formula():
    # (1^1.5 + 1^1.5)^(1/1.5) = 2^(2/3)
    assert p_norm([1.0, 1.0], 1.5) == pytest.approx(2.0 ** (2.0 / 3.0), abs=1e-15)


@pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 7.0])
@pytest.mark.parametrize("c", [2.5, -0.3])
def test_p_norm_single_coordinate(p, c):
    assert p_norm([c, 0.0, 0.0], p) == pytest.approx(abs(c), abs=1e-15)


@pytest.mark.parametrize("p", [1.0, 0.5, -2.0, np.inf])
def test_p_norm_rejects_out_of_range_exponents(p):
    with pytest.raises(ValueError):
        p_norm([1.0, 2.0], p)


@pytest.mark.parametrize("p,expected", [(2.0, 2.0), (1.5, 3.0), (4.0 / 3.0, 4.0)])
def test_dual_exponent(p, expected):
    assert dual_exponent(p) == pytest.approx(expected, abs=1e-12)


def test_dual_exponent_rejects_p_at_most_one():
    with pytest.raises(ValueError):
        dual_exponent(1.0)


def test_dual_exponents_are_conjugate():
    for p in [1.2, 1.5, 1.9, 3.0]:
        q = dual_exponent(p)
        assert 1.0 / p + 1.0 / q == pytest.approx(1.0, abs=1e-15)


def test_as_vector_rejects_bad_input():
    with pytest.raises(ValueError):
        as_vector([1.0, np.nan])
    with pytest.raises(ValueError):
        as_vector([1.0, np.inf])
    with pytest.raises(ValueError):
        as_vector([[1.0, 2.0]])
    with pytest.raises(ValueError):
        as_vector([])


def test_holder_inequality_random_sweep():
    rng = np.random.default_rng(7)
    for p in (1.2, 1.5, 2.0):
        q = dual_exponent(p)
        for _ in range(1000):
            w = rng.standard_normal(6) * rng.choice([0.1, 1.0, 10.0])
            v = rng.standard_normal(6) * rng.choice([0.1, 1.0, 10.0])
            assert abs(row_inner(w, v)) <= p_norm(w, p) * p_norm(v, q) + 1e-12


def test_triangle_inequality_random_sweep():
    rng = np.random.default_rng(8)
    for p in (1.2, 1.5, 2.0):
        for _ in range(1000):
            w = rng.standard_normal(5)
            v = rng.standard_normal(5)
            assert p_norm(w + v, p) <= p_norm(w, p) + p_norm(v, p) + 1e-12


def test_dual_exponent_round_trip():
    assert dual_exponent(dual_exponent(1.5)) == pytest.approx(1.5, abs=1e-15)
    assert dual_exponent(2.0) == 2.0
