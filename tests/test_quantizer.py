import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcac import autodiff as ad
from pcac.errors import NonFiniteInput
from pcac.likelihood import SymbolGrid
from pcac.quantizer import (TEMPERATURE, dequantize, quantize_hard,
                            quantize_soft, soft_assignment)
from pcac.sparse_nn import ModelConfig

GRID = SymbolGrid(ModelConfig().num_bins)  # the model's latent grid


def test_centers_are_26_uniform_on_unit_interval():
    # [PAPER] 26 fixed centers on [-1, 1], spacing 2/25 = 0.08
    assert GRID.num_symbols == 26
    assert GRID.centers[0] == -1.0 and GRID.centers[-1] == 1.0
    np.testing.assert_allclose(np.diff(GRID.centers), 0.08)


def test_hard_quantization_examples():
    # [DERIVED] nearest-center with ties to the lower symbol:
    # 0.0 sits exactly between centers 12 (-0.04) and 13 (+0.04)
    s, v = quantize_hard(
        np.array([-2.0, -1.0, 0.0, 0.039, 0.041, 1.0, 2.0]), GRID)
    assert s.tolist() == [0, 0, 12, 13, 13, 25, 25]
    np.testing.assert_allclose(v, GRID.centers[s])
    assert v[2] == pytest.approx(-0.04)
    # every midpoint, as the centers' float arithmetic gives it, is a tie
    mids = (GRID.centers[:-1] + GRID.centers[1:]) / 2
    assert quantize_hard(mids, GRID)[0].tolist() == list(range(25))

    with pytest.raises(NonFiniteInput):
        quantize_hard(np.array([np.nan]), GRID)


def test_quantization_is_idempotent_on_centers():
    s, v = quantize_hard(GRID.centers, GRID)
    assert s.tolist() == list(range(26))
    np.testing.assert_array_equal(v, GRID.centers)
    np.testing.assert_array_equal(dequantize(s, GRID), GRID.centers)


@given(st.lists(st.floats(-3, 3, allow_nan=False), min_size=1, max_size=40))
@settings(max_examples=100, deadline=None)
def test_hard_quantization_properties(vals):
    v = np.array(vals)
    s, q = quantize_hard(v, GRID)
    # symbols in range, error at most half a bin (up to the clamp)
    assert np.all((s >= 0) & (s < 26))
    inside = (v >= -1) & (v <= 1)
    assert np.all(np.abs(q[inside] - v[inside]) <= 0.04 + 1e-12)
    # monotone: sorting values sorts symbols
    order = np.argsort(v, kind="stable")
    assert np.all(np.diff(s[order]) >= 0)


def test_soft_grad_matches_finite_differences():
    # [DERIVED] the closed-form surrogate derivative vs central differences
    rng = np.random.default_rng(1)
    v = rng.uniform(-1.2, 1.2, size=(6, 5))
    node = ad.Node(v)
    out = quantize_soft(node, GRID, mode="soft")
    ad.backward(ad.sum_all(out))
    h = 1e-6
    fd = np.zeros_like(v)
    for i in np.ndindex(v.shape):
        vp, vm = v.copy(), v.copy()
        vp[i] += h
        vm[i] -= h
        fd[i] = (soft_assignment(vp, GRID)[0][i] - soft_assignment(vm, GRID)[0][i]) / (2 * h)
    np.testing.assert_allclose(node.grad, fd, rtol=1e-5, atol=1e-7)


def test_ste_forward_is_hard_backward_is_soft():
    v = np.array([[0.3, -0.7]])
    node = ad.Node(v)
    ste = quantize_soft(node, GRID, mode="ste")
    np.testing.assert_array_equal(ste.value, quantize_hard(v, GRID)[1])
    soft_node = quantize_soft(ad.Node(v), GRID, mode="soft")
    ad.backward(ad.sum_all(ste))
    g_ste = node.grad.copy()
    n2 = soft_node.parents[0]
    ad.backward(ad.sum_all(soft_node))
    np.testing.assert_array_equal(g_ste, n2.grad)

    with pytest.raises(ValueError):
        quantize_soft(node, GRID, mode="nope")



def test_ste_rejects_non_finite_input_before_the_softmax():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a softmax of NaN would warn
        with pytest.raises(NonFiniteInput):
            quantize_soft(ad.Node(np.array([0.5, np.nan])), GRID)


def reference_soft_assignment(values, grid):
    # the textbook surrogate, written out: softmax of -(v - c)^2 / T, its
    # expectation of the centers and the derivative of that expectation
    v = np.asarray(values, dtype=np.float64)[..., None]
    c = grid.centers
    d2 = -((v - c) ** 2) / TEMPERATURE
    d2 = d2 - d2.max(axis=-1, keepdims=True)
    w = np.exp(d2)
    w /= w.sum(axis=-1, keepdims=True)
    da = -2.0 * (v - c) / TEMPERATURE
    dw = w * (da - (w * da).sum(axis=-1, keepdims=True))
    return (w * c).sum(axis=-1), (dw * c).sum(axis=-1)


@pytest.mark.parametrize("scale", [0.3, 1.0, 3.0, 30.0])
def test_soft_assignment_is_the_reference_formula_bit_for_bit(scale):
    # STE reads only the derivative, soft mode the value and the derivative;
    # both are the reference's bits, for float32 and float64 inputs
    rng = np.random.default_rng(11)
    for dtype in (np.float32, np.float64):
        v = (scale * rng.normal(size=(40, 3))).astype(dtype)
        value, deriv = reference_soft_assignment(v, GRID)
        soft, dsoft = soft_assignment(v, GRID)
        np.testing.assert_array_equal(soft, value)
        np.testing.assert_array_equal(dsoft, deriv)
        none, dste = soft_assignment(v, GRID, value=False)
        assert none is None
        np.testing.assert_array_equal(dste, deriv)

        node = ad.Node(v)
        ste = quantize_soft(node, GRID, mode="ste")
        ad.backward(ad.sum_all(ste))
        np.testing.assert_array_equal(node.grad, deriv.astype(dtype))
        node = ad.Node(v)
        soft_node = quantize_soft(node, GRID, mode="soft")
        np.testing.assert_array_equal(soft_node.value, value.astype(dtype))
        ad.backward(ad.sum_all(soft_node))
        np.testing.assert_array_equal(node.grad, deriv.astype(dtype))
