import numpy as np
import pytest

from pcac import autodiff as ad
from pcac.errors import NonScalarLoss, ShapeMismatch
from pcac.trainer import TrainConfig


def fd_grad(f, x, h=1e-6):
    """Central finite differences of scalar f at array x. [DERIVED] oracle."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        xp = x.copy(); xp[i] += h
        xm = x.copy(); xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2 * h)
    return g


def check_unary(op, x, h=1e-6, tol=1e-6):
    node = ad.Node(x)
    out = ad.sum_all(op(node))
    ad.backward(out)

    def f(v):
        return float(op(ad.Node(v)).value.sum())

    np.testing.assert_allclose(node.grad, fd_grad(f, x, h), rtol=tol, atol=tol)


def test_unary_primitives_match_fd():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 5))
    check_unary(ad.relu, x + 0.05)  # keep away from the kink


def test_binary_grads():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4))
    for op in (ad.add, ad.mul):
        na, nb2 = ad.Node(a), ad.Node(b)
        ad.backward(ad.sum_all(op(na, nb2)))
        fa = fd_grad(lambda v: float(op(ad.Node(v), ad.Node(b)).value.sum()), a)
        fb = fd_grad(lambda v: float(op(ad.Node(a), ad.Node(v)).value.sum()), b)
        np.testing.assert_allclose(na.grad, fa, atol=1e-6)
        np.testing.assert_allclose(nb2.grad, fb, atol=1e-6)


def test_concat_cols_grads():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(5, 3))
    a, b = ad.Node(x[:, :2]), ad.Node(x[:, 2:])
    cat = ad.concat_cols(a, b)
    w = rng.normal(size=(5, 3))
    ad.backward(ad.sum_all(ad.mul(cat, ad.Node(w))))
    np.testing.assert_allclose(a.grad, w[:, :2])
    np.testing.assert_allclose(b.grad, w[:, 2:])


def test_shared_node_accumulates_both_paths():
    # y = x*x + 3x  =>  dy/dx = 2x + 3  [DERIVED]
    x = ad.Node(np.array([[2.0]]))
    y = ad.add(ad.mul(x, x), ad.mul(x, ad.Node(np.array([[3.0]]))))
    ad.backward(ad.sum_all(y))
    assert x.grad.item() == pytest.approx(2 * 2.0 + 3.0)


def test_backward_rejects_nonscalar():
    with pytest.raises(NonScalarLoss):
        ad.backward(ad.Node(np.zeros((2, 2))))
    with pytest.raises(ShapeMismatch):
        ad.add(ad.Node(np.zeros((2, 2))), ad.Node(np.zeros((2, 3))))


def test_adam_lr_schedule():
    # [PAPER] 5e-4 decayed by 0.75 every 5 epochs
    cfg = TrainConfig()
    assert cfg.lr_at(0) == pytest.approx(5e-4)
    assert cfg.lr_at(4) == pytest.approx(5e-4)
    assert cfg.lr_at(5) == pytest.approx(3.75e-4)
    assert cfg.lr_at(12) == pytest.approx(5e-4 * 0.75 ** 2)


def test_adam_first_step_is_lr_sized():
    # [DERIVED] with bias correction the first update is lr * sign(g)
    p = ad.Parameter(np.array([1.0, -2.0]))
    p.grad = np.array([0.3, -0.7])
    ad.adam_step([p], 1e-2)
    np.testing.assert_allclose(p.value, [1.0 - 1e-2, -2.0 + 1e-2], rtol=1e-6)


def test_adam_skips_unused_params_and_is_deterministic():
    rng = np.random.default_rng(3)
    init = rng.normal(size=(3, 3))

    def run():
        p = ad.Parameter(init.copy())
        q = ad.Parameter(init.copy())
        for step in range(10):
            p.grad = np.sin(init + step)
            ad.adam_step([p, q], TrainConfig().lr_at(step))
        return p.value.copy(), q.value.copy()

    p1, q1 = run()
    p2, q2 = run()
    np.testing.assert_array_equal(p1, p2)
    np.testing.assert_array_equal(q1, init)  # no grad -> untouched


def test_adam_moments_are_allocated_on_first_step():
    # a parameter that is only ever read (coding) carries no Adam state
    p = ad.Parameter(np.ones((2, 3)))
    assert p.m is None and p.v is None
    ad.adam_step([p], 5e-4)  # no gradient: no step, no state
    assert p.m is None and p.v is None and p.t == 0
    p.grad = np.full((2, 3), 0.5)
    ad.adam_step([p], 5e-4)
    assert p.t == 1
    np.testing.assert_array_equal(p.m, (1 - ad.BETA1) * p.grad)
    np.testing.assert_array_equal(p.v, (1 - ad.BETA2) * p.grad * p.grad)


def test_adam_matches_the_textbook_update_bit_for_bit():
    # the in-place update against Adam as written in the paper (Kingma and
    # Ba, Algorithm 1), evaluated operation by operation in this order
    rng = np.random.default_rng(8)
    init = rng.normal(size=(4, 5))
    p = ad.Parameter(init.copy())
    value, m, v = init.copy(), np.zeros_like(init), np.zeros_like(init)
    for t in range(1, 8):
        g = rng.normal(scale=10.0 ** rng.integers(-4, 2), size=init.shape)
        p.grad = g.copy()
        lr = TrainConfig().lr_at(t)
        ad.adam_step([p], lr)
        m = ad.BETA1 * m + (1 - ad.BETA1) * g
        v = ad.BETA2 * v + (1 - ad.BETA2) * g * g
        m_hat = m / (1 - ad.BETA1 ** t)
        v_hat = v / (1 - ad.BETA2 ** t)
        value = value - lr * m_hat / (np.sqrt(v_hat) + ad.EPS)
        assert p.t == t
        np.testing.assert_array_equal(p.m, m)
        np.testing.assert_array_equal(p.v, v)
        np.testing.assert_array_equal(p.value, value)
        np.testing.assert_array_equal(p.grad, g)  # the gradient is kept
