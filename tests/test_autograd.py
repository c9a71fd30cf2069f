import numpy as np
import pytest

import adsorbtext.autograd as ag
from adsorbtext.autograd import Tensor


def test_softmax_symmetry():
    out = ag.softmax(Tensor(np.zeros(3))).data
    assert np.allclose(out, [1 / 3, 1 / 3, 1 / 3])


def test_softmax_overflow_guard():
    out = ag.softmax(Tensor(np.array([1000.0, 0.0]))).data
    assert np.array_equal(out, [1.0, 0.0])
    assert np.all(np.isfinite(out))


def test_softmax_row_sums(rng):
    x = Tensor(rng.normal(size=(4, 7)))
    out = ag.softmax(x, axis=-1).data
    assert np.abs(out.sum(axis=-1) - 1.0).max() < 1e-9


def test_softmax_shift_invariance(rng):
    x = rng.normal(size=(5, 9))
    for c in (-100.0, 3.7, 1e6):
        a = ag.softmax(Tensor(x)).data
        b = ag.softmax(Tensor(x + c)).data
        assert np.abs(a - b).max() < 1e-9


def test_softmax_minus_inf_exact_zero():
    x = np.array([[0.0, -np.inf, 1.0]])
    out = ag.softmax(Tensor(x)).data
    assert out[0, 1] == 0.0
    assert out.sum() == pytest.approx(1.0)


def test_layer_norm_constant_row():
    x = Tensor(np.full((2, 8), 3.5))
    out = ag.layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8))).data
    assert np.allclose(out, 0.0)


def test_layer_norm_zero_gain_gives_bias():
    x = Tensor(np.arange(8.0).reshape(1, 8))
    bias = np.linspace(-1, 1, 8)
    out = ag.layer_norm(x, Tensor(np.zeros(8)), Tensor(bias)).data
    assert np.allclose(out, bias)


def test_layer_norm_statistics(rng):
    x = Tensor(rng.normal(2.0, 5.0, size=(6, 32)))
    out = ag.layer_norm(x, Tensor(np.ones(32)), Tensor(np.zeros(32))).data
    assert np.abs(out.mean(axis=-1)).max() < 1e-9
    assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-4  # eps shifts variance slightly


def test_backward_sum_gives_ones(rng):
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    ag.backward(ag.tensor_sum(x))
    assert np.array_equal(x.grad, np.ones((3, 4)))


def test_backward_l1_sign_gradient(rng):
    pred = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    label = np.array([0.0, 0.0, 5.0])
    ag.backward(ag.l1_loss(pred, label))
    assert np.allclose(pred.grad, np.array([1.0, -1.0, -1.0]) / 3)


def test_backward_requires_scalar(rng):
    x = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        ag.backward(ag.mul(x, 2.0))


def test_backward_accumulates_without_zeroing(rng):
    x = Tensor(rng.normal(size=4), requires_grad=True)
    loss = ag.tensor_sum(ag.mul(x, x))
    ag.backward(loss)
    g1 = x.grad.copy()
    ag.backward(loss)
    assert np.allclose(x.grad, 2 * g1)


def test_matmul_matches_naive(rng):
    a = rng.normal(size=(3, 4, 5))
    b = rng.normal(size=(5, 6))
    got = ag.matmul(Tensor(a), Tensor(b)).data
    want = np.einsum("bij,jk->bik", a, b)
    assert np.abs(got - want).max() < 1e-12


def test_embedding_gradient_counts_usage(rng):
    table = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    ids = np.array([[0, 1, 1, 4]])
    ag.backward(ag.tensor_sum(ag.embedding(table, ids)))
    assert np.allclose(table.grad[:, 0], [1, 2, 0, 0, 1])


def test_dropout_zero_rate_is_identity(rng):
    x = Tensor(rng.normal(size=(4, 4)))
    assert ag.dropout(x, 0.0, rng) is x


def test_dropout_scales_kept_values(rng):
    x = Tensor(np.ones((200, 200)))
    out = ag.dropout(x, 0.25, rng).data
    kept = out != 0
    assert np.allclose(out[kept], 1 / 0.75)
    assert kept.mean() == pytest.approx(0.75, abs=0.02)


def test_cross_entropy_matches_manual(rng):
    logits = rng.normal(size=(6, 9))
    targets = rng.integers(0, 9, 6)
    got = float(ag.cross_entropy(Tensor(logits), targets).data)
    # manual: -mean log softmax[target]
    ex = np.exp(logits - logits.max(axis=1, keepdims=True))
    p = ex / ex.sum(axis=1, keepdims=True)
    want = -np.mean(np.log(p[np.arange(6), targets]))
    assert got == pytest.approx(want, abs=1e-12)


def _fd_check(fn, params, h=1e-6, tol=1e-6):
    loss = fn()
    ag.backward(loss)
    for p in params:
        flat = p.data.reshape(-1)
        grad = p.grad.reshape(-1)
        for i in range(0, flat.size, max(1, flat.size // 25)):
            orig = flat[i]
            flat[i] = orig + h
            lp = float(fn().data)
            flat[i] = orig - h
            lm = float(fn().data)
            flat[i] = orig
            fd = (lp - lm) / (2 * h)
            assert abs(fd - grad[i]) <= tol * max(abs(fd), abs(grad[i]), 1.0)


def test_finite_difference_composite(rng):
    x = Tensor(rng.normal(size=(3, 4, 8)))
    w = Tensor(rng.normal(size=(8, 8)), requires_grad=True)
    gain = Tensor(rng.normal(1.0, 0.1, 8), requires_grad=True)
    bias = Tensor(rng.normal(size=8), requires_grad=True)
    target = rng.normal(size=(3, 4, 8))

    def fn():
        h = ag.layer_norm(ag.gelu(ag.matmul(x, w)), gain, bias)
        return ag.l1_loss(ag.tanh(ag.softmax(h, axis=-1)), target)

    _fd_check(fn, [w, gain, bias])


def test_finite_difference_attention_path(rng):
    q = Tensor(rng.normal(size=(2, 5, 4)), requires_grad=True)
    k = Tensor(rng.normal(size=(2, 5, 4)), requires_grad=True)
    v = Tensor(rng.normal(size=(2, 5, 4)), requires_grad=True)
    target = rng.normal(size=(2, 5, 4))

    def fn():
        axes = (0, 2, 1)
        scores = ag.scale(ag.matmul(q, ag.transpose(k, axes)), 0.5)
        return ag.l1_loss(ag.matmul(ag.softmax(scores, -1), v), target)

    _fd_check(fn, [q, k, v])


def test_finite_difference_cross_entropy(rng):
    w = Tensor(rng.normal(size=(6, 9)), requires_grad=True)
    x = Tensor(rng.normal(size=(4, 6)))
    targets = rng.integers(0, 9, 4)

    def fn():
        return ag.cross_entropy(ag.matmul(x, w), targets)

    _fd_check(fn, [w])


def test_retain_grad_on_intermediate(rng):
    x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    mid = ag.mul(x, 3.0)
    mid.retain_grad = True
    ag.backward(ag.tensor_sum(mid))
    assert np.allclose(mid.grad, 1.0)
    assert np.allclose(x.grad, 3.0)


def test_forward_ops_stay_finite(rng):
    # numerically guarded ops never emit NaN/Inf on finite input
    x = Tensor(rng.normal(0, 100, size=(4, 16)))
    for op in (lambda t: ag.softmax(t), lambda t: ag.layer_norm(
            t, Tensor(np.ones(16)), Tensor(np.zeros(16))),
               ag.gelu, ag.tanh):
        assert np.all(np.isfinite(op(x).data))


def test_no_tape_records_nothing_and_restores_after_error():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(RuntimeError):
        with ag.no_tape():
            out = ag.gelu(ag.matmul(w, w))
            assert not out.requires_grad
            assert out._parents == () and out._backward is None
            raise RuntimeError("inside the context")
    taped = ag.gelu(ag.matmul(w, w))
    assert taped.requires_grad and taped._backward is not None
