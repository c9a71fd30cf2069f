import inspect
import math
import weakref

import numpy as np
import pytest

import adsorbtext.autograd as ag
from adsorbtext.autograd import Tensor
from reference_ops import scaled_dot_attention


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
    for dtype in (np.float64, np.float32):
        x = Tensor(rng.normal(size=(3, 4)).astype(dtype), requires_grad=True)
        total = ag.tensor_sum(x)  # a full reduction keeps the input dtype
        assert total.data.dtype == dtype
        ag.backward(total)
        assert x.grad.dtype == dtype
        assert np.array_equal(x.grad, np.ones((3, 4)))


def test_backward_l1_sign_gradient(rng):
    pred = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    label = np.array([0.0, 0.0, 5.0])
    ag.backward(ag.l1_loss(pred, label))
    assert np.allclose(pred.grad, np.array([1.0, -1.0, -1.0]) / 3)


def test_l1_loss_keeps_the_prediction_dtype(rng):
    pred = Tensor(rng.normal(size=5).astype(np.float32), requires_grad=True)
    loss = ag.l1_loss(pred, rng.normal(size=5))  # a float64 target
    ag.backward(loss)
    assert loss.data.dtype == np.float32 and pred.grad.dtype == np.float32


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


def _layer_norm_of_sum(x, y, gain, bias, keep_sum: bool):
    """tensor_sum(layer_norm(x + y) * 3); the sum is the caller's to keep."""
    s = ag.add(x, y)
    out = ag.tensor_sum(ag.mul(ag.layer_norm(s, gain, bias), 3.0))
    return out, (s if keep_sum else None), weakref.ref(s.data)


def test_dropped_intermediate_is_freed(rng):
    # layer_norm's backward reads its own normalised rows, not its input
    leaves = [Tensor(rng.normal(size=shape), requires_grad=True)
              for shape in ((4, 6), (4, 6), (6,), (6,))]
    grads = []
    for keep_sum in (True, False):
        for t in leaves:
            t.grad = None
        loss, held, data = _layer_norm_of_sum(*leaves, keep_sum)
        assert (data() is not None) == keep_sum
        ag.backward(loss)
        grads.append([t.grad.copy() for t in leaves])
    for kept, dropped in zip(*grads):
        assert np.array_equal(kept, dropped)


def test_retain_grad_on_held_and_dropped_intermediates(rng):
    x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    held, dropped = ag.mul(x, 3.0), ag.mul(x, 2.0)
    held.retain_grad = dropped.retain_grad = True
    loss = ag.tensor_sum(ag.add(ag.tanh(held), dropped))
    del dropped
    ag.backward(loss)
    assert np.array_equal(held.grad, 1.0 - np.tanh(held.data) ** 2)
    assert np.array_equal(x.grad, 3.0 * held.grad + 2.0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_gradient_is_its_closed_form_bit_for_bit(rng, dtype):
    x = rng.normal(0.0, 2.0, size=(5, 7)).astype(dtype)
    a = Tensor(x.copy(), requires_grad=True)
    ag.backward(ag.tensor_sum(ag.gelu(a)))
    # d/dx = 0.5 (1 + t) + 0.5 x (1 - t^2) c (1 + 3 * 0.044715 x^2), evaluated in
    # the op's order, t = tanh(c x (1 + 0.044715 x^2))
    c = math.sqrt(2.0 / math.pi)
    t = np.tanh((x * x * 0.044715 + 1.0) * x * c)
    want = (x * x * (3 * 0.044715) + 1.0) * x * (0.5 * c) * (1.0 - t * t) + 0.5 + t * 0.5
    assert a.grad.dtype == dtype
    assert np.array_equal(a.grad, want)
    with ag.no_tape():
        untaped = ag.gelu(a)
    assert not untaped.requires_grad
    assert untaped._node is None


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
            assert out._node is None
            raise RuntimeError("inside the context")
    taped = ag.gelu(ag.matmul(w, w))
    assert taped.requires_grad and taped._node.backward is not None


PUBLIC_OPS = ("add", "attention", "cross_entropy", "dropout", "embedding", "gelu", "l1_loss",
              "layer_norm", "linear", "matmul", "mul", "reshape", "scale", "softmax", "take",
              "tanh", "tensor_sum", "transpose")


def test_op_registry_holds_every_public_op():
    public = {name for name, fn in vars(ag).items()
              if inspect.isfunction(fn) and fn.__module__ == ag.__name__
              and not name.startswith("_") and name not in ("backward", "no_tape", "op_totals")}
    assert sorted(ag.op_totals()) == sorted(public) == list(PUBLIC_OPS)


def test_op_timer_counts_calls_and_backward_closures(rng):
    x = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    before = ag.op_totals()
    loss = ag.l1_loss(ag.gelu(ag.linear(x, w)), np.zeros((6, 3)))
    with ag.no_tape():
        ag.gelu(x)  # a forward call; nothing to time in backward
    mid = ag.op_totals()
    ag.backward(loss)
    after = ag.op_totals()
    calls = {op: mid[op][0] - before[op][0] for op in PUBLIC_OPS}
    assert calls == {op: {"gelu": 2, "linear": 1, "l1_loss": 1}.get(op, 0) for op in PUBLIC_OPS}
    for op in PUBLIC_OPS:
        assert after[op][:2] == mid[op][:2]  # backward calls no op
        assert (mid[op][1] > before[op][1]) == (calls[op] > 0), op
        assert mid[op][2] == before[op][2], op
        assert (after[op][2] > mid[op][2]) == (op in ("gelu", "linear", "l1_loss")), op


def test_linear_matches_matmul_plus_bias(rng):
    x = Tensor(rng.normal(size=(3, 4, 6)), requires_grad=True)
    w = Tensor(rng.normal(size=(6, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=5), requires_grad=True)
    target = rng.normal(size=(3, 4, 5))
    out = ag.linear(x, w, b).data
    assert out.shape == (3, 4, 5)
    assert np.abs(out - (np.einsum("bij,jk->bik", x.data, w.data) + b.data)).max() < 1e-12
    _fd_check(lambda: ag.l1_loss(ag.gelu(ag.linear(x, w, b)), target), [x, w, b])


def test_linear_transposed_view_weight(rng):
    # the tied MLM head projects with the transpose of the embedding table
    table = Tensor(rng.normal(size=(7, 4)), requires_grad=True)
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    target = rng.normal(size=(2, 3, 7))

    def fn():
        return ag.l1_loss(ag.tanh(ag.linear(x, ag.transpose(table, (1, 0)))), target)

    assert np.abs(ag.linear(x, ag.transpose(table, (1, 0))).data
                  - x.data @ table.data.T).max() < 1e-12
    _fd_check(fn, [x, table])


# three sequences of lengths 3, 5 and 5 packed into a grid of 5 positions
ATT_LENGTHS = (3, 5, 5)
ATT_LEN, ATT_HEADS, ATT_HIDDEN = 5, 2, 8


def _packed_attention_inputs(rng):
    layout = ag.AttentionLayout(np.array(ATT_LENGTHS))
    q, k, v = (Tensor(rng.normal(size=(sum(ATT_LENGTHS), ATT_HIDDEN)), requires_grad=True)
               for _ in range(3))
    return q, k, v, layout


def _per_sequence_reference(q, k, v, keep):
    """Each sequence alone through the elementary-op reference, head by head."""
    d = ATT_HIDDEN // ATT_HEADS
    ctx, weights, start = [], [], 0
    for b, n in enumerate(ATT_LENGTHS):
        part = []
        for h in range(ATT_HEADS):
            cols = slice(h * d, (h + 1) * d)
            out, w = scaled_dot_attention(q.data[start:start + n, cols],
                                          k.data[start:start + n, cols],
                                          v.data[start:start + n, cols])
            weights.append(w.data)
            part.append(out.data if keep is None else
                        (w.data * keep[b, h, :n, :n]) @ v.data[start:start + n, cols])
        ctx.append(np.concatenate(part, axis=1))
        start += n
    return np.concatenate(ctx), weights


@pytest.mark.parametrize("with_keep", [False, True])
def test_attention_matches_reference_per_sequence(rng, with_keep):
    q, k, v, layout = _packed_attention_inputs(rng)
    n_rows = sum(ATT_LENGTHS)
    shape = (len(ATT_LENGTHS), ATT_HEADS, ATT_LEN, ATT_LEN)
    keep = (rng.random(shape) >= 0.3) / 0.7 if with_keep else None
    ctx, weights = ag.attention(q, k, v, layout, ATT_HEADS, keep)
    weights = layout.padded_weights(weights, ATT_LEN)
    want_ctx, want_weights = _per_sequence_reference(q, k, v, keep)
    assert ctx.data.shape == (n_rows, ATT_HIDDEN)
    assert np.abs(ctx.data - want_ctx).max() < 1e-12
    for b, n in enumerate(ATT_LENGTHS):
        for h in range(ATT_HEADS):
            got = weights[b, h]
            assert np.abs(got[:n, :n] - want_weights[b * ATT_HEADS + h]).max() < 1e-12
            assert np.all(got[:, n:] == 0.0)  # padded keys
            if n < ATT_LEN:  # padded queries
                assert np.abs(got[n:, :n] - 1.0 / n).max() < 1e-15
    target = rng.normal(size=(n_rows, ATT_HIDDEN))

    def fn():
        out, _ = ag.attention(q, k, v, layout, ATT_HEADS, keep)
        return ag.l1_loss(ag.tanh(out), target)

    _fd_check(fn, [q, k, v])


def test_gelu_matches_textbook(rng):
    x = rng.normal(0.0, 3.0, size=(5, 40))
    t = np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x ** 3))
    a = Tensor(x.copy(), requires_grad=True)
    out = ag.gelu(a)
    assert np.abs(out.data - 0.5 * x * (1.0 + t)).max() < 1e-12
    g = rng.normal(size=x.shape)
    ag.backward(ag.tensor_sum(ag.mul(out, g)))
    d = (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t ** 2)
         * np.sqrt(2.0 / np.pi) * (1.0 + 3 * 0.044715 * x ** 2))
    assert np.abs(a.grad - g * d).max() < 1e-12
    assert np.array_equal(a.data, x)  # in-place work never touches the input


def test_layer_norm_matches_textbook(rng):
    x = rng.normal(2.0, 3.0, size=(2, 3, 16))
    gain, bias = rng.normal(1.0, 0.2, 16), rng.normal(size=16)
    a, gn, bs = (Tensor(t.copy(), requires_grad=True) for t in (x, gain, bias))
    out = ag.layer_norm(a, gn, bs)
    mu = x.mean(axis=-1, keepdims=True)
    sd = np.sqrt(((x - mu) ** 2).mean(axis=-1, keepdims=True) + 1e-5)
    xhat = (x - mu) / sd
    assert np.abs(out.data - (xhat * gain + bias)).max() < 1e-12
    g = rng.normal(size=x.shape)
    ag.backward(ag.tensor_sum(ag.mul(out, g)))
    dxhat = g * gain
    dx = (dxhat - dxhat.mean(axis=-1, keepdims=True)
          - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)) / sd
    assert np.abs(a.grad - dx).max() < 1e-12
    assert np.abs(gn.grad - (g * xhat).sum(axis=(0, 1))).max() < 1e-12
    assert np.abs(bs.grad - g.sum(axis=(0, 1))).max() < 1e-12
    assert np.array_equal(a.data, x)


# Bucketed attention: 16 dimensions per head, the shipped head width, where
# the buckets give the same bits as one padded grid (see the autograd docs).
BUCKET_HEADS, BUCKET_HIDDEN = 2, 32
BUCKET_CASES = {  # lengths -> buckets the layout cuts
    "equal": ((20, 20, 20), 1),
    "two": ((4, 5, 5, 4, 40, 40, 39, 40), 2),
    "three": ((5, 6, 5, 6, 40, 39, 40, 39, 80, 79, 80, 80), 3),
    "single": ((17,), 1),
}


def test_equal_lengths_make_one_bucket():
    for batch, length in ((16, 40), (3, 7), (1, 1)):
        assert len(ag.AttentionLayout(np.full(batch, length)).buckets) == 1


def _run_attention(layout, length, q, k, v, g, keep):
    """Context, (dq, dk, dv) for upstream g, and the weights on a grid of
    the given length."""
    ctx, weights = ag.attention(Tensor(q, requires_grad=True), Tensor(k, requires_grad=True),
                                Tensor(v, requires_grad=True), layout, BUCKET_HEADS, keep)
    return ctx.data, ctx._node.backward(g), layout.padded_weights(weights, length)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("with_keep", [False, True])
@pytest.mark.parametrize("case", sorted(BUCKET_CASES))
def test_attention_buckets_match_each_sequence_alone(rng, dtype, with_keep, case):
    lengths, n_buckets = BUCKET_CASES[case]
    length = max(lengths) + 3  # trailing padding on every row
    layout = ag.AttentionLayout(np.array(lengths))
    assert len(layout.buckets) == n_buckets
    n_rows = sum(lengths)
    q, k, v, g = (rng.normal(size=(n_rows, BUCKET_HIDDEN)).astype(dtype) for _ in range(4))
    shape = (len(lengths), BUCKET_HEADS, length, length)
    keep = ((rng.random(shape) >= 0.3) / 0.7).astype(dtype) if with_keep else None
    ctx, grads, weights = _run_attention(layout, length, q, k, v, g, keep)
    assert weights.shape == shape and weights.dtype == dtype
    start = 0
    for b, n in enumerate(lengths):
        rows = slice(start, start + n)
        alone = ag.AttentionLayout(np.array([n]))
        want_ctx, want_grads, want_weights = _run_attention(
            alone, length, q[rows], k[rows], v[rows], g[rows],
            None if keep is None else keep[b:b + 1])
        np.testing.assert_array_equal(ctx[rows], want_ctx)
        for got, want in zip(grads, want_grads):
            np.testing.assert_array_equal(got[rows], want)
        np.testing.assert_array_equal(weights[b:b + 1], want_weights)
        start += n


def test_padded_weights_beyond_each_bucket(rng):
    lengths, _ = BUCKET_CASES["three"]
    layout = ag.AttentionLayout(np.array(lengths))
    q, k, v, g = (rng.normal(size=(sum(lengths), BUCKET_HIDDEN)).astype(np.float32)
                  for _ in range(4))
    _, _, weights = _run_attention(layout, 90, q, k, v, g, None)
    for b, n in enumerate(lengths):
        assert layout.bucket_length[b] < 90
        assert np.all(weights[b, :, :, n:] == 0.0)  # padded keys
        uniform = np.divide(1, np.float32(n))
        assert np.all(weights[b, :, n:, :n] == uniform)  # padded queries, in and past the bucket
        np.testing.assert_allclose(weights[b, :, :n].sum(axis=-1), 1.0, rtol=1e-6)
