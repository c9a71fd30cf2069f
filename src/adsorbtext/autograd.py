"""Minimal reverse-mode autodiff over dense numpy arrays.

Define-by-run: an op whose parents need gradients gives its result a
node, and the nodes are the tape. A node holds its parents' nodes, the
op's backward closure and a weak reference to its Tensor; the closure
holds only the arrays its backward reads, never a Tensor. So an
intermediate whose data no backward reads (a projection that attention
copies onto its grids, a residual sum that LayerNorm normalises) is freed
as soon as the caller drops it. backward() walks the nodes in reverse
topological order and accumulates into .grad of every leaf that requires
gradients, and of a live op result that sets retain_grad; calling
backward again without zeroing accumulates further. Inside `no_tape()`
ops record nothing, so pure inference keeps no intermediate arrays alive.

Besides elementwise and matrix ops the engine has two fused ones that
the encoder runs on packed tokens (one row per real token): `linear`,
whose weight gradient is a single 2-D GEMM over all rows, and
multi-head `attention`, which writes its backward by hand. An
`AttentionLayout`, built once per batch from the sequence lengths, sorts
the sequences by length and cuts them into a few buckets; the op lays
each bucket out on its own (sequences, heads, length, length) grid,
padded only to that bucket's longest sequence. A sequence's n tokens sit
at positions 0..n-1 on any grid at least n long, and a longer grid adds
only exact zeros at the end of each sum over keys or queries: in exact
arithmetic the buckets change nothing. A BLAS
may still round a product differently with the size of its matrices.
With OpenBLAS 0.3.31 the results equal those of one grid padded to the
batch's longest sequence bit for bit at 16 dimensions per head (the
shipped configuration), though not always at 8 or 32.

A leaf whose owner keeps gradients in one flat buffer (EncoderModel) has
a `grad_view` into it; backward writes that leaf's gradient there instead
of binding a new array.

Every public op is registered by `@_op` and timed, always: per op, the
engine adds up its calls, its forward seconds and the seconds backward()
spends in the closures it put on the tape (each node records its op).
`op_totals()` reads the sums; callers take differences of two readings,
as training does around each epoch's steps. Callers call ops as module
attributes (`autograd.linear`), so a tool wrapping those still sees all.

Double precision is the default so finite-difference checks are
meaningful; single precision is supported for training speed by creating
parameters as float32 (ops preserve the widest parent dtype).
"""

from __future__ import annotations

import functools
import math
import weakref
from contextlib import contextmanager
from time import perf_counter

import numpy as np

_taping = True  # switched off only inside no_tape()
_totals: dict[str, list] = {}  # the op registry: name -> [calls, forward s, backward s]
_running: list | None = None  # the totals of the op whose forward runs


def _op(fn):
    """Register fn as a public op and time its forward calls."""
    totals = _totals[fn.__name__] = [0, 0.0, 0.0]

    @functools.wraps(fn)
    def op(*args, **kwargs):
        global _running
        _running = totals  # no op calls another, so this is the running one
        tic = perf_counter()
        out = fn(*args, **kwargs)
        totals[1] += perf_counter() - tic
        totals[0] += 1
        return out
    return op


def op_totals() -> dict[str, tuple[int, float, float]]:
    """Each registered op's calls, forward seconds and backward seconds
    since import, in definition order; callers take differences."""
    return {name: tuple(t) for name, t in _totals.items()}


class _Node:
    """A Tensor's place on the tape: its parents' nodes (None where a parent
    needs no gradient), its backward closure and op's totals (None for a
    leaf) and a weak reference to the Tensor, whose .grad it fills while
    the Tensor lives."""

    __slots__ = ("parents", "backward", "op", "tensor")

    def __init__(self, parents: tuple, backward, tensor: Tensor, op: list | None = None):
        self.parents, self.backward, self.op = parents, backward, op
        self.tensor = weakref.ref(tensor)


class Tensor:
    __slots__ = ("data", "grad", "grad_view", "requires_grad", "retain_grad", "_node",
                 "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = data if isinstance(data, np.ndarray) else np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        # where backward writes this leaf's gradient, if its owner keeps
        # gradients in one buffer (see EncoderModel); grad stays None until then
        self.grad_view: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.retain_grad = False  # set to keep .grad on non-leaf tensors
        self._node: _Node | None = None  # set by an op, or on a leaf's first taped use

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x))


@contextmanager
def no_tape():
    """Run ops without recording the tape: results never require gradients."""
    global _taping
    saved, _taping = _taping, False
    try:
        yield
    finally:
        _taping = saved


def _node_of(t: Tensor) -> _Node | None:
    """t's node, made on a leaf's first use; None if t needs no gradient."""
    if t.requires_grad and t._node is None:
        t._node = _Node((), None, t)
    return t._node if t.requires_grad else None


def _result(data, parents, backward) -> Tensor:
    out = Tensor(data)
    if _taping:
        nodes = tuple(_node_of(p) for p in parents)
        if any(nodes):
            out.requires_grad = True
            out._node = _Node(nodes, backward, out, _running)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the parent's shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


@_op
def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    sa, sb = a.data.shape, b.data.shape

    def backward(g):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return _result(a.data + b.data, (a, b), backward)


@_op
def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    x, y = a.data, b.data

    def backward(g):
        return _unbroadcast(g * y, x.shape), _unbroadcast(g * x, y.shape)

    return _result(x * y, (a, b), backward)


@_op
def scale(a, s: float) -> Tensor:
    a = _wrap(a)

    def backward(g):
        return (g * s,)

    return _result(a.data * s, (a,), backward)


@_op
def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    x, y = a.data, b.data

    def backward(g):
        da = np.matmul(g, np.swapaxes(y, -1, -2))
        db = np.matmul(np.swapaxes(x, -1, -2), g)
        return _unbroadcast(da, x.shape), _unbroadcast(db, y.shape)

    return _result(np.matmul(x, y), (a, b), backward)


@_op
def linear(x, w, b=None) -> Tensor:
    """x @ w (+ b) with x of any rank viewed as rows of its last axis, so
    the weight gradient is one 2-D GEMM and the bias gradient one column sum.
    w may be a view, such as the transpose of a tied embedding table."""
    x, w = _wrap(x), _wrap(w)
    shape, weight, need_dx = x.data.shape, w.data, x.requires_grad
    x2 = x.data.reshape(-1, shape[-1])
    out_data = x2 @ weight
    biased = b is not None
    if biased:
        b = _wrap(b)
        out_data += b.data

    def backward(g):
        g2 = g.reshape(-1, g.shape[-1])
        dx = (g2 @ weight.T).reshape(shape) if need_dx else None
        dw = x2.T @ g2
        return (dx, dw, g2.sum(axis=0)) if biased else (dx, dw)

    out_data = out_data.reshape(*shape[:-1], weight.shape[-1])
    return _result(out_data, (x, w, b) if biased else (x, w), backward)


@_op
def transpose(a, axes) -> Tensor:
    a = _wrap(a)
    inverse = np.argsort(axes)

    def backward(g):
        return (np.transpose(g, inverse),)

    return _result(np.transpose(a.data, axes), (a,), backward)


@_op
def reshape(a, shape) -> Tensor:
    a = _wrap(a)
    old = a.data.shape

    def backward(g):
        return (g.reshape(old),)

    return _result(a.data.reshape(shape), (a,), backward)


@_op
def take(a, index) -> Tensor:
    """Basic (non-repeating) slice/index with gradient scatter."""
    a = _wrap(a)
    shape, dtype = a.data.shape, a.data.dtype

    def backward(g):
        da = np.zeros(shape, dtype)
        da[index] = g
        return (da,)

    return _result(a.data[index], (a,), backward)


@_op
def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    weights = table.data

    def backward(g):
        dt = np.zeros_like(weights)
        np.add.at(dt, ids.reshape(-1), g.reshape(-1, weights.shape[-1]))
        return (dt,)

    return _result(weights[ids], (table,), backward)


@_op
def softmax(a, axis: int = -1) -> Tensor:
    """Max-subtracted softmax; -inf inputs give exact zeros."""
    a = _wrap(a)
    shifted = a.data - np.max(a.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / np.sum(e, axis=axis, keepdims=True)

    def backward(g):
        dot = np.sum(g * out_data, axis=axis, keepdims=True)
        return (out_data * (g - dot),)

    return _result(out_data, (a,), backward)


# Cost of one more bucket in score cells (the n * L * L of a grid). Measured
# once with `attention` forward and backward on one core (float32, 4 heads of
# 16, 16 sequences): splitting equal lengths into more buckets adds about
# 55 us per bucket, and a grid costs about 19 ns per cell. On S4 batches
# (lengths 22-74) this still cuts three buckets and takes 0.63x the time of
# one grid; on DESC batches (45-51), where a cut saves little, it keeps one
# or two and the time does not move.
BUCKET_COST_CELLS = 3000


def _bucket_bounds(lengths: np.ndarray) -> np.ndarray:
    """Bounds of at most three buckets over ascending lengths that minimise
    the cells of their grids plus BUCKET_COST_CELLS per bucket; on a tie the
    fewest cuts win, so equal lengths stay in one bucket."""
    total = lengths.size
    end = np.arange(total + 1)
    top = np.concatenate(([0], lengths.astype(np.int64) ** 2))  # longest of [i, j) squared: top[j]
    i, j = end[:, None], end[None, :]
    cells = (j - i) * top[j] + BUCKET_COST_CELLS * (j > i)  # bucket [i, j), for j >= i
    # buckets [0, i), [i, j) and [j, total); argmin takes the first, fewest-cut minimum
    costs = np.where(j >= i, cells[0][:, None] + cells + cells[:, total], np.iinfo(np.int64).max)
    i, j = np.unravel_index(np.argmin(costs), costs.shape)
    return np.unique([0, i, j, total])


class AttentionLayout:
    """Where one batch's packed rows sit on the grids of `attention`.

    lengths holds each sequence's number of tokens; the longest sets the
    side of the full (batch, side) grid. The packed rows are the sequences'
    tokens one after another; packed row starts[b] + t is token t of
    sequence b. The sequences are sorted by length and cut into at most
    three buckets (see _bucket_bounds), each laid out as a grid padded
    only to its own longest sequence; the buckets' grids are stacked row
    after row, and packed row i sits at grid row grid_rows[i]. Every
    sequence keeps its tokens at positions 0..n-1, as on the full grid, so
    a larger grid would only add exact zeros at the end of each reduction
    over keys or queries.
    """

    def __init__(self, lengths: np.ndarray):
        lengths = np.asarray(lengths, dtype=np.int64)
        batch = lengths.size
        self.side = int(lengths.max())
        self.lengths = lengths
        self.starts = np.cumsum(lengths) - lengths  # first packed row of each sequence
        order = np.argsort(lengths, kind="stable")
        bounds = _bucket_bounds(lengths[order])
        sizes = np.diff(bounds)
        bucket_len = lengths[order[bounds[1:] - 1]]
        offsets = np.cumsum(sizes * bucket_len) - sizes * bucket_len
        # per sequence, in sorted order: its bucket, then its first grid row
        bucket = np.repeat(np.arange(sizes.size), sizes)
        first = offsets[bucket] + (np.arange(batch) - bounds[bucket]) * bucket_len[bucket]
        self.bucket_length = np.empty(batch, dtype=np.int64)
        self.bucket_length[order] = bucket_len[bucket]
        seq_first = np.empty(batch, dtype=np.int64)
        seq_first[order] = first
        self.grid_rows = (np.repeat(seq_first - self.starts, lengths)
                          + np.arange(lengths.sum()))
        # (sequences, length, first grid row, key bias) per bucket; -inf on
        # padded keys makes their softmax weight exactly zero
        self.buckets = []
        for lo, hi, n_max, off in zip(bounds[:-1], bounds[1:], bucket_len.tolist(),
                                      offsets.tolist()):
            seqs = order[lo:hi]
            key_bias = np.where(np.arange(n_max) < lengths[seqs][:, None], 0.0, -np.inf)
            self.buckets.append((seqs, n_max, off, key_bias))

    def padded_weights(self, weights: list[np.ndarray], length: int) -> np.ndarray:
        """The buckets' (n_b, heads, query, key) weights from `attention` laid
        out on one (batch, heads, length, length) grid, length being at least
        the longest sequence (the encoder passes the encoded length). Padded
        keys get exactly 0 and padded queries, as inside a bucket, 1/n on
        each of the n real keys, also past the bucket's own length."""
        batch = self.lengths.size
        out = np.zeros((batch, weights[0].shape[1], length, length), dtype=weights[0].dtype)
        for (seqs, n_max, _, _), w in zip(self.buckets, weights):
            out[seqs, :, :n_max, :n_max] = w
        pos = np.arange(length)
        beyond = ((pos[None, :, None] >= self.bucket_length[:, None, None])
                  & (pos[None, None, :] < self.lengths[:, None, None]))
        uniform = np.divide(1, self.lengths.astype(out.dtype))
        np.copyto(out, uniform[:, None, None, None], where=beyond[:, None])
        return out


@_op
def attention(q, k, v, layout: AttentionLayout, n_heads: int,
              keep: np.ndarray | None = None) -> tuple[Tensor, list[np.ndarray]]:
    """Multi-head softmax(QK^T / sqrt(d_head)) V on packed rows.

    q, k and v are (N, hidden): one row per real token, laid out by
    `layout`. The zero-padded (n_b, heads, L_b, L_b) grid of each bucket
    exists only inside this op, and a query attends only to the real keys
    of its own sequence. keep, if given, is drawn on a (batch,
    heads, L, L) grid, L >= layout.side, and multiplies the weights
    (inverted dropout). Padded query rows are zero, so their weights are
    uniform over the real keys; no output row reads them. Returns the
    packed context (N, hidden) and each bucket's weights (n_b, heads,
    query, key) before keep, which layout.padded_weights lays out on one
    grid.
    """
    q, k, v = _wrap(q), _wrap(k), _wrap(v)
    hidden = q.data.shape[-1]
    d_head = hidden // n_heads
    scale_by = 1.0 / math.sqrt(d_head)

    # The stacked grids get the rows of the full (batch, side) grid and the
    # buckets use their front, so their size follows only the batch size and
    # its longest sequence, and freed blocks of that size are reused.
    capacity = layout.lengths.size * layout.side

    def heads(grid, n_seqs, n_max, off):  # a bucket's (n_b, heads, L_b, d_head) view
        block = grid[off:off + n_seqs * n_max]
        return block.reshape(n_seqs, n_max, n_heads, d_head).transpose(0, 2, 1, 3)

    def split(t):  # packed (N, hidden) -> zero-padded rows of the stacked grids
        grid = np.zeros((capacity, hidden), dtype=t.dtype)
        grid[layout.grid_rows] = t
        return grid

    qg, kg, vg = split(q.data * scale_by), split(k.data), split(v.data)
    ctx = np.empty_like(qg)
    saved = []
    for seqs, n_max, off, key_bias in layout.buckets:
        qh, kh, vh = (heads(g, seqs.size, n_max, off) for g in (qg, kg, vg))
        # Scores are held key-major, (n_b, heads, key, query): numpy's max over
        # the second-to-last axis is about twice as fast as over the last.
        wt = np.matmul(kh, qh.swapaxes(-1, -2))
        wt += key_bias.astype(wt.dtype)[:, None, :, None]
        wt -= wt.max(axis=-2, keepdims=True)
        np.exp(wt, out=wt)
        wt /= np.einsum("...kq->...q", wt)[..., None, :]
        keep_t = None if keep is None else keep[seqs, :, :n_max, :n_max].swapaxes(-1, -2)
        kept = wt if keep_t is None else wt * keep_t
        np.matmul(kept.swapaxes(-1, -2), vh, out=heads(ctx, seqs.size, n_max, off))
        saved.append((qh, kh, vh, wt, kept, keep_t))

    def backward(g):
        gg = split(g)
        dq, dk, dv = np.empty_like(gg), np.empty_like(gg), np.empty_like(gg)
        for (seqs, n_max, off, _), (qh, kh, vh, wt, kept, keep_t) in zip(layout.buckets, saved):
            gh = heads(gg, seqs.size, n_max, off)
            np.matmul(kept, gh, out=heads(dv, seqs.size, n_max, off))
            dwt = np.matmul(vh, gh.swapaxes(-1, -2))
            if keep_t is not None:
                dwt *= keep_t
            dwt -= np.einsum("...kq,...kq->...q", dwt, wt)[..., None, :]
            dwt *= wt
            dqh = heads(dq, seqs.size, n_max, off)
            np.matmul(dwt.swapaxes(-1, -2), kh, out=dqh)
            dqh *= scale_by
            np.matmul(dwt, qh, out=heads(dk, seqs.size, n_max, off))
        rows = layout.grid_rows
        return dq[rows], dk[rows], dv[rows]

    out = _result(ctx[layout.grid_rows], (q, k, v), backward)
    return out, [s[3].swapaxes(-1, -2) for s in saved]


@_op
def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gain, bias = _wrap(x), _wrap(gain), _wrap(bias)
    h, gd = x.data.shape[-1], gain.data
    # einsum sums a short last axis several times faster than mean or sum
    xhat = x.data - np.einsum("...i->...", x.data)[..., None] / h
    inv = np.einsum("...i,...i->...", xhat, xhat)[..., None]
    inv /= h
    inv += eps
    np.sqrt(inv, out=inv)
    np.reciprocal(inv, out=inv)
    xhat *= inv
    out_data = xhat * gd
    out_data += bias.data

    def backward(g):
        g2 = g.reshape(-1, h)
        dgain = np.einsum("ni,ni->i", g2, xhat.reshape(-1, h))
        dbias = g2.sum(axis=0)
        dxhat = g * gd
        proj = np.einsum("...i,...i->...", dxhat, xhat)[..., None]
        proj /= h
        dx = dxhat - np.einsum("...i->...", dxhat)[..., None] / h
        dx -= xhat * proj
        dx *= inv
        return dx, dgain, dbias

    return _result(out_data, (x, gain, bias), backward)


@_op
def tanh(a) -> Tensor:
    a = _wrap(a)
    out_data = np.tanh(a.data)

    def backward(g):
        return (g * (1.0 - out_data * out_data),)

    return _result(out_data, (a,), backward)


_GELU_C = math.sqrt(2.0 / math.pi)


@_op
def gelu(a) -> Tensor:
    """tanh-formulation GELU: 0.5 x (1 + tanh(c (x + 0.044715 x^3)))."""
    a = _wrap(a)
    x = a.data
    # in place, powers by multiplication: numpy's generic pow is tens of times slower
    t = x * x
    t *= 0.044715
    t += 1.0
    t *= x
    t *= _GELU_C
    np.tanh(t, out=t)
    out_data = t + 1.0
    out_data *= x
    out_data *= 0.5
    if not (_taping and a.requires_grad):
        return Tensor(out_data)
    # the derivative, kept in place of x and t:
    # d/dx = 0.5 (1 + t) + 0.5 x (1 - t^2) c (1 + 3 * 0.044715 x^2)
    d = x * x
    d *= 3 * 0.044715
    d += 1.0
    d *= x
    d *= 0.5 * _GELU_C
    t2 = t * t
    np.subtract(1.0, t2, out=t2)
    d *= t2
    d += 0.5
    d += np.multiply(t, 0.5, out=t2)

    def backward(g):
        return (d * g,)

    return _result(out_data, (a,), backward)


@_op
def tensor_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    shape = a.data.shape

    def backward(g):
        ga = g if axis is None or keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(ga, shape).copy(),)

    # a full reduction gives a numpy scalar; asarray keeps its dtype, where
    # Tensor() would cast it to float64
    return _result(np.asarray(a.data.sum(axis=axis, keepdims=keepdims)), (a,), backward)


@_op
def dropout(a, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity when rate is 0."""
    if rate <= 0.0:
        return _wrap(a)
    a = _wrap(a)
    keep = (rng.random(a.data.shape) >= rate).astype(a.data.dtype) / (1.0 - rate)
    out_data = a.data * keep

    def backward(g):
        return (g * keep,)

    return _result(out_data, (a,), backward)


@_op
def cross_entropy(logits, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy of row-wise class logits against integer targets."""
    logits = _wrap(logits)
    n = logits.data.shape[0]
    if n == 0:
        raise ValueError("cross_entropy over zero rows")
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logp = shifted - lse
    rows = np.arange(n)
    out_data = np.asarray(-logp[rows, targets].mean())

    def backward(g):
        p = np.exp(logp)
        p[rows, targets] -= 1.0
        return (g * p / n,)

    return _result(out_data, (logits,), backward)


@_op
def l1_loss(pred, target) -> Tensor:
    """Mean absolute error; target is constant and taken in pred's dtype."""
    pred = _wrap(pred)
    diff = pred.data - np.asarray(target, dtype=pred.data.dtype)
    n = diff.size

    def backward(g):
        return (g * np.sign(diff) / n,)

    return _result(np.asarray(np.abs(diff).mean()), (pred,), backward)


def backward(loss: Tensor) -> None:
    """Populate .grad of every requires_grad tensor reachable from loss."""
    if loss.data.size != 1:
        raise ValueError("backward expects a scalar loss")
    if not loss.requires_grad:
        return

    root = _node_of(loss)
    topo: list[_Node] = []
    seen: set[int] = set()
    stack: list[tuple[_Node, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if parent is not None and id(parent) not in seen:
                stack.append((parent, False))

    grads: dict[int, np.ndarray] = {id(root): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        t = node.tensor()  # None once its owner dropped it: no one can read its grad
        if t is not None and (node.backward is None or t.retain_grad):
            # leaf parameter (or explicitly retained): persistent accumulation
            if t.grad_view is None:
                t.grad = g if t.grad is None else t.grad + g
            else:  # written into the owner's gradient buffer, never rebound
                if t.grad is None:
                    t.grad_view[...] = g
                else:
                    np.add(t.grad, g, out=t.grad_view)
                t.grad = t.grad_view
        if node.backward is not None:
            tic = perf_counter()
            parent_grads = node.backward(g)
            node.op[2] += perf_counter() - tic
            for parent, pg in zip(node.parents, parent_grads):
                if parent is not None:
                    acc = grads.get(id(parent))
                    grads[id(parent)] = pg if acc is None else acc + pg
