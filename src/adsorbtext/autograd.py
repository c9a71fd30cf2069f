"""Minimal reverse-mode autodiff over dense numpy arrays.

Define-by-run: every op records its parents and a local-gradient closure
on the result, which is the computation tape. backward() walks that tape
in reverse topological order and accumulates into .grad of every tensor
that requires gradients; calling backward again without zeroing
accumulates further. Inside `no_tape()` ops record nothing, so pure
inference keeps no intermediate arrays alive.

Double precision is the default so finite-difference checks are
meaningful; single precision is supported for training speed by creating
parameters as float32 (ops preserve the widest parent dtype).
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

_taping = True  # switched off only inside no_tape()


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "retain_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = data if isinstance(data, np.ndarray) else np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.retain_grad = False  # set to keep .grad on non-leaf tensors
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # operator sugar used by the encoder
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, scale(_wrap(other), -1.0))

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)


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


def _result(data, parents, backward) -> Tensor:
    out = Tensor(data)
    if _taping and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the parent's shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out_data = a.data + b.data

    def backward(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _result(out_data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out_data = a.data * b.data

    def backward(g):
        return (_unbroadcast(g * b.data, a.data.shape),
                _unbroadcast(g * a.data, b.data.shape))

    return _result(out_data, (a, b), backward)


def scale(a, s: float) -> Tensor:
    a = _wrap(a)

    def backward(g):
        return (g * s,)

    return _result(a.data * s, (a,), backward)


def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out_data = np.matmul(a.data, b.data)

    def backward(g):
        da = np.matmul(g, np.swapaxes(b.data, -1, -2))
        db = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return _unbroadcast(da, a.data.shape), _unbroadcast(db, b.data.shape)

    return _result(out_data, (a, b), backward)


def transpose(a, axes) -> Tensor:
    a = _wrap(a)
    inverse = np.argsort(axes)

    def backward(g):
        return (np.transpose(g, inverse),)

    return _result(np.transpose(a.data, axes), (a,), backward)


def reshape(a, shape) -> Tensor:
    a = _wrap(a)
    old = a.data.shape

    def backward(g):
        return (g.reshape(old),)

    return _result(a.data.reshape(shape), (a,), backward)


def take(a, index) -> Tensor:
    """Basic (non-repeating) slice/index with gradient scatter."""
    a = _wrap(a)

    def backward(g):
        da = np.zeros_like(a.data)
        da[index] = g
        return (da,)

    return _result(a.data[index], (a,), backward)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    out_data = table.data[ids]

    def backward(g):
        dt = np.zeros_like(table.data)
        np.add.at(dt, ids.reshape(-1), g.reshape(-1, table.data.shape[-1]))
        return (dt,)

    return _result(out_data, (table,), backward)


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


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gain, bias = _wrap(x), _wrap(gain), _wrap(bias)
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out_data = xhat * gain.data + bias.data

    def backward(g):
        reduce_axes = tuple(range(g.ndim - 1))
        dgain = np.sum(g * xhat, axis=reduce_axes)
        dbias = np.sum(g, axis=reduce_axes)
        dxhat = g * gain.data
        dx = inv * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * np.mean(dxhat * xhat, axis=-1, keepdims=True)
        )
        return dx, dgain, dbias

    return _result(out_data, (x, gain, bias), backward)


def tanh(a) -> Tensor:
    a = _wrap(a)
    out_data = np.tanh(a.data)

    def backward(g):
        return (g * (1.0 - out_data * out_data),)

    return _result(out_data, (a,), backward)


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a) -> Tensor:
    """tanh-formulation GELU."""
    a = _wrap(a)
    x = a.data
    # x**3 would take numpy's generic pow routine, tens of times slower
    inner = _GELU_C * (x + 0.044715 * (x * x * x))
    t = np.tanh(inner)
    out_data = 0.5 * x * (1.0 + t)

    def backward(g):
        d_inner = _GELU_C * (1.0 + 3 * 0.044715 * x * x)
        return (g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner),)

    return _result(out_data, (a,), backward)


def tensor_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape).copy(),)
        ga = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(ga, a.data.shape).copy(),)

    return _result(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)


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


def l1_loss(pred, target) -> Tensor:
    """Mean absolute error; target is constant."""
    pred = _wrap(pred)
    diff = pred.data - np.asarray(target)
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

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))

    grads: dict[int, np.ndarray] = {
        id(loss): np.ones_like(loss.data, dtype=loss.data.dtype)
    }
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._backward is None or node.retain_grad:
            # leaf parameter (or explicitly retained): persistent accumulation
            node.grad = g if node.grad is None else node.grad + g
        if node._backward is not None:
            parent_grads = node._backward(g)
            for parent, pg in zip(node._parents, parent_grads):
                if not parent.requires_grad:
                    continue
                acc = grads.get(id(parent))
                grads[id(parent)] = pg if acc is None else acc + pg
