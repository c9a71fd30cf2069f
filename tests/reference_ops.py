"""Reference compositions of elementary autograd ops that tests hold the
fused production ops to."""

from __future__ import annotations

import math

import adsorbtext.autograd as ag
from adsorbtext.autograd import Tensor


def scaled_dot_attention(q, k, v, mask=None) -> tuple[Tensor, Tensor]:
    """softmax(QK^T / sqrt(d_head) + mask) V over the last two axes.

    Works for single (L, d) matrices and batched (..., L, d) stacks; mask
    is an additive bias broadcast onto the score matrix (-inf blocks a key).
    The encoder runs the fused `autograd.attention`; this composition of
    elementary ops is the reference the tests hold it to.
    """
    q, k, v = ag._wrap(q), ag._wrap(k), ag._wrap(v)
    if q.data.shape[-1] != k.data.shape[-1] or k.data.shape[-2] != v.data.shape[-2]:
        raise ValueError("Q/K/V shape mismatch")
    axes = list(range(k.data.ndim))
    axes[-1], axes[-2] = axes[-2], axes[-1]
    scores = ag.scale(ag.matmul(q, ag.transpose(k, axes)), 1.0 / math.sqrt(q.data.shape[-1]))
    if mask is not None:
        scores = ag.add(scores, mask)
    weights = ag.softmax(scores, axis=-1)
    return ag.matmul(weights, v), weights
