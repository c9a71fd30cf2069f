"""Reference compositions of elementary autograd ops, and a sorting
grouping, that tests hold the fused or sort-free production code to."""

from __future__ import annotations

import math

import numpy as np

import adsorbtext.autograd as ag
from adsorbtext.autograd import Tensor
from adsorbtext.pairs import _Groups


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


def sorted_groups(x: np.ndarray, keys: np.ndarray) -> _Groups:
    """`pairs._groups` through np.unique, which sorts the keys: groups in key
    order, each with the index of its first value and its size, then the
    same shifted sums."""
    _, first, index = np.unique(keys, return_index=True, return_inverse=True)
    size = np.bincount(index)
    shifted = x - x[first][index]
    offset = np.bincount(index, weights=shifted) / size
    sq = np.bincount(index, weights=(shifted - offset[index]) ** 2)
    return _Groups(index, first, size, x[first] + offset, sq)
