"""Reference compositions of elementary autograd ops, a sorting grouping,
a pair-visiting error propagation and a one-pair minimum-image distance,
that tests hold the fused, sort-free or vectorised production code to."""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

import adsorbtext.autograd as ag
from adsorbtext.autograd import Tensor
from adsorbtext.pairs import PairRecord, PredictionRecord, PropagationStats, _Groups
from adsorbtext.systems import _IMAGE_SHIFTS


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


def error_propagation_stats(
    records: Sequence[PredictionRecord],
    pairs: Iterable[PairRecord],
    selector: Callable[[PairRecord], bool] | None = None,
) -> PropagationStats:
    """Empirical Var(e_ij), Var(e_i), Var(e_j) and Cov over a pair stream,
    optionally restricted to a subgroup, with the records' errors."""
    if len(records) < 2:
        raise ValueError("need at least two prediction records")
    err_by_id = {r.system_id: r.error for r in records}
    n = 0
    si = sj = sii = sjj = sij = sdd = 0.0
    for pair in pairs:
        if selector is None or selector(pair):
            ei, ej = err_by_id[pair.id_i], err_by_id[pair.id_j]
            n += 1
            si, sj, sdd = si + ei, sj + ej, sdd + (ei - ej) ** 2
            sii, sjj, sij = sii + ei * ei, sjj + ej * ej, sij + ei * ej
    if n == 0:
        raise ValueError("no pairs accumulated")
    mi, mj = si / n, sj / n
    return PropagationStats(n, sdd / n - (mi - mj) ** 2, sii / n - mi * mi,
                            sjj / n - mj * mj, sij / n - mi * mj)


def minimum_image_distance(a, b, cell) -> float:
    """Minimum distance between a and b over lattice translations of b.

    Searches the +-1 image shell (27 images) of the given 3x3 cell.
    """
    cell = np.asarray(cell, dtype=float)
    if abs(np.linalg.det(cell)) < 1e-10:
        raise ValueError("singular cell")
    delta = np.asarray(b, dtype=float) - np.asarray(a, dtype=float)
    images = delta + _IMAGE_SHIFTS @ cell
    return float(np.sqrt(np.min(np.einsum("ij,ij->i", images, images))))
