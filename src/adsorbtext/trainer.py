"""Optimization: AdamW with grouped layer-wise learning rates, MAE-loss
finetuning, masked-token pretraining, early stopping and run history.

Parameters fall into three learning-rate groups by depth: embeddings and
the lower third of layers (factor 1.0), the middle third (1.75), and the
upper third plus the output heads (3.5). The factors multiply one base
learning rate; warmup is fixed at zero, so group rates are constant over
a run and stand in the exact ratio 1 : 1.75 : 3.5 at every step.

Runs are reproducible: the run seed drives shuffling, dropout and the
per-epoch re-masking of the pretraining objective, and identical
seed/config/data give bitwise-identical histories and checkpoints.
"""

from __future__ import annotations

import ctypes
import logging
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import autograd as ag
from .encoder import EncoderModel, check_fields, ensure_mlm_head, forward, mlm_logits
from .systems import is_count, is_real, output
from .tokens import TokenSequence, Vocabulary, dynamic_mask, encode

log = logging.getLogger(__name__)

GROUP_FACTORS = (1.0, 1.75, 3.5)
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # AdamW's moment decays and denominator floor
M_TOP_PAD = -2  # glibc's mallopt(3) parameter number
# Bytes glibc keeps at the heap top when it trims. Whole perfbench
# finetune_s4 runs (--seconds 30) took 52k minor faults at 16 MiB, 24k at
# 32 MiB and 23k at 64 MiB, with peak RSS 107 MB at each size.
HEAP_TOP_PAD = 32 << 20
INFERENCE_BATCH_SIZE = 32  # sequences per tape-free forward of `predict` and `embeddings`


class NonFiniteGradientError(RuntimeError):
    """A NaN/Inf gradient was about to enter the optimizer."""


@dataclass
class LrGroupPlan:
    """Maps parameter names to the three gLLRD groups."""

    n_layers: int
    base_lr: float

    def group_of(self, name: str) -> int:
        if name.startswith(("tok_emb", "pos_emb")):
            return 0
        if name.startswith("layer"):
            layer = int(name[len("layer"):name.index(".")])
            return (3 * layer) // self.n_layers
        return 2  # regression / MLM heads sit with the top group

    def lr_of(self, name: str) -> float:
        return self.base_lr * GROUP_FACTORS[self.group_of(name)]

    def effective_lrs(self) -> tuple[float, float, float]:
        return tuple(self.base_lr * f for f in GROUP_FACTORS)


@dataclass
class OptimizerState:
    """AdamW's step counter and moments; the rates, the weight decay and the
    clip norm are the run's (`TrainRunConfig`), read at every step.

    m and v are flat arrays laid out as the model's buffers, zeros from the
    first step, so a parameter without a gradient yet has zero moments. A
    state fits one layout: `ensure_mlm_head` after a step needs a new one.
    """

    step: int = 0
    m: np.ndarray | None = field(default=None, repr=False)
    v: np.ndarray | None = field(default=None, repr=False)


def adamw_step(model: EncoderModel, state: OptimizerState, run_cfg: TrainRunConfig) -> float:
    """One decoupled-weight-decay Adam update over all gradients in place;
    returns the global gradient norm before clipping.

    The base learning rate, the weight decay and the clip norm are
    run_cfg's; each parameter's rate is its gLLRD group's (`LrGroupPlan`).
    Runs on the model's flat buffers. The parameters that have a gradient
    form a few contiguous runs of the model's offsets with one learning
    rate each, and every run takes whole-array ops with the element-wise
    arithmetic, in the same order, of an update tensor by tensor. A
    parameter without a gradient (the regression head during masked-token
    pretraining) gets no update, no weight decay and no moment update.
    Raises ValueError if a parameter's data or grad is not its view of the
    model's buffers, or if the state's moments do not fit them.
    """
    plan = LrGroupPlan(model.config.n_layers, run_cfg.base_lr)
    data, grad = model.data_buffer, model.grad_buffer
    grads, runs = [], []  # runs: [start, stop, lr]
    for name, p in model.params.items():
        if p.data.base is not data:  # numpy bases a view of a view on the owner
            raise ValueError(f"{name}: data is not its view of the model's data_buffer")
        if p.grad is None:
            continue
        if p.grad is not p.grad_view:
            raise ValueError(f"{name}: grad is not its grad_view into the model's grad_buffer")
        grads.append(p.grad)
        lo, hi = model.offsets[name]
        lr = plan.lr_of(name)
        if runs and runs[-1][1] == lo and runs[-1][2] == lr:
            runs[-1][1] = hi
        else:
            runs.append([lo, hi, lr])
    if not runs:
        raise ValueError("adamw_step called with no gradients populated")
    if state.m is not None and state.m.shape != data.shape:
        raise ValueError(f"optimizer moments hold {state.m.size} values, the model {data.size}")
    if not all(np.isfinite(grad[lo:hi]).all() for lo, hi, _ in runs):
        name = next(n for n, p in model.params.items()
                    if p.grad is not None and not np.isfinite(p.grad).all())
        raise NonFiniteGradientError(f"non-finite gradient in {name} at step {state.step + 1}")

    norm = np.sqrt(sum(float((g * g).sum()) for g in grads))
    clip_norm, weight_decay = run_cfg.clip_norm, run_cfg.weight_decay
    factor = clip_norm / norm if clip_norm is not None and norm > clip_norm else None

    if state.m is None:
        state.m, state.v = np.zeros_like(data), np.zeros_like(data)
    state.step += 1
    bc1 = 1.0 - BETA1 ** state.step
    bc2 = 1.0 - BETA2 ** state.step
    for lo, hi, lr in runs:
        g = grad[lo:hi] if factor is None else grad[lo:hi] * factor
        m, v, p = state.m[lo:hi], state.v[lo:hi], data[lo:hi]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        update = (m / bc1) / (np.sqrt(v / bc2) + EPS)
        if weight_decay:
            update += weight_decay * p
        update *= lr
        p -= update
    return float(norm)


@dataclass
class TrainRunConfig:
    batch_size: int = 12
    max_epochs: int = 100
    early_stopping_patience: int = 5
    seed: int = 0
    base_lr: float = 1e-6
    weight_decay: float = 0.01
    clip_norm: float | None = None
    mask_rate: float = 0.15
    tied_mlm: bool = True

    def __post_init__(self):
        check_fields(  # types first: the range rules below compare values
            self,
            *((f, is_count(getattr(self, f)), "an integer")
              for f in ("batch_size", "max_epochs", "early_stopping_patience", "seed")),
            *((f, is_real(getattr(self, f)), "a real number")
              for f in ("base_lr", "weight_decay", "mask_rate")),
            ("clip_norm", self.clip_norm is None or is_real(self.clip_norm),
             "a real number or None"),
            ("tied_mlm", isinstance(self.tied_mlm, bool), "a bool"),
        )
        check_fields(
            self,
            ("batch_size", self.batch_size >= 1, ">= 1"),
            ("max_epochs", self.max_epochs >= 1, ">= 1"),
            ("early_stopping_patience", self.early_stopping_patience >= 1, ">= 1"),
            ("seed", self.seed >= 0, ">= 0"),
            ("base_lr", 0.0 <= self.base_lr < np.inf, "finite and >= 0"),
            ("weight_decay", 0.0 <= self.weight_decay < np.inf, "finite and >= 0"),
            ("clip_norm", self.clip_norm is None or 0.0 < self.clip_norm < np.inf,
             "finite and > 0 when set"),
            ("mask_rate", 0.0 < self.mask_rate < 1.0, "in (0, 1)"),
        )


@dataclass
class TrainResult:
    model: EncoderModel
    history: list[dict]
    best_epoch: int | None = None
    best_val_mae: float | None = None


def encode_labeled(records, vocab: Vocabulary, max_positions: int,
                   require_labels: bool = True) -> tuple[list[TokenSequence], np.ndarray]:
    seqs, labels = [], []
    for rec in records:
        if rec.energy_ev is None:
            if require_labels:
                raise ValueError(f"{rec.system_id}: sample has no energy label")
            labels.append(np.nan)
        else:
            labels.append(float(rec.energy_ev))
        seqs.append(encode(rec.text, vocab, max_positions))
    return seqs, np.asarray(labels)


def predict_energies(model: EncoderModel, seqs: Sequence[TokenSequence],
                     batch_size: int = INFERENCE_BATCH_SIZE) -> np.ndarray:
    out = []
    with ag.no_tape():
        for start in range(0, len(seqs), batch_size):
            res = forward(model, list(seqs[start:start + batch_size]))
            out.append(res.energies())
    return np.concatenate(out) if out else np.empty(0)


_PHASES = ("forward_s", "backward_s", "optimizer_s")


def _pad_heap_top() -> None:
    """Set glibc's M_TOP_PAD to HEAP_TOP_PAD for the host process.

    The pad belongs to the host process and stays set once training has
    run. Setting it also turns off glibc's dynamic mmap threshold: the
    threshold stays where it stands (128 KiB unless earlier frees raised
    it), and larger blocks are mapped and unmapped on each allocation from
    then on. A no-op where libc.so.6 or its mallopt is missing."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(M_TOP_PAD, HEAP_TOP_PAD)


def _step(model: EncoderModel, state: OptimizerState, run_cfg: TrainRunConfig, loss_of):
    """One training step: `model.zero_grads`, `loss_of()`, `ag.backward` and
    `adamw_step` with run_cfg's optimizer settings. Returns None when
    loss_of returns None (a batch to skip), else (loss, gradient norm before
    clipping, (forward_s, backward_s, optimizer_s)). The loss, and so its
    tape, is dropped on return, so no two tapes are resident at once. The
    only step loop body: training runs it, and so does the step benchmark
    (`scripts/bench_train_step.py`)."""
    model.zero_grads()
    t0 = time.perf_counter()
    loss = loss_of()
    if loss is None:
        return None
    t1 = time.perf_counter()
    ag.backward(loss)
    t2 = time.perf_counter()
    norm = adamw_step(model, state, run_cfg)
    return float(loss.data), norm, (t1 - t0, t2 - t1, time.perf_counter() - t2)


def _epochs(model: EncoderModel, run_cfg: TrainRunConfig, n: int, batch_loss, by_size: bool,
            batch_of=lambda epoch, idx: idx):
    """The epoch loop of both objectives; yields (epoch, mean loss, start
    time, step stats) per epoch, the stats being the seconds per step
    phase, the steps run, the largest step gradient norm and each op's
    forward and backward ms per step (`_op_ms`); the loss and the norm are
    NaN when no step ran. Each batch is made before its `_step` begins, and
    `batch_loss` returning None skips the batch. Before its first step the
    loop pads the process's heap top (`_pad_heap_top`), so the freed tape
    stays mapped for the next step instead of being trimmed and faulted
    back in (README, Notes, has the measurements)."""
    _pad_heap_top()
    state = OptimizerState()
    for epoch in range(1, run_cfg.max_epochs + 1):
        tic = time.perf_counter()
        order = np.random.default_rng([run_cfg.seed, epoch, 0]).permutation(n)
        dropout_rng = np.random.default_rng([run_cfg.seed, epoch, 1])
        loss_sum, weight, steps, phases = 0.0, 0, 0, np.zeros(len(_PHASES))
        grad_norm_max = 0.0
        ops_before = ag.op_totals()
        for start in range(0, n, run_cfg.batch_size):
            idx = order[start:start + run_cfg.batch_size]
            batch = batch_of(epoch, idx)
            done = _step(model, state, run_cfg,
                         lambda: batch_loss(epoch, start, batch, dropout_rng))
            if done is None:
                continue
            loss, norm, seconds = done
            phases += seconds
            grad_norm_max = max(grad_norm_max, norm)
            w = len(idx) if by_size else 1
            loss_sum += loss * w
            weight += w
            steps += 1
        yield epoch, loss_sum / weight if weight else np.nan, tic, {
            **dict(zip(_PHASES, phases.tolist())), "steps": steps,
            "grad_norm_max": grad_norm_max if steps else np.nan,
            **_op_ms(ops_before, steps)}


def _op_ms(before: dict, steps: int) -> dict:
    """`<op>_fwd_ms_per_step` and `<op>_bwd_ms_per_step` of every op called
    since `before`, an `ag.op_totals()` reading, over `steps` steps; none
    when no step ran."""
    return {f"{op}_{phase}_ms_per_step": 1e3 * (now[i] - before[op][i]) / steps
            for op, now in ag.op_totals().items() if steps and now[0] > before[op][0]
            for phase, i in (("fwd", 1), ("bwd", 2))}


def _history_row(epoch: int, metrics: dict, model: EncoderModel, run_cfg: TrainRunConfig,
                 tic: float, stats: dict) -> dict:
    lrs = LrGroupPlan(model.config.n_layers, run_cfg.base_lr).effective_lrs()
    return {"epoch": epoch, **metrics, "lrs": lrs,
            "wall_time_s": time.perf_counter() - tic, **stats}


def train_regression(
    model: EncoderModel,
    train_records,
    val_records,
    run_cfg: TrainRunConfig,
    vocab: Vocabulary,
) -> TrainResult:
    """MAE-loss finetuning with per-epoch validation and early stopping.

    Keeps the checkpoint of the best validation epoch (strictly smaller
    MAE counts as improvement) and stops after `early_stopping_patience`
    epochs without one.
    """
    if not train_records or not val_records:
        raise ValueError("train and validation sets must be non-empty")
    cfg = model.config
    train_seqs, train_labels = encode_labeled(train_records, vocab, cfg.max_positions)
    val_seqs, val_labels = encode_labeled(val_records, vocab, cfg.max_positions)

    def batch_loss(epoch, start, idx, rng):
        res = forward(model, [train_seqs[i] for i in idx], train=cfg.dropout_rate > 0, rng=rng)
        return ag.l1_loss(res.energy, train_labels[idx])

    history: list[dict] = []
    best_val = np.inf
    best_model = model.clone()
    best_epoch = None
    epochs_since_best = 0
    for epoch, train_mae, tic, stats in _epochs(model, run_cfg, len(train_seqs), batch_loss,
                                                by_size=True):
        val_tic = time.perf_counter()
        val_pred = predict_energies(model, val_seqs, run_cfg.batch_size)
        val_mae = float(np.mean(np.abs(val_pred - val_labels)))
        stats["validation_s"] = time.perf_counter() - val_tic
        history.append(_history_row(epoch, {"train_mae": train_mae, "val_mae": val_mae},
                                    model, run_cfg, tic, stats))

        if val_mae < best_val:
            best_val = val_mae
            best_model = model.clone()
            best_epoch = epoch
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= run_cfg.early_stopping_patience:
                break

    return TrainResult(best_model, history, best_epoch, float(best_val))


def _mlm_batch_loss(model, masked_seqs, labels_per_seq, train=False, rng=None):
    counts = [len(labels) for labels in labels_per_seq]
    if not sum(counts):
        return None
    pos, targets = np.array([pair for labels in labels_per_seq for pair in labels]).T
    seq_index = np.repeat(np.arange(len(counts)), counts)
    logits = mlm_logits(model, masked_seqs, (seq_index, pos), train=train, rng=rng)
    return ag.cross_entropy(logits, targets)


def pretrain_mlm(
    model: EncoderModel,
    texts: Sequence[str],
    run_cfg: TrainRunConfig,
    vocab: Vocabulary,
) -> TrainResult:
    """Masked-token pretraining; masks are redrawn every epoch.

    The vocabulary projection is tied to the token embeddings unless
    run_cfg.tied_mlm is False. The returned encoder weights can seed
    regression finetuning (which reinitializes the head).
    """
    if not texts:
        raise ValueError("pretraining corpus is empty")
    cfg = model.config
    ensure_mlm_head(model, tied=run_cfg.tied_mlm, seed=run_cfg.seed)
    base_seqs = [encode(t, vocab, cfg.max_positions) for t in texts]
    if len(base_seqs) < run_cfg.batch_size:
        raise ValueError("corpus shorter than one batch")

    def masked_batch(epoch, idx):
        masked, labels = [], []
        for i in idx:
            # epoch-dependent seed realizes dynamic masking
            mseq, mlabels = dynamic_mask(
                base_seqs[i], vocab, run_cfg.mask_rate,
                seed=[run_cfg.seed, epoch, int(i)])
            masked.append(mseq)
            labels.append(mlabels)
        return masked, labels

    def batch_loss(epoch, start, batch, rng):
        loss = _mlm_batch_loss(model, *batch, train=cfg.dropout_rate > 0, rng=rng)
        if loss is None:
            log.warning("epoch %d: batch at %d had no masked positions; skipped",
                        epoch, start)
        return loss

    history = [_history_row(epoch, {"mlm_loss": mlm_loss}, model, run_cfg, tic, stats)
               for epoch, mlm_loss, tic, stats in _epochs(
                   model, run_cfg, len(base_seqs), batch_loss, by_size=False,
                   batch_of=masked_batch)]
    return TrainResult(model, history)


def masked_top1_accuracy(model: EncoderModel, texts: Sequence[str],
                         vocab: Vocabulary, rate: float, seed: int = 1234) -> float:
    """Top-1 accuracy of the MLM head on positions freshly masked at rate
    (the run's `mask_rate`)."""
    hits = total = 0
    for i, text in enumerate(texts):
        seq = encode(text, vocab, model.config.max_positions)
        masked, labels = dynamic_mask(seq, vocab, rate, seed=[seed, i])
        if not labels:
            continue
        pos, originals = np.array(labels).T
        with ag.no_tape():
            logits = mlm_logits(model, [masked], (np.zeros_like(pos), pos)).data
        hits += int((np.argmax(logits, axis=-1) == originals).sum())
        total += len(labels)
    return hits / total if total else float("nan")


def write_history(history: list[dict], path: str | Path) -> None:
    """Line-delimited (epoch, split, metric, value) records."""
    with output(path) as fh:
        for row in history:
            epoch = row["epoch"]
            for key, value in row.items():
                if key == "epoch":
                    continue
                if key == "lrs":
                    for g, lr in enumerate(value):
                        fh.write(f"{epoch}\ttrain\tlr_group{g}\t{lr!r}\n")
                    continue
                split = "val" if key.startswith("val") else "train"
                fh.write(f"{epoch}\t{split}\t{key}\t{value!r}\n")
