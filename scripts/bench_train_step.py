"""Training-step benchmark at the criterion-10 configuration.

Run from the repository root with single-threaded BLAS:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/bench_train_step.py --label after

It trains the criterion-10 desk benchmark of `tests/test_acceptance.py`
(2,000 synthetic systems, S4 at 80 positions and S1 at 16, 4 layers,
4 heads, 64 hidden, float32, batch 16, seed 7) and records, per format,
the validation MAE, the epochs run, each epoch's wall time, the mean
forward, backward and AdamW milliseconds of a training step and a sha256
of the best model's parameter bytes, so two entries with equal hashes
trained bit for bit the same model. It then
runs PROFILE_STEPS (100) S4 training steps of a fresh model with every
public `autograd` op wrapped from outside, the way `perfbench/trace.py`
wraps the program: the wrapper times the op's forward call and swaps the
backward closure on its result for a timed one, which gives per-op
forward and backward milliseconds per step. Last it profiles the same
way PROFILE_STEPS masked-token pretraining steps at the configuration
of the benchmark's `pretrain_desc` workload (DESC text of the same
systems, 52 positions, mask rate 0.15, tied head), recording the final
loss and a parameter sha256 as well; the masks are drawn before timing.

The result goes into `--out` (default BENCH_train_step.json) under
`--label`, keeping the other labels already in the file: running the
script once with PYTHONPATH at another checkout's `src` and `--label
before`, and once here with `--label after`, puts both sides in one file.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from adsorbtext import autograd, trainer
from adsorbtext.encoder import EncoderConfig, ensure_mlm_head, init_model
from adsorbtext.featurize import featurize_systems
from adsorbtext.synth import synthetic_systems
from adsorbtext.tokens import build_vocab, dynamic_mask, encode
from adsorbtext.trainer import LrGroupPlan, OptimizerState, TrainRunConfig, train_regression

SEED = 7
NOISE_SIGMA = 0.1
FORMATS = (("S4", 80), ("S1", 16))
PROFILE_STEPS = 100  # training steps of each per-op profile
MLM_POSITIONS = 52  # pretrain_desc: the longest DESC text is 51 tokens
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Timers:
    """Calls and seconds per name, from wrappers installed on module attributes."""

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self._saved: list[tuple[object, str, object]] = []

    def add(self, name: str, seconds: float) -> None:
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds
        self.calls[name] = self.calls.get(name, 0) + 1

    def timed(self, fn, name_of):
        def wrapper(*args, **kwargs):
            tic = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add(name_of(), time.perf_counter() - tic)
        return wrapper

    def patch(self, owner, attr: str, make) -> None:
        fn = getattr(owner, attr)
        self._saved.append((owner, attr, fn))
        setattr(owner, attr, make(fn))

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()


def patch_step_phases(timers: Timers) -> None:
    """Time forward, backward and AdamW; forward inside validation counts apart."""
    validating = [False]

    def predict(fn):
        def wrapper(*args, **kwargs):
            validating[0] = True
            try:
                return fn(*args, **kwargs)
            finally:
                validating[0] = False
        return wrapper

    timers.patch(trainer, "predict_energies", predict)
    timers.patch(trainer, "forward", lambda fn: timers.timed(
        fn, lambda: "forward_infer" if validating[0] else "forward"))
    timers.patch(autograd, "backward", lambda fn: timers.timed(fn, lambda: "backward"))
    timers.patch(trainer, "adamw_step", lambda fn: timers.timed(fn, lambda: "adamw"))


def public_ops() -> list[str]:
    return sorted(name for name, fn in vars(autograd).items()
                  if inspect.isfunction(fn) and fn.__module__ == autograd.__name__
                  and not name.startswith("_") and name not in ("backward", "no_tape"))


def patch_ops(timers: Timers) -> None:
    """Time every op's forward call and the backward closure it records."""
    def make(fn, op):
        def wrapper(*args, **kwargs):
            tic = time.perf_counter()
            result = fn(*args, **kwargs)
            timers.add(f"{op}.fwd", time.perf_counter() - tic)
            out = result[0] if isinstance(result, tuple) else result
            closure = getattr(out, "_backward", None)
            if closure is not None:
                out._backward = timers.timed(closure, lambda: f"{op}.bwd")
            return result
        return wrapper

    for op in public_ops():
        timers.patch(autograd, op, lambda fn, op=op: make(fn, op))


def ms_per_step(timers: Timers, name: str, steps: int) -> float:
    return round(1e3 * timers.seconds.get(name, 0.0) / steps, 3)


def parameter_sha256(model) -> str:
    """sha256 over every parameter's bytes in checkpoint order."""
    digest = hashlib.sha256()
    for p in model.params.values():
        digest.update(np.ascontiguousarray(p.data).tobytes())
    return digest.hexdigest()


def corpus(systems, fmt: str):
    records, report = featurize_systems(systems, fmt)
    if report["fallback_s1"]:
        raise RuntimeError(f"{fmt}: {report['fallback_s1']} systems fell back to S1")
    vocab = build_vocab([r.text for r in records])
    train = [r for r in records if r.split == "train"]
    val = [r for r in records if r.split != "train"]
    return train, val, vocab


def model_and_run(vocab, max_positions: int):
    cfg = EncoderConfig(vocab_size=len(vocab), n_layers=4, n_heads=4, hidden_size=64,
                        max_positions=max_positions, dropout_rate=0.0, dtype="float32")
    run = TrainRunConfig(batch_size=16, max_epochs=40, early_stopping_patience=5,
                         seed=SEED, base_lr=1e-3)
    return init_model(cfg, seed=SEED), run


def criterion_10(systems) -> dict:
    """The criterion-10 run with step-phase timers; its gate is S4 < 0.2 and S4 < S1."""
    out: dict = {}
    tic = time.perf_counter()
    for fmt, max_positions in FORMATS:
        train, val, vocab = corpus(systems, fmt)
        model, run = model_and_run(vocab, max_positions)
        timers = Timers()
        patch_step_phases(timers)
        try:
            result = train_regression(model, train, val, run, vocab)
        finally:
            timers.restore()
        steps = timers.calls["adamw"]
        out[fmt] = {
            "val_mae": result.best_val_mae,
            "best_epoch": result.best_epoch,
            "epochs": len(result.history),
            "steps": steps,
            "epoch_wall_s": [round(h["wall_time_s"], 3) for h in result.history],
            "median_epoch_wall_s": round(float(np.median(
                [h["wall_time_s"] for h in result.history])), 3),
            "forward_ms_per_step": ms_per_step(timers, "forward", steps),
            "backward_ms_per_step": ms_per_step(timers, "backward", steps),
            "adamw_ms_per_step": ms_per_step(timers, "adamw", steps),
            "validation_s": round(timers.seconds.get("forward_infer", 0.0), 3),
            "param_sha256": parameter_sha256(result.model),
        }
    s4, s1 = out["S4"]["val_mae"], out["S1"]["val_mae"]
    out["gate"] = {"s4_below": 2 * NOISE_SIGMA, "margin_to_gate": 2 * NOISE_SIGMA - s4,
                   "margin_to_s1": s1 - s4, "passed": s4 < 2 * NOISE_SIGMA and s4 < s1,
                   "wall_s": round(time.perf_counter() - tic, 1)}
    return out


def profile_steps(model, run, batches, loss_of, steps: int) -> tuple[dict, float]:
    """Per-phase and per-op ms of `steps` training steps over prepared
    batches, loss_of(batch) giving each step's loss; returns them and the
    last loss."""
    plan = LrGroupPlan(model.config.n_layers, base_lr=run.base_lr)
    state = OptimizerState(weight_decay=run.weight_decay)
    timers = Timers()
    patch_ops(timers)
    phases = Timers()
    try:
        for step in range(steps):
            batch = batches[step % len(batches)]
            model.zero_grads()
            tic = time.perf_counter()
            loss = loss_of(batch)
            phases.add("forward", time.perf_counter() - tic)
            tic = time.perf_counter()
            autograd.backward(loss)
            phases.add("backward", time.perf_counter() - tic)
            tic = time.perf_counter()
            trainer.adamw_step(model, state, plan, clip_norm=run.clip_norm)
            phases.add("adamw", time.perf_counter() - tic)
    finally:
        timers.restore()
    ops = sorted({name.rsplit(".", 1)[0] for name in timers.seconds})
    return {
        "steps": steps,
        "forward_ms_per_step": ms_per_step(phases, "forward", steps),
        "backward_ms_per_step": ms_per_step(phases, "backward", steps),
        "adamw_ms_per_step": ms_per_step(phases, "adamw", steps),
        "ops": {op: {"calls_per_step": timers.calls.get(f"{op}.fwd", 0) / steps,
                     "fwd_ms_per_step": ms_per_step(timers, f"{op}.fwd", steps),
                     "bwd_ms_per_step": ms_per_step(timers, f"{op}.bwd", steps)}
                for op in ops},
    }, float(loss.data)


def first_epoch_batches(n: int, batch_size: int) -> list[np.ndarray]:
    order = np.random.default_rng([SEED, 1, 0]).permutation(n)
    return [order[i:i + batch_size] for i in range(0, n, batch_size)]


def op_profile(systems, steps: int) -> dict:
    """Per-op forward and backward ms over the first S4 training steps."""
    train, _, vocab = corpus(systems, "S4")
    model, run = model_and_run(vocab, 80)
    seqs, labels = trainer.encode_labeled(train, vocab, model.config.max_positions)
    labels = labels.astype(model.config.np_dtype)

    def loss_of(idx):
        res = trainer.forward(model, [seqs[i] for i in idx])
        return autograd.l1_loss(res.energy, labels[idx])

    profile, _ = profile_steps(model, run, first_epoch_batches(len(seqs), run.batch_size),
                               loss_of, steps)
    return profile


def mlm_profile(systems, steps: int) -> dict:
    """Per-op forward and backward ms over the first DESC masked-token
    pretraining steps, masked as `trainer.pretrain_mlm` masks epoch 1."""
    records, _ = featurize_systems(systems, "desc")
    texts = [r.text for r in records]
    vocab = build_vocab(texts)
    model, run = model_and_run(vocab, MLM_POSITIONS)
    ensure_mlm_head(model, tied=run.tied_mlm, seed=run.seed)
    seqs = [encode(t, vocab, MLM_POSITIONS) for t in texts]
    batches = [list(zip(*(dynamic_mask(seqs[i], vocab, run.mask_rate, seed=[SEED, 1, int(i)])
                          for i in idx)))
               for idx in first_epoch_batches(len(seqs), run.batch_size)[:steps]]

    def loss_of(batch):
        masked, labels = batch
        return trainer._mlm_batch_loss(model, list(masked), list(labels))

    profile, loss = profile_steps(model, run, batches, loss_of, steps)
    masked = sum(len(seq_labels) for _, labels in batches for seq_labels in labels) / len(batches)
    return {**profile, "masked_per_step": masked, "final_loss": loss,
            "param_sha256": parameter_sha256(model)}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="key of this run in the output file")
    parser.add_argument("--out", type=Path, default=Path("BENCH_train_step.json"))
    args = parser.parse_args(argv)

    systems = synthetic_systems(2000, seed=123, noise_sigma=NOISE_SIGMA)
    run = {
        "environment": {**{v: os.environ.get(v) for v in THREAD_VARS},
                        "cpus": os.cpu_count(), "python": platform.python_version(),
                        "numpy": np.__version__},
        "criterion_10": criterion_10(systems),
        "op_profile": op_profile(systems, PROFILE_STEPS),
        "mlm_profile": mlm_profile(systems, PROFILE_STEPS),
    }
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.setdefault("config", {
        "systems": 2000, "synth_seed": 123, "noise_sigma": NOISE_SIGMA, "model_seed": SEED,
        "formats": dict(FORMATS), "n_layers": 4, "n_heads": 4, "hidden_size": 64,
        "dtype": "float32", "batch_size": 16, "base_lr": 1e-3, "max_epochs": 40,
        "patience": 5, "dropout_rate": 0.0, "profile_format": "S4",
        "mlm_profile": {"format": "desc", "max_positions": MLM_POSITIONS,
                        "mask_rate": 0.15, "tied": True}})
    doc.setdefault("runs", {})[args.label] = run
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    c10 = run["criterion_10"]
    print(f"{args.label}: S4 {c10['S4']['val_mae']:.4f}, S1 {c10['S1']['val_mae']:.4f}, "
          f"{c10['gate']['wall_s']} s; step fwd {run['op_profile']['forward_ms_per_step']} ms, "
          f"bwd {run['op_profile']['backward_ms_per_step']} ms, "
          f"adamw {run['op_profile']['adamw_ms_per_step']} ms; "
          f"MLM step fwd {run['mlm_profile']['forward_ms_per_step']} ms, "
          f"bwd {run['mlm_profile']['backward_ms_per_step']} ms, "
          f"adamw {run['mlm_profile']['adamw_ms_per_step']} ms")


if __name__ == "__main__":
    main()
