"""Training-step benchmark at the criterion-10 configuration.

Run from the repository root with single-threaded BLAS:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/bench_train_step.py --label after

It trains the criterion-10 desk benchmark of `tests/test_acceptance.py`
(2,000 synthetic systems, S4 at 80 positions and S1 at 16, 4 layers,
4 heads, 64 hidden, float32, batch 16, seed 7) and records, per format,
the validation MAE, the epochs run, each epoch's wall time, the mean
forward, backward and AdamW milliseconds of a training step, the
seconds of validation and a sha256 of the best model's parameter bytes,
so two entries with equal hashes trained bit for bit the same model. The
phase and validation times are the sums of the trainer's own history
rows, the figures `history.tsv` reports for the same run. It then runs
PROFILE_STEPS (100) S4 training steps of a fresh model through
`trainer._step`, the step training runs, and reads each op's calls and
forward and backward ms per step from the engine's op timer
(`autograd.op_totals()`), as `history.tsv`'s per-op rows do. Last it
profiles the same way PROFILE_STEPS masked-token pretraining steps at the
configuration of the benchmark's `pretrain_desc` workload (DESC text of
the same systems, 52 positions, mask rate 0.15, tied head), recording
the final loss and a parameter sha256 as well; the masks are drawn
before timing. After each profile, and after its hash, TAPE_STEPS (16)
more `trainer._step`s run untimed under `tracemalloc`: the profile
records the median traced MB held when backward starts (the tape, and
whatever else the forward left alive) and the median traced step peak,
each above the traced bytes before the step's forward.

The result goes into `--out` (default BENCH_train_step.json) under
`--label`, keeping the other labels already in the file: running another
checkout's own copy of this script from that checkout with `--label
before` and `--out` at this file, and this one with `--label after`, puts
both sides in one file. The script drives only a package whose
`trainer._step` takes the run's `TrainRunConfig`, and that has
`autograd.op_totals` and `cli.run_environment` (the entry's `environment`
is a run manifest's: versions, CPU count, BLAS kernel and thread variables).

With `--against <checkout>` the script instead times the `train` of the
benchmark's `finetune_s4` workload (input seed 0, with the systems,
splits, positions, epochs, learning rate and model seed of
`perfbench.workloads.FinetuneS4` and `MODEL_SEED`) in one process,
alternately by this checkout and by the other one, whose `src/adsorbtext`
it imports under another package name. It runs PAIRS
pairs, swapping which side runs first, and writes under `against` in
`--out`, keyed by `--label`: each side's median and quartiles of the
seconds, how many pairs each side won, each side's parameter sha256 and
every run's minor page faults (`ru_minflt`). Both sides share one heap,
and the heap-top pad that training sets (`trainer._pad_heap_top`) holds
for both once either has trained, so this method hides allocator effects
(README: a tape freed without the pad won 7 of 10 pairs here, yet lost
17-19 % throughput as its own process). Confirm any gain between
processes before claiming it.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import json
import resource
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import adsorbtext
from adsorbtext import autograd, trainer
from adsorbtext.cli import run_environment
from adsorbtext.encoder import ensure_mlm_head, init_model
from adsorbtext.featurize import featurize_systems
from adsorbtext.synth import synthetic_systems
from adsorbtext.tokens import build_vocab, dynamic_mask, encode
from adsorbtext.trainer import OptimizerState, train_regression

sys.path.append(str(Path(__file__).resolve().parent.parent))  # perfbench
from perfbench.workloads import MODEL_SEED, FinetuneS4  # noqa: E402

SEED = MODEL_SEED  # criterion 10's, and the benchmark's, model seed
NOISE_SIGMA = 0.1
FORMATS = (("S4", 80), ("S1", 16))
PROFILE_STEPS = 100  # training steps of each per-op profile
TAPE_STEPS = 16  # untimed, traced training steps of each tape measurement
MLM_POSITIONS = 52  # pretrain_desc: the longest DESC text is 51 tokens
PAIRS = 10  # alternating runs of each side with --against
# criterion 10's encoder and batch size, which the finetune_s4 workload shares
ENCODER = {"n_layers": 4, "n_heads": 4, "hidden_size": 64, "dropout_rate": 0.0,
           "dtype": "float32"}
BATCH_SIZE = 16
CRITERION_10_RUN = {"max_epochs": 40, "early_stopping_patience": 5, "base_lr": 1e-3}


def ms_per_step(seconds: float, steps: int) -> float:
    return round(1e3 * seconds / steps, 3)


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


def configs(package, vocab_size: int, max_positions: int, **run):
    """`package`'s own EncoderConfig of the ENCODER and TrainRunConfig of a
    BATCH_SIZE run at SEED, run setting the run's other fields."""
    mods = {m: importlib.import_module(f"{package.__name__}.{m}") for m in ("encoder", "trainer")}
    return (mods["encoder"].EncoderConfig(vocab_size=vocab_size, max_positions=max_positions,
                                          **ENCODER),
            mods["trainer"].TrainRunConfig(batch_size=BATCH_SIZE, seed=SEED, **run))


def model_and_run(vocab, max_positions: int):
    cfg, run = configs(adsorbtext, len(vocab), max_positions, **CRITERION_10_RUN)
    return init_model(cfg, seed=SEED), run


def criterion_10(systems) -> dict:
    """The criterion-10 run, its step phases and validation time summed from
    the trainer's history; its gate is S4 < 0.2 and S4 < S1."""
    out: dict = {}
    tic = time.perf_counter()
    for fmt, max_positions in FORMATS:
        train, val, vocab = corpus(systems, fmt)
        model, run = model_and_run(vocab, max_positions)
        result = train_regression(model, train, val, run, vocab)
        total = {key: sum(h[key] for h in result.history)
                 for key in ("steps", *trainer._PHASES, "validation_s")}
        steps = total["steps"]
        out[fmt] = {
            "val_mae": result.best_val_mae,
            "best_epoch": result.best_epoch,
            "epochs": len(result.history),
            "steps": steps,
            "epoch_wall_s": [round(h["wall_time_s"], 3) for h in result.history],
            "median_epoch_wall_s": round(float(np.median(
                [h["wall_time_s"] for h in result.history])), 3),
            "forward_ms_per_step": ms_per_step(total["forward_s"], steps),
            "backward_ms_per_step": ms_per_step(total["backward_s"], steps),
            "adamw_ms_per_step": ms_per_step(total["optimizer_s"], steps),
            "validation_s": round(total["validation_s"], 3),
            "param_sha256": parameter_sha256(result.model),
        }
    s4, s1 = out["S4"]["val_mae"], out["S1"]["val_mae"]
    out["gate"] = {"s4_below": 2 * NOISE_SIGMA, "margin_to_gate": 2 * NOISE_SIGMA - s4,
                   "margin_to_s1": s1 - s4, "passed": s4 < 2 * NOISE_SIGMA and s4 < s1,
                   "wall_s": round(time.perf_counter() - tic, 1)}
    return out


def profile_steps(model, run, batches, loss_of, steps: int) -> tuple[dict, float]:
    """Per-phase and per-op ms of `steps` `trainer._step`s over prepared
    batches, loss_of(batch) giving each step's loss; returns them and the
    last loss."""
    state = OptimizerState()
    phases = np.zeros(len(trainer._PHASES))
    before = autograd.op_totals()
    for step in range(steps):
        batch = batches[step % len(batches)]
        loss, _, seconds = trainer._step(model, state, run, lambda: loss_of(batch))
        phases += seconds
    forward, backward, adamw = phases.tolist()
    return {
        "steps": steps,
        "forward_ms_per_step": ms_per_step(forward, steps),
        "backward_ms_per_step": ms_per_step(backward, steps),
        "adamw_ms_per_step": ms_per_step(adamw, steps),
        "ops": {op: {"calls_per_step": (calls - before[op][0]) / steps,
                     "fwd_ms_per_step": ms_per_step(fwd - before[op][1], steps),
                     "bwd_ms_per_step": ms_per_step(bwd - before[op][2], steps)}
                for op, (calls, fwd, bwd) in sorted(autograd.op_totals().items())
                if calls > before[op][0]},
    }, loss


def tape_memory(model, run, batches, loss_of, steps: int) -> dict:
    """Medians over `steps` untimed `trainer._step`s under tracemalloc: the
    MB held when backward starts, which is the tape and what the forward
    left alive, and the step's traced peak, each above the traced bytes
    before the forward."""
    state = OptimizerState()
    held, peak, base = [], [], 0

    def traced_loss(batch):
        nonlocal base
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loss = loss_of(batch)
        held.append(tracemalloc.get_traced_memory()[0] - base)
        return loss

    tracemalloc.start()
    try:
        for step in range(steps):
            batch = batches[step % len(batches)]
            trainer._step(model, state, run, lambda: traced_loss(batch))
            peak.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return {"tape_steps": steps,
            "tape_mb_at_backward": round(float(np.median(held)) / 1e6, 3),
            "step_peak_mb": round(float(np.median(peak)) / 1e6, 3)}


def first_epoch_batches(n: int, batch_size: int) -> list[np.ndarray]:
    order = np.random.default_rng([SEED, 1, 0]).permutation(n)
    return [order[i:i + batch_size] for i in range(0, n, batch_size)]


def op_profile(systems, steps: int) -> dict:
    """Per-op forward and backward ms over the first S4 training steps, then
    the tape memory of TAPE_STEPS more."""
    train, _, vocab = corpus(systems, "S4")
    model, run = model_and_run(vocab, 80)
    seqs, labels = trainer.encode_labeled(train, vocab, model.config.max_positions)
    labels = labels.astype(model.config.np_dtype)
    batches = first_epoch_batches(len(seqs), run.batch_size)

    def loss_of(idx):
        res = trainer.forward(model, [seqs[i] for i in idx])
        return autograd.l1_loss(res.energy, labels[idx])

    profile, _ = profile_steps(model, run, batches, loss_of, steps)
    return {**profile, **tape_memory(model, run, batches, loss_of, TAPE_STEPS)}


def mlm_profile(systems, steps: int) -> dict:
    """Per-op forward and backward ms over the first DESC masked-token
    pretraining steps, masked as `trainer.pretrain_mlm` masks epoch 1, then
    the tape memory of TAPE_STEPS more."""
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
            "param_sha256": parameter_sha256(model),
            **tape_memory(model, run, batches, loss_of, TAPE_STEPS)}


def import_checkout(checkout: Path, alias: str):
    """The package `src/adsorbtext` of another checkout, imported as `alias`;
    its relative imports resolve within it."""
    package = Path(checkout).resolve() / "src" / "adsorbtext"
    spec = importlib.util.spec_from_file_location(
        alias, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return module


def finetune_s4_train(package):
    """A callable running the `finetune_s4` workload's `train` by `package`'s
    own code; it returns the seconds, the minor page faults and the
    parameter sha256 of the run. Featurizing and the vocabulary are untimed."""
    name = package.__name__
    mods = {m: importlib.import_module(f"{name}.{m}")
            for m in ("encoder", "featurize", "synth", "tokens", "trainer")}
    w = FinetuneS4  # the workload's settings: systems, splits, positions, epochs, lr
    systems = mods["synth"].synthetic_systems(w.SYSTEMS, seed=0, split_fractions=w.SPLITS)
    records, _ = mods["featurize"].featurize_systems(systems, "S4")
    vocab = mods["tokens"].build_vocab([r.text for r in records])
    train = [r for r in records if r.split == "train"]
    val = [r for r in records if r.split != "train"]
    cfg, run = configs(package, len(vocab), w.MAX_POSITIONS, max_epochs=w.EPOCHS,
                       early_stopping_patience=w.EPOCHS, base_lr=w.LR)

    def once() -> tuple[float, int, str]:
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        tic = time.perf_counter()
        model = mods["encoder"].init_model(cfg, seed=SEED)
        result = mods["trainer"].train_regression(model, train, val, run, vocab)
        seconds = time.perf_counter() - tic
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        return seconds, faults, parameter_sha256(result.model)
    return once


def against(checkout: Path, pairs: int) -> dict:
    """`pairs` alternating finetune_s4 trains of this checkout and of `checkout`."""
    sides = {"this": finetune_s4_train(adsorbtext),
             "against": finetune_s4_train(import_checkout(checkout, "adsorbtext_against"))}
    runs = []
    for i in range(pairs):
        order = ("this", "against") if i % 2 == 0 else ("against", "this")
        for side in order:
            seconds, faults, sha = sides[side]()
            runs.append({"pair": i, "side": side, "seconds": round(seconds, 4),
                         "minflt": faults, "param_sha256": sha})
            print(f"pair {i} {side}: {seconds:.3f} s, {faults} minor faults", flush=True)
    out: dict = {"pairs": pairs, "runs": runs}
    for side in sides:
        seconds = [r["seconds"] for r in runs if r["side"] == side]
        q1, median, q3 = np.percentile(seconds, [25, 50, 75])
        out[side] = {"median_s": round(float(median), 4), "q1_s": round(float(q1), 4),
                     "q3_s": round(float(q3), 4),
                     "param_sha256": sorted({r["param_sha256"] for r in runs
                                             if r["side"] == side})}
    by_pair = {(r["pair"], r["side"]): r["seconds"] for r in runs}
    for side, other in (("this", "against"), ("against", "this")):
        out[side]["wins"] = sum(by_pair[i, side] < by_pair[i, other] for i in range(pairs))
    out["same_parameters"] = out["this"]["param_sha256"] == out["against"]["param_sha256"]
    return out


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="key of this run in the output file")
    parser.add_argument("--out", type=Path, default=Path("BENCH_train_step.json"))
    parser.add_argument("--against", type=Path, default=None, metavar="CHECKOUT",
                        help="time finetune_s4 training against another checkout instead")
    args = parser.parse_args(argv)

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    if args.against is not None:
        result = {"environment": run_environment(), **against(args.against, PAIRS)}
        doc.setdefault("against", {})[args.label] = result
        this, other = result["this"], result["against"]
        summary = (f"this {this['median_s']} s ({this['q1_s']}-{this['q3_s']}), "
                   f"against {other['median_s']} s ({other['q1_s']}-{other['q3_s']}), "
                   f"this won {this['wins']} of {PAIRS}; "
                   f"same parameters: {result['same_parameters']}")
    else:
        systems = synthetic_systems(2000, seed=123, noise_sigma=NOISE_SIGMA)
        run = {
            "environment": run_environment(),
            "criterion_10": criterion_10(systems),
            "op_profile": op_profile(systems, PROFILE_STEPS),
            "mlm_profile": mlm_profile(systems, PROFILE_STEPS),
        }
        doc.setdefault("config", {
            "systems": 2000, "synth_seed": 123, "noise_sigma": NOISE_SIGMA, "model_seed": SEED,
            "formats": dict(FORMATS), **ENCODER, "batch_size": BATCH_SIZE,
            "base_lr": CRITERION_10_RUN["base_lr"], "max_epochs": CRITERION_10_RUN["max_epochs"],
            "patience": CRITERION_10_RUN["early_stopping_patience"], "profile_format": "S4",
            "mlm_profile": {"format": "desc", "max_positions": MLM_POSITIONS,
                            "mask_rate": 0.15, "tied": True}})
        doc.setdefault("runs", {})[args.label] = run
        c10, op, mlm = run["criterion_10"], run["op_profile"], run["mlm_profile"]
        summary = (f"S4 {c10['S4']['val_mae']:.4f}, S1 {c10['S1']['val_mae']:.4f}, "
                   f"{c10['gate']['wall_s']} s; step fwd {op['forward_ms_per_step']} ms, "
                   f"bwd {op['backward_ms_per_step']} ms, adamw {op['adamw_ms_per_step']} ms; "
                   f"MLM step fwd {mlm['forward_ms_per_step']} ms, "
                   f"bwd {mlm['backward_ms_per_step']} ms, adamw {mlm['adamw_ms_per_step']} ms; "
                   f"tape at backward S4 {op['tape_mb_at_backward']} MB, "
                   f"MLM {mlm['tape_mb_at_backward']} MB")
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"{args.label}: {summary}")

if __name__ == "__main__":
    main()
