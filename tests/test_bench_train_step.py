"""scripts/bench_train_step.py: its step profiles, criterion-10 figures and
paired mode (`--against <checkout>`)."""

import importlib
import importlib.util
import weakref
from pathlib import Path

import numpy as np

import adsorbtext
from adsorbtext import autograd as ag
from adsorbtext import trainer
from adsorbtext.encoder import EncoderConfig, ensure_mlm_head, init_model
from adsorbtext.synth import synthetic_systems
from adsorbtext.tokens import build_vocab, dynamic_mask, encode
from test_trainer import _toy_records

ROOT = Path(__file__).resolve().parent.parent


def _bench():
    spec = importlib.util.spec_from_file_location(
        "bench_train_step", ROOT / "scripts" / "bench_train_step.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_import_checkout_trains_with_its_own_modules():
    bench = _bench()
    other = bench.import_checkout(ROOT, "adsorbtext_checkout_test")
    assert other.__version__ == adsorbtext.__version__
    records = _toy_records(16)
    hashes = []
    for pkg in (adsorbtext, other):
        encoder, tokens, train = (importlib.import_module(f"{pkg.__name__}.{name}")
                                  for name in ("encoder", "tokens", "trainer"))
        assert (train is trainer) == (pkg is adsorbtext)
        vocab = tokens.build_vocab([r.text for r in records])
        cfg = encoder.EncoderConfig(vocab_size=len(vocab), n_layers=1, n_heads=1,
                                    hidden_size=8, max_positions=16, dropout_rate=0.1)
        run = train.TrainRunConfig(batch_size=4, max_epochs=2, seed=1, base_lr=1e-3)
        result = train.train_regression(encoder.init_model(cfg, seed=1), records, records,
                                        run, vocab)
        hashes.append(bench.parameter_sha256(result.model))
    assert hashes[0] == hashes[1]


def test_against_alternates_and_summarizes(monkeypatch):
    bench = _bench()
    order = []

    def fake_train(package):
        side = "this" if package is adsorbtext else "against"

        def once():
            order.append(side)
            return (1.0 if side == "this" else 2.0), 7, f"sha-{side}"
        return once

    monkeypatch.setattr(bench, "finetune_s4_train", fake_train)
    out = bench.against(ROOT, pairs=4)
    assert order == ["this", "against", "against", "this"] * 2
    assert [r["side"] for r in out["runs"]] == order
    assert out["this"]["median_s"] == 1.0 and out["against"]["q3_s"] == 2.0
    assert (out["this"]["wins"], out["against"]["wins"]) == (4, 0)
    assert out["this"]["param_sha256"] == ["sha-this"]
    assert out["same_parameters"] is False
    assert all(r["minflt"] == 7 for r in out["runs"])


def test_profile_steps_trains_a_model_with_an_mlm_head():
    bench = _bench()
    texts = [r.text for r in _toy_records(8)]
    vocab = build_vocab(texts)
    model = init_model(EncoderConfig(vocab_size=len(vocab), n_layers=1, n_heads=1,
                                     hidden_size=8, max_positions=16, dropout_rate=0.0), seed=1)
    ensure_mlm_head(model, tied=False, seed=1)  # as mlm_profile does, before the first step
    run = trainer.TrainRunConfig(batch_size=4, seed=1, base_lr=1e-2)
    seqs = [encode(t, vocab, 16) for t in texts]
    batches = [list(zip(*(dynamic_mask(seqs[i], vocab, 0.3, seed=[1, 1, i])
                          for i in range(start, start + 4)))) for start in (0, 4)]
    before = {n: p.data.copy() for n, p in model.params.items()}

    def loss_of(batch):
        masked, labels = batch
        return trainer._mlm_batch_loss(model, list(masked), list(labels))

    profile, loss = bench.profile_steps(model, run, batches, loss_of, 2)
    assert profile["steps"] == 2 and np.isfinite(loss)
    assert {"attention", "cross_entropy", "linear"} <= set(profile["ops"])
    assert all(profile["ops"][op]["calls_per_step"] > 0 for op in ("attention", "linear"))
    for name in ("tok_emb", "layer0.wq", "mlm.w", "mlm.bias"):
        assert not np.array_equal(model.params[name].data, before[name]), name
    np.testing.assert_array_equal(model.params["head.w2"].data, before["head.w2"])  # no grad


def test_profile_steps_drops_each_tape_before_the_next_forward():
    bench = _bench()
    records = _toy_records(16)
    vocab = build_vocab([r.text for r in records])
    model = init_model(EncoderConfig(vocab_size=len(vocab), n_layers=1, n_heads=1,
                                     hidden_size=8, max_positions=16, dropout_rate=0.0), seed=1)
    run = trainer.TrainRunConfig(batch_size=4, seed=1, base_lr=1e-2)
    seqs, labels = trainer.encode_labeled(records, vocab, 16)
    batches = [np.arange(start, start + 4) for start in range(0, 16, 4)]
    previous, alive = [], []

    def loss_of(idx):
        if previous and previous[0]() is not None:
            alive.append(len(previous))
        loss = ag.l1_loss(trainer.forward(model, [seqs[i] for i in idx]).energy, labels[idx])
        previous[:] = [weakref.ref(loss)]
        return loss

    profile, loss = bench.profile_steps(model, run, batches, loss_of, 4)
    assert profile["steps"] == 4 and np.isfinite(loss)
    assert alive == []
    assert bench.tape_memory(model, run, batches, loss_of, 3)["tape_steps"] == 3
    assert alive == []


def test_criterion_10_reads_its_phases_from_the_history(monkeypatch):
    bench = _bench()
    histories = {}
    train_regression = bench.train_regression

    def small(vocab, max_positions):
        cfg = EncoderConfig(vocab_size=len(vocab), n_layers=1, n_heads=1, hidden_size=8,
                            max_positions=max_positions, dropout_rate=0.0, dtype="float32")
        run = trainer.TrainRunConfig(batch_size=16, max_epochs=2, early_stopping_patience=2,
                                     seed=bench.SEED, base_lr=1e-3)
        return init_model(cfg, seed=bench.SEED), run

    def recording(model, train, val, run, vocab):
        result = train_regression(model, train, val, run, vocab)
        histories[model.config.max_positions] = result.history
        return result

    monkeypatch.setattr(bench, "model_and_run", small)
    monkeypatch.setattr(bench, "train_regression", recording)
    out = bench.criterion_10(synthetic_systems(60, seed=123, noise_sigma=bench.NOISE_SIGMA))
    assert out.keys() == {"S4", "S1", "gate"}
    assert out["gate"].keys() == {"s4_below", "margin_to_gate", "margin_to_s1", "passed",
                                  "wall_s"}
    for fmt, max_positions in bench.FORMATS:
        entry, history = out[fmt], histories[max_positions]
        assert entry.keys() == {
            "val_mae", "best_epoch", "epochs", "steps", "epoch_wall_s", "median_epoch_wall_s",
            "forward_ms_per_step", "backward_ms_per_step", "adamw_ms_per_step",
            "validation_s", "param_sha256"}
        steps = sum(h["steps"] for h in history)
        assert entry["steps"] == steps > 0 and entry["epochs"] == len(history) == 2
        for key, metric in (("forward_ms_per_step", "forward_s"),
                            ("backward_ms_per_step", "backward_s"),
                            ("adamw_ms_per_step", "optimizer_s")):
            assert entry[key] == round(1e3 * sum(h[metric] for h in history) / steps, 3)
        assert entry["validation_s"] == round(sum(h["validation_s"] for h in history), 3)
