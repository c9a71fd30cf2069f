import dataclasses
import inspect
import logging
import os
import subprocess
import sys
import types
import weakref
from pathlib import Path

import numpy as np
import pytest

import adsorbtext
import adsorbtext.autograd as ag
from adsorbtext import trainer
from adsorbtext.encoder import (
    ConfigError,
    EncoderConfig,
    EncoderModel,
    ensure_mlm_head,
    forward,
    init_model,
    mlm_logits,
)
from adsorbtext.featurize import CorpusRecord
from adsorbtext.tokens import build_vocab, dynamic_mask, encode, tokenize
from adsorbtext.trainer import (
    LrGroupPlan,
    NonFiniteGradientError,
    OptimizerState,
    TrainRunConfig,
    adamw_step,
    masked_top1_accuracy,
    predict_energies,
    pretrain_mlm,
    train_regression,
    write_history,
)
from adsorbtext.trainer import _mlm_batch_loss


def test_group_plan_thirds_of_twelve():
    plan = LrGroupPlan(n_layers=12, base_lr=TrainRunConfig().base_lr)
    groups = [plan.group_of(f"layer{i}.wq") for i in range(12)]
    assert groups == [0] * 4 + [1] * 4 + [2] * 4


def test_group_plan_desk_scale_and_edges():
    plan = LrGroupPlan(n_layers=4, base_lr=TrainRunConfig().base_lr)
    assert [plan.group_of(f"layer{i}.w1") for i in range(4)] == [0, 0, 1, 2]
    assert plan.group_of("tok_emb") == 0
    assert plan.group_of("pos_emb") == 0
    assert plan.group_of("head.w2") == 2
    assert plan.group_of("mlm.bias") == 2


def test_effective_lr_ratio_is_exact():
    plan = LrGroupPlan(n_layers=12, base_lr=1e-6)
    lrs = plan.effective_lrs()
    assert lrs[1] == 1.75 * lrs[0]
    assert lrs[2] == 3.5 * lrs[0]


def test_optimizer_settings_live_only_in_the_run_config():
    assert [f.name for f in dataclasses.fields(OptimizerState)] == ["step", "m", "v"]
    assert {f.name: f.default for f in dataclasses.fields(LrGroupPlan)} == {
        "n_layers": dataclasses.MISSING, "base_lr": dataclasses.MISSING}
    assert list(inspect.signature(adamw_step).parameters) == ["model", "state", "run_cfg"]
    rate = inspect.signature(masked_top1_accuracy).parameters["rate"]
    assert rate.default is inspect.Parameter.empty


def _scalar_model(value=1.0):
    """A model of one parameter, head.b2, for the closed-form checks."""
    cfg = EncoderConfig(vocab_size=6, n_layers=1, n_heads=1, hidden_size=4,
                        max_positions=4, dropout_rate=0.0)
    return EncoderModel(cfg, {"head.b2": ag.Tensor(np.array([value]), requires_grad=True)})


def _set_grad(p, g):
    """A gradient written as backward writes it, through the grad_view."""
    p.grad_view[...] = g
    p.grad = p.grad_view


def test_adamw_zero_gradient_is_noop():
    model = _scalar_model(2.5)
    _set_grad(model.params["head.b2"], 0.0)
    adamw_step(model, OptimizerState(), TrainRunConfig(base_lr=0.1, weight_decay=0.0))
    assert model.params["head.b2"].data == pytest.approx(2.5)


def test_adamw_single_step_closed_form():
    x0, g, lr = 1.5, 0.3, 0.01
    model = _scalar_model(x0)
    _set_grad(model.params["head.b2"], g)
    run = TrainRunConfig(base_lr=lr)
    adamw_step(model, OptimizerState(), run)
    # bias-corrected first step: m_hat = g, v_hat = g^2
    lr_eff = lr * trainer.GROUP_FACTORS[2]  # head parameters run in the top group
    expected = x0 - lr_eff * (g / (abs(g) + trainer.EPS) + run.weight_decay * x0)
    assert model.params["head.b2"].data[0] == pytest.approx(expected, rel=1e-12)


def test_adamw_rejects_non_finite_gradient():
    model = _scalar_model()
    _set_grad(model.params["head.b2"], np.nan)
    with pytest.raises(NonFiniteGradientError, match="head.b2"):
        adamw_step(model, OptimizerState(), TrainRunConfig())


def test_adamw_clip_norm_scales_update():
    model = _scalar_model(0.0)
    _set_grad(model.params["head.b2"], 100.0)
    state = OptimizerState()
    adamw_step(model, state, TrainRunConfig(base_lr=1e-3, weight_decay=0.0, clip_norm=1.0))
    assert _moments(state, model)["head.b2"][0] == pytest.approx(0.1)  # (1-beta1) * clipped


def _moments(state, model):
    """Each parameter's AdamW moments (m, v) by name, cut from the flat
    arrays by the model's offsets."""
    return {n: (state.m[lo:hi].reshape(model.params[n].data.shape),
                state.v[lo:hi].reshape(model.params[n].data.shape))
            for n, (lo, hi) in model.offsets.items()}


def _adamw_per_tensor(values, grads, m, v, step, plan, weight_decay, clip_norm=None,
                      beta1=0.9, beta2=0.999, eps=1e-8):
    """Oracle: AdamW as a loop over tensors, the arithmetic adamw_step runs on
    flat buffers. values, m and v map names to arrays; a name missing from
    grads is neither updated nor decayed, and gets no moments."""
    if clip_norm is not None:
        total = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
        if total > clip_norm:
            factor = clip_norm / total
            grads = {n: g * factor for n, g in grads.items()}
    bc1 = 1.0 - beta1 ** step
    bc2 = 1.0 - beta2 ** step
    for name, g in grads.items():
        p = values[name]
        mm = m.setdefault(name, np.zeros_like(p))
        vv = v.setdefault(name, np.zeros_like(p))
        mm *= beta1
        mm += (1.0 - beta1) * g
        vv *= beta2
        vv += (1.0 - beta2) * (g * g)
        update = (mm / bc1) / (np.sqrt(vv / bc2) + eps)
        if weight_decay:
            update = update + weight_decay * p
        values[name] = p - plan.lr_of(name) * update


@pytest.mark.parametrize("dtype,clip_norm", [("float32", None), ("float32", 1e-3),
                                             ("float64", None)])
def test_adamw_matches_per_tensor_loop(dtype, clip_norm):
    records = _toy_records(24)
    vocab = build_vocab([r.text for r in records])
    model = init_model(_desk_config(vocab, dtype=dtype), seed=4)
    ensure_mlm_head(model, tied=False, seed=4)  # gets no gradient from the regression loss
    seqs = [encode(r.text, vocab, 16) for r in records]
    labels = np.array([r.energy_ev for r in records], dtype=model.config.np_dtype)
    run = TrainRunConfig(base_lr=1e-2, weight_decay=0.01, clip_norm=clip_norm)
    plan = LrGroupPlan(model.config.n_layers, base_lr=run.base_lr)
    state = OptimizerState()
    values = {n: p.data.copy() for n, p in model.params.items()}
    m, v = {}, {}
    for step in range(1, 5):
        idx = np.arange(6 * step - 6, 6 * step)
        model.zero_grads()
        ag.backward(ag.l1_loss(forward(model, [seqs[i] for i in idx]).energy, labels[idx]))
        grads = {n: p.grad.copy() for n, p in model.params.items() if p.grad is not None}
        assert set(model.params) - set(grads) == {"mlm.w", "mlm.bias"}
        adamw_step(model, state, run)
        _adamw_per_tensor(values, grads, m, v, step, plan, run.weight_decay, clip_norm)
        for name, p in model.params.items():
            np.testing.assert_array_equal(p.data, values[name], err_msg=name)
        moments = _moments(state, model)
        for name in grads:
            np.testing.assert_array_equal(moments[name][0], m[name], err_msg=name)
            np.testing.assert_array_equal(moments[name][1], v[name], err_msg=name)
    for name in ("mlm.w", "mlm.bias"):  # no update, no decay, no moments
        assert name not in m
        assert not moments[name][0].any() and not moments[name][1].any()


def _stepped_desk_model():
    """A desk model after one AdamW step with its gradients filled again;
    returns it, its state and run config, and the function that fills them."""
    records = _toy_records(6)
    vocab = build_vocab([r.text for r in records])
    seqs = [encode(r.text, vocab, 16) for r in records]
    labels = np.array([r.energy_ev for r in records])
    model = init_model(_desk_config(vocab), seed=5)
    state, run = OptimizerState(), TrainRunConfig(base_lr=1e-2)

    def backward():
        model.zero_grads()
        ag.backward(ag.l1_loss(forward(model, seqs).energy, labels))

    backward()
    adamw_step(model, state, run)
    backward()
    return model, state, run, backward


def test_adamw_refuses_a_rebound_tensor():
    model, state, run, _ = _stepped_desk_model()
    model.params["layer1.wq"].data = model.params["layer1.wq"].data.copy()
    with pytest.raises(ValueError, match=r"layer1\.wq: data is not its view"):
        adamw_step(model, state, run)
    assert state.step == 1


def test_adamw_refuses_a_grad_outside_its_grad_view():
    model, state, run, _ = _stepped_desk_model()
    p = model.params["layer0.bq"]
    p.grad = p.grad.copy()
    with pytest.raises(ValueError, match=r"layer0\.bq: grad is not its grad_view"):
        adamw_step(model, state, run)
    assert state.step == 1


def test_adamw_refuses_a_state_from_before_ensure_mlm_head():
    model, state, run, backward = _stepped_desk_model()
    ensure_mlm_head(model, tied=False, seed=5)
    backward()
    with pytest.raises(ValueError, match="moments hold"):
        adamw_step(model, state, run)
    assert state.step == 1
    adamw_step(model, OptimizerState(), run)  # a new state fits the new layout


@pytest.mark.parametrize("clip_norm", [None, 0.05])
def test_history_keeps_the_largest_step_gradient_norm(monkeypatch, clip_norm):
    records = _toy_records()
    vocab = build_vocab([r.text for r in records])
    norms = []  # per step, from a per-tensor oracle
    step = trainer.adamw_step

    def recording(model, state, run_cfg):
        norms.append(np.sqrt(sum(np.linalg.norm(p.grad) ** 2
                                 for p in model.params.values() if p.grad is not None)))
        return step(model, state, run_cfg)

    monkeypatch.setattr(trainer, "adamw_step", recording)
    run = TrainRunConfig(batch_size=8, max_epochs=3, early_stopping_patience=3, seed=0,
                         base_lr=1e-3, clip_norm=clip_norm)
    result = train_regression(init_model(_desk_config(vocab), seed=0), records, records,
                              run, vocab)
    per_epoch = np.reshape(norms, (3, 4)).max(axis=1)  # 32 records in batches of 8
    np.testing.assert_allclose([h["grad_norm_max"] for h in result.history], per_epoch,
                               rtol=1e-12)
    if clip_norm is not None:  # the norm before clipping
        assert per_epoch.min() > clip_norm


def _toy_records(n=32, seed=0):
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        hot = i % 2 == 0
        words = ["w%d" % rng.integers(8) for _ in range(6)]
        if hot:
            words[rng.integers(6)] = "hot"
        text = "<s>" + " ".join(words) + "</s>"
        records.append(CorpusRecord(f"s{i}", "S1", text,
                                    1.0 if hot else -1.0, "train"))
    return records


def _desk_config(vocab, **overrides):
    base = dict(vocab_size=len(vocab), n_layers=2, n_heads=2, hidden_size=32,
                max_positions=16, dropout_rate=0.0)
    base.update(overrides)
    return EncoderConfig(**base)


def test_early_stopping_counts_non_improving_epochs():
    records = _toy_records()
    vocab = build_vocab([r.text for r in records])
    model = init_model(_desk_config(vocab), seed=0)
    # frozen run: lr 0 keeps validation MAE constant; equal never improves
    run = TrainRunConfig(batch_size=8, max_epochs=50, early_stopping_patience=5,
                         seed=0, base_lr=0.0)
    result = train_regression(model, records, records, run, vocab)
    assert len(result.history) == 6  # first epoch improves on inf, then patience
    vals = [h["val_mae"] for h in result.history]
    assert all(v == vals[0] for v in vals)
    assert result.best_epoch == 1


def test_overfit_toy_set_under_200_epochs():
    records = _toy_records()
    vocab = build_vocab([r.text for r in records])
    model = init_model(_desk_config(vocab), seed=0)
    run = TrainRunConfig(batch_size=8, max_epochs=200, early_stopping_patience=200,
                         seed=0, base_lr=1e-3)
    result = train_regression(model, records, records, run, vocab)
    assert min(h["train_mae"] for h in result.history) < 0.05


def test_best_checkpoint_never_worse_than_history():
    records = _toy_records()
    vocab = build_vocab([r.text for r in records])
    model = init_model(_desk_config(vocab), seed=1)
    run = TrainRunConfig(batch_size=8, max_epochs=30, early_stopping_patience=5,
                         seed=1, base_lr=2e-3)
    result = train_regression(model, records, records, run, vocab)
    assert result.best_val_mae <= min(h["val_mae"] for h in result.history)


def test_perfect_predictions_have_zero_mae():
    records = _toy_records(8)
    vocab = build_vocab([r.text for r in records])
    model = init_model(_desk_config(vocab), seed=2)
    model.params["head.w1"].data[:] = 0
    model.params["head.w2"].data[:] = 0
    labeled = [r._replace(energy_ev=0.0) for r in records]
    run = TrainRunConfig(batch_size=8, max_epochs=1, seed=0, base_lr=0.0)
    result = train_regression(model, labeled, labeled, run, vocab)
    assert result.history[0]["val_mae"] == 0.0


def test_predict_energies_leaves_no_tape_or_gradients():
    records = _toy_records(10)
    vocab = build_vocab([r.text for r in records])
    model = init_model(_desk_config(vocab), seed=3)
    seqs = [encode(r.text, vocab, 16) for r in records]
    preds = predict_energies(model, seqs, batch_size=4)
    taped = np.concatenate([forward(model, seqs[i:i + 4]).energies()
                            for i in range(0, 10, 4)])
    assert np.array_equal(preds, taped)
    assert all(p.grad is None for p in model.params.values())
    # recording is back on after the call
    ag.backward(ag.tensor_sum(forward(model, seqs[:2]).energy))
    assert model.params["tok_emb"].grad is not None


def test_unlabeled_sample_rejected():
    records = _toy_records(8)
    records[3] = records[3]._replace(energy_ev=None)
    vocab = build_vocab([r.text for r in records])
    model = init_model(_desk_config(vocab), seed=0)
    run = TrainRunConfig(batch_size=4, max_epochs=1, seed=0)
    with pytest.raises(ValueError, match="no energy label"):
        train_regression(model, records, records, run, vocab)


def test_empty_sets_rejected():
    records = _toy_records(8)
    vocab = build_vocab([r.text for r in records])
    model = init_model(_desk_config(vocab), seed=0)
    run = TrainRunConfig(batch_size=4, max_epochs=1, seed=0)
    with pytest.raises(ValueError, match="non-empty"):
        train_regression(model, [], records, run, vocab)


def test_training_bitwise_reproducible():
    records = _toy_records()
    vocab = build_vocab([r.text for r in records])
    run = TrainRunConfig(batch_size=8, max_epochs=5, early_stopping_patience=5,
                         seed=3, base_lr=1e-3)
    results = []
    for _ in range(2):
        model = init_model(_desk_config(vocab, dropout_rate=0.1), seed=3)
        results.append(train_regression(model, records, records, run, vocab))
    h1, h2 = results[0].history, results[1].history
    assert [r["train_mae"] for r in h1] == [r["train_mae"] for r in h2]
    assert [r["val_mae"] for r in h1] == [r["val_mae"] for r in h2]
    for name in results[0].model.params:
        assert np.array_equal(results[0].model.params[name].data,
                              results[1].model.params[name].data)


def test_history_file_format(tmp_path):
    history = [{"epoch": 1, "train_mae": 0.5, "val_mae": 0.6,
                "lrs": [1e-6, 1.75e-6, 3.5e-6], "wall_time_s": 0.1}]
    path = tmp_path / "history.tsv"
    write_history(history, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0].split("\t")[:3] == ["1", "train", "train_mae"]
    assert any(line.split("\t")[2] == "lr_group2" for line in lines)
    assert any(line.split("\t")[1] == "val" for line in lines)


def _mlm_corpus():
    rng = np.random.default_rng(7)
    texts = []
    for _ in range(24):
        words = ["tok%d" % rng.integers(12) for _ in range(10)]
        texts.append("<s>" + " ".join(words) + "</s>")
    return texts


def test_mlm_loss_only_uses_masked_positions():
    texts = _mlm_corpus()
    vocab = build_vocab(texts)
    model = init_model(_desk_config(vocab, max_positions=16), seed=0)
    ensure_mlm_head(model, tied=True)
    masked, labels = zip(*(dynamic_mask(encode(text, vocab, 16), vocab, 0.4, seed=i)
                           for i, text in enumerate(texts[:3])))
    loss = _mlm_batch_loss(model, list(masked), list(labels))
    # independent oracle: cross-entropy recomputed per masked position of
    # each sequence, from its logits at every position
    per_pos = []
    for seq, seq_labels in zip(masked, labels):
        n = seq.n_real
        logits = mlm_logits(model, [seq], (np.zeros(n, dtype=np.int64), np.arange(n))).data
        for pos, original in seq_labels:
            row = logits[pos]
            ex = np.exp(row - row.max())
            per_pos.append(-np.log(ex[original] / ex.sum()))
    assert float(loss.data) == pytest.approx(np.mean(per_pos), abs=1e-10)


def test_mlm_loss_gradients_match_finite_differences():
    # the last layer runs on the masked rows only, and with two layers
    # layer0 runs on every row; post- and pre-norm
    texts = _mlm_corpus()[:4]
    vocab = build_vocab(texts)
    batch = []
    labels = []
    for i, text in enumerate(texts):
        seq = encode(text, vocab, 16)
        masked, mlabels = dynamic_mask(seq, vocab, 0.4, seed=i)
        batch.append(masked)
        labels.append(mlabels)
    for n_layers, pre_norm in ((1, False), (2, False), (2, True)):
        model = init_model(_desk_config(vocab, max_positions=16, n_layers=n_layers,
                                        hidden_size=16, pre_norm=pre_norm), seed=0)
        ensure_mlm_head(model, tied=True)

        def loss_fn():
            return _mlm_batch_loss(model, batch, labels)

        model.zero_grads()
        ag.backward(loss_fn())
        h = 1e-6
        names = ["mlm.bias", "tok_emb"] + [
            f"layer{i}.{name}" for i in range(n_layers)
            for name in ("wv", "wo", "w1", "b2", "ln1_g", "ln2_g")]
        for name in names:
            p = model.params[name]
            flat = p.data.reshape(-1)
            grad = p.grad.reshape(-1)
            for i in range(0, flat.size, max(1, flat.size // 15)):
                orig = flat[i]
                flat[i] = orig + h
                lp = float(loss_fn().data)
                flat[i] = orig - h
                lm = float(loss_fn().data)
                flat[i] = orig
                fd = (lp - lm) / (2 * h)
                assert abs(fd - grad[i]) <= 1e-6 * max(abs(fd), abs(grad[i]), 1.0), name


def test_mlm_no_masked_positions_skips_batch(caplog):
    texts = ["<s>a</s>"] * 4  # single maskable token; rate tiny
    vocab = build_vocab(texts)
    model = init_model(_desk_config(vocab, max_positions=8), seed=0)
    run = TrainRunConfig(batch_size=4, max_epochs=1, seed=0, base_lr=1e-3,
                         mask_rate=1e-9)
    with caplog.at_level(logging.WARNING):
        result = pretrain_mlm(model, texts, run, vocab)
    assert "no masked positions" in caplog.text
    assert np.isnan(result.history[0]["mlm_loss"])  # no step ran: no mean loss
    assert result.history[0]["steps"] == 0 and np.isnan(result.history[0]["grad_norm_max"])


def test_history_counts_the_steps_run(monkeypatch):
    texts = _mlm_corpus()  # 24 texts: batches of 10, 10 and 4
    vocab = build_vocab(texts)
    batch_loss = trainer._mlm_batch_loss
    calls = []

    def skip_second(*args, **kwargs):
        calls.append(None)
        return None if len(calls) % 3 == 2 else batch_loss(*args, **kwargs)

    monkeypatch.setattr(trainer, "_mlm_batch_loss", skip_second)
    run = TrainRunConfig(batch_size=10, max_epochs=2, seed=0, base_lr=1e-3)
    result = pretrain_mlm(init_model(_desk_config(vocab, max_positions=16), seed=0),
                          texts, run, vocab)
    assert [h["steps"] for h in result.history] == [2, 2]
    assert all("validation_s" not in h for h in result.history)

    records = _toy_records(20)
    vocab = build_vocab([r.text for r in records])
    result = train_regression(init_model(_desk_config(vocab), seed=0), records, records[:10],
                              run, vocab)
    assert [h["steps"] for h in result.history] == [2, 2]  # 20 records, batches of 10
    assert all(0 < h["validation_s"] < h["wall_time_s"] for h in result.history)


def test_history_times_each_op_of_the_steps_only(monkeypatch):
    records = _toy_records(20)
    vocab = build_vocab([r.text for r in records])
    predict = trainer.predict_energies

    def validate_with_scale(model, seqs, batch_size=32):
        ag.scale(ag.Tensor(np.ones(2)), 2.0)  # an op no training step calls
        return predict(model, seqs, batch_size)

    monkeypatch.setattr(trainer, "predict_energies", validate_with_scale)
    run = TrainRunConfig(batch_size=10, max_epochs=2, seed=0, base_lr=1e-3)
    result = train_regression(init_model(_desk_config(vocab), seed=0), records, records[:10],
                              run, vocab)
    step_ops = {"add", "attention", "embedding", "gelu", "l1_loss", "layer_norm", "linear",
                "reshape", "take", "tanh"}
    for h in result.history:
        ops = {key.rsplit("_", 4)[0]: key for key in h if key.endswith("_ms_per_step")}
        assert set(ops) == step_ops  # scale ran only in validation
        for op in step_ops:
            assert h[f"{op}_fwd_ms_per_step"] > 0 and h[f"{op}_bwd_ms_per_step"] > 0, op
        steps_ms = 1e3 * h["forward_s"] / h["steps"], 1e3 * h["backward_s"] / h["steps"]
        assert sum(h[f"{op}_fwd_ms_per_step"] for op in step_ops) <= steps_ms[0]
        assert sum(h[f"{op}_bwd_ms_per_step"] for op in step_ops) <= steps_ms[1]


def test_mlm_corpus_shorter_than_batch():
    texts = ["<s>a b</s>"]
    vocab = build_vocab(texts)
    model = init_model(_desk_config(vocab, max_positions=8), seed=0)
    run = TrainRunConfig(batch_size=4, max_epochs=1, seed=0)
    with pytest.raises(ValueError, match="shorter than one batch"):
        pretrain_mlm(model, texts, run, vocab)


def test_mlm_beats_majority_baseline():
    texts = _mlm_corpus()
    vocab = build_vocab(texts)
    model = init_model(_desk_config(vocab, max_positions=16), seed=0)
    run = TrainRunConfig(batch_size=12, max_epochs=25, seed=0, base_lr=2e-3)
    result = pretrain_mlm(model, texts, run, vocab)
    accuracy = masked_top1_accuracy(result.model, texts, vocab, run.mask_rate)
    from collections import Counter
    counts = Counter(t for text in texts for t in tokenize(text)
                     if t not in ("<s>", "</s>"))
    majority = counts.most_common(1)[0][1] / sum(counts.values())
    assert accuracy > majority


def test_mlm_pretraining_applies_dropout():
    texts = _mlm_corpus()
    vocab = build_vocab(texts)
    run = TrainRunConfig(batch_size=12, max_epochs=2, seed=0, base_lr=1e-3)

    def pretrained(rate):
        model = init_model(_desk_config(vocab, max_positions=16, dropout_rate=rate), seed=0)
        return pretrain_mlm(model, texts, run, vocab)

    plain, dropped, again = pretrained(0.0), pretrained(0.3), pretrained(0.3)
    assert plain.history[0]["mlm_loss"] != dropped.history[0]["mlm_loss"]
    assert plain.model.data_buffer.tobytes() != dropped.model.data_buffer.tobytes()
    assert [h["mlm_loss"] for h in dropped.history] == [h["mlm_loss"] for h in again.history]
    assert dropped.model.data_buffer.tobytes() == again.model.data_buffer.tobytes()


def test_mlm_weights_transfer_to_regression():
    texts = _mlm_corpus()
    vocab = build_vocab(texts)
    model = init_model(_desk_config(vocab, max_positions=16), seed=0)
    run = TrainRunConfig(batch_size=12, max_epochs=2, seed=0, base_lr=1e-3)
    pretrained = pretrain_mlm(model, texts, run, vocab).model
    fresh = init_model(_desk_config(vocab, max_positions=16), seed=1)
    copied = fresh.load_values(pretrained, skip_prefixes=("head.", "mlm."))
    assert "tok_emb" in copied
    assert not any(name.startswith(("head.", "mlm.")) for name in copied)
    records = [CorpusRecord(f"t{i}", "S1", t, 0.5, "train")
               for i, t in enumerate(texts)]
    reg_run = TrainRunConfig(batch_size=12, max_epochs=1, seed=0, base_lr=1e-4)
    result = train_regression(fresh, records, records, reg_run, vocab)
    assert np.isfinite(result.history[0]["val_mae"])


def test_run_config_validation():
    with pytest.raises(ValueError, match="patience"):
        TrainRunConfig(early_stopping_patience=0)
    with pytest.raises(ValueError, match="batch_size"):
        TrainRunConfig(batch_size=0)


@pytest.mark.parametrize("field, value", [
    ("seed", 1.5), ("batch_size", True), ("max_epochs", "3"), ("early_stopping_patience", None),
    ("base_lr", "1e-3"), ("weight_decay", False), ("clip_norm", "x"), ("mask_rate", None),
    ("tied_mlm", "no"), ("tied_mlm", 1),
])
def test_run_config_rejects_wrong_types(field, value):
    # checked before the ranges, which would compare a string and raise TypeError
    with pytest.raises(ConfigError, match=f"^{field} must be ") as info:
        TrainRunConfig(**{field: value})
    assert info.value.field == field


def test_run_config_takes_numpy_numbers():
    run = TrainRunConfig(batch_size=np.int64(4), seed=np.uint32(3), base_lr=np.float32(1e-3),
                         clip_norm=np.float64(1.0), weight_decay=0)
    assert run.batch_size == 4 and run.seed == 3


# Tracing tools and scripts/bench_train_step.py patch these module attributes
# and open a training step at zero_grads; the loop must call through them.
_STEP_CALLS = ((EncoderModel, "zero_grads"), (trainer, "forward"), (trainer, "mlm_logits"),
               (ag, "backward"), (trainer, "adamw_step"), (trainer, "predict_energies"),
               (trainer, "dynamic_mask"))


def _log_calls(monkeypatch, before=None):
    """Patch the step's calls to append their names to a list, returned;
    before(name), if given, runs first on every call."""
    calls = []

    def wrap(fn, name):
        def wrapper(*args, **kwargs):
            if before is not None:
                before(name)
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for owner, name in _STEP_CALLS:
        monkeypatch.setattr(owner, name, wrap(getattr(owner, name), name))
    return calls


def test_regression_step_contract(monkeypatch):
    records = _toy_records(20)
    vocab = build_vocab([r.text for r in records])
    model = init_model(_desk_config(vocab), seed=0)
    run = TrainRunConfig(batch_size=8, max_epochs=2, early_stopping_patience=5,
                         seed=0, base_lr=1e-3)
    calls = _log_calls(monkeypatch)
    result = train_regression(model, records, records[:10], run, vocab)
    step = ["zero_grads", "forward", "backward", "adamw_step"]
    validation = ["predict_energies", "forward", "forward"]  # 10 records, batches of 8
    assert calls == (step * 3 + validation) * 2  # 20 records, batches of 8
    assert len(result.history) == 2


def test_mlm_step_contract(monkeypatch):
    texts = _mlm_corpus()
    vocab = build_vocab(texts)
    model = init_model(_desk_config(vocab, max_positions=16), seed=0)
    run = TrainRunConfig(batch_size=10, max_epochs=2, seed=0, base_lr=1e-3)
    calls = _log_calls(monkeypatch)
    pretrain_mlm(model, texts, run, vocab)
    step = ["zero_grads", "mlm_logits", "backward", "adamw_step"]
    epoch = ["dynamic_mask"] * 10 + step + ["dynamic_mask"] * 10 + step + ["dynamic_mask"] * 4 + step
    assert calls == epoch * 2  # 24 texts, batches of 10, masked before each step begins


def test_mlm_skipped_batch_runs_no_step(monkeypatch):
    texts = ["<s>a</s>"] * 4
    vocab = build_vocab(texts)
    model = init_model(_desk_config(vocab, max_positions=8), seed=0)
    run = TrainRunConfig(batch_size=4, max_epochs=2, seed=0, mask_rate=1e-9)
    calls = _log_calls(monkeypatch)
    pretrain_mlm(model, texts, run, vocab)
    # the step begins, then has nothing to train
    assert calls == (["dynamic_mask"] * 4 + ["zero_grads"]) * 2


def test_step_loss_freed_before_next_forward(monkeypatch):
    """Each step's loss, and so its tape, is freed once its value is read:
    the last loss is dead at every later forward, validation's included,
    so no two tapes are ever resident at once."""
    last = []  # a weak reference to the data of the latest loss backward saw
    alive = []
    backward = ag.backward

    def remember(loss):
        last[:] = [weakref.ref(loss.data)]
        return backward(loss)

    def check(name):
        if name in ("forward", "mlm_logits") and last and last[0]() is not None:
            alive.append(name)

    monkeypatch.setattr(ag, "backward", remember)
    calls = _log_calls(monkeypatch, before=check)
    records = _toy_records(20)
    vocab = build_vocab([r.text for r in records])
    run = TrainRunConfig(batch_size=8, max_epochs=2, seed=0, base_lr=1e-3)
    train_regression(init_model(_desk_config(vocab), seed=0), records, records, run, vocab)
    last.clear()
    texts = _mlm_corpus()
    vocab = build_vocab(texts)
    pretrain_mlm(init_model(_desk_config(vocab, max_positions=16), seed=0), texts, run, vocab)
    assert calls.count("forward") == 12 and calls.count("mlm_logits") == 6
    assert alive == []


def _fake_libc(calls, with_mallopt=True):
    """A stand-in for ctypes.CDLL that records mallopt's arguments."""
    def load(name):
        assert name == "libc.so.6"
        if not with_mallopt:
            return types.SimpleNamespace()

        def mallopt(param, value):
            calls.append((param, value))
            return 1
        return types.SimpleNamespace(mallopt=mallopt)
    return load


def test_import_leaves_the_allocator_alone():
    # a fresh interpreter: this one has imported the package already
    code = (
        "import ctypes, importlib, pkgutil\n"
        "calls = []\n"
        "ctypes.CDLL = lambda name, *a, **k: calls.append(name)\n"
        "import adsorbtext\n"
        "for m in pkgutil.iter_modules(adsorbtext.__path__):\n"
        "    if m.name != '__main__':\n"
        "        importlib.import_module('adsorbtext.' + m.name)\n"
        "assert calls == [], calls\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(adsorbtext.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_training_pads_the_heap_top_once_per_run(monkeypatch):
    calls = []
    monkeypatch.setattr(trainer.ctypes, "CDLL", _fake_libc(calls))
    records = _toy_records(20)
    vocab = build_vocab([r.text for r in records])
    run = TrainRunConfig(batch_size=8, max_epochs=2, seed=0, base_lr=1e-3)
    train_regression(init_model(_desk_config(vocab), seed=0), records, records, run, vocab)
    assert calls == [(trainer.M_TOP_PAD, trainer.HEAP_TOP_PAD)]
    texts = _mlm_corpus()
    vocab = build_vocab(texts)
    pretrain_mlm(init_model(_desk_config(vocab, max_positions=16), seed=0), texts, run, vocab)
    assert calls == [(trainer.M_TOP_PAD, trainer.HEAP_TOP_PAD)] * 2


def _raise_oserror(name):
    raise OSError(f"{name}: cannot open shared object file")


@pytest.mark.parametrize("loader", [_raise_oserror, _fake_libc([], with_mallopt=False)],
                         ids=["no-libc", "no-mallopt"])
def test_training_without_mallopt_gives_the_same_parameters(monkeypatch, loader):
    records = _toy_records(20)
    vocab = build_vocab([r.text for r in records])
    run = TrainRunConfig(batch_size=8, max_epochs=2, seed=0, base_lr=1e-3)

    def trained():
        model = init_model(_desk_config(vocab), seed=0)
        train_regression(model, records, records, run, vocab)
        return model.data_buffer.tobytes()

    padded = trained()
    monkeypatch.setattr(trainer.ctypes, "CDLL", loader)
    assert trained() == padded
