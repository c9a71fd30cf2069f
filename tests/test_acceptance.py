"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. The slowest test (desk-scale benchmark on 2,000 synthetic
systems) takes about two minutes on a 2-core CPU; everything else
finishes in seconds to half a minute.
"""

import math
import time
from collections import Counter

import numpy as np
import pytest

import adsorbtext.autograd as ag
from adsorbtext.analysis import attention_profile, token_attention
from adsorbtext.cli import SmokeConfig, end_to_end_smoke, fixture_dataset_path
from adsorbtext.encoder import EncoderConfig, forward, init_model
from adsorbtext.featurize import (
    detect_configuration,
    featurize_systems,
    render_system_description,
    serialize,
)
from adsorbtext.pairs import (
    PredictionRecord,
    error_propagation_stats,
    generate_pairs,
    secr,
    split_pair_stats,
)
from adsorbtext.synth import synthetic_systems
from adsorbtext.systems import load_dataset
from adsorbtext.tokens import BOS, EOS, PAD, TokenSequence, build_vocab, dynamic_mask, encode
from adsorbtext.trainer import LrGroupPlan, TrainRunConfig, train_regression
from conftest import REFERENCE_TEXTS


def _report(number: int, passed: bool, detail: str) -> None:
    print(f"\n[criterion {number:02d}] {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {number} failed: {detail}"


# --------------------------------------------------------------------------
# 1. Serialization exactness on the bundled fixture (byte-for-byte, < 1 s)

def test_criterion_01_serialization_exactness():
    tic = time.perf_counter()
    systems = load_dataset(fixture_dataset_path())
    fixture = next(s for s in systems if s.id == "NH3_VCr3_210")
    config = detect_configuration(fixture)
    produced = {fmt: serialize(fixture, config, fmt).text
                for fmt in ("S1", "S2", "S3", "S4", "S5")}
    produced["DESC"] = render_system_description(fixture, config).text
    elapsed = time.perf_counter() - tic
    exact = all(produced[k] == REFERENCE_TEXTS[k] for k in produced)
    _report(1, exact and elapsed < 1.0,
            f"five strings + description byte-exact, {elapsed*1000:.0f} ms")


# --------------------------------------------------------------------------
# 2. Pair combinatorics at reference scale (exact counts, < 1 min streaming)

def test_criterion_02_pair_combinatorics():
    per_split = {"ID": 2493, "OOD_ads": 2494, "OOD_cat": 2507, "OOD_both": 2506}
    expected = {"ID": 3_106_278, "OOD_ads": 3_108_771,
                "OOD_cat": 3_141_271, "OOD_both": 3_138_765}
    records = []
    for split, n in per_split.items():
        for i in range(n):
            records.append(PredictionRecord(f"{split}-{i}", split, "NH3",
                                            "VCr3", 0.0, 0.0))
    tic = time.perf_counter()
    counts = Counter()
    for pair in generate_pairs(records, within_split=True):
        counts[pair.id_i.split("-")[0]] += 1
    elapsed = time.perf_counter() - tic
    _report(2, dict(counts) == expected and elapsed < 60.0,
            f"counts {dict(counts)} in {elapsed:.1f} s")


# --------------------------------------------------------------------------
# 3. SECR identities and error-propagation residual

def _correlated_records(rng, n=400):
    smiles_pool = ["NH", "OH", "CO", "CH3", "NO"]
    bias = {s: float(rng.normal(0, 0.8)) for s in smiles_pool}
    records = []
    for i in range(n):
        s = smiles_pool[i % len(smiles_pool)]
        err = bias[s] + float(rng.normal(0, 0.1))
        label = float(rng.normal())
        records.append(PredictionRecord(f"r{i}", "ID", s, f"B{i}",
                                        label, label + err))
    return records


def test_criterion_03_secr_identities(rng):
    records = _correlated_records(rng)

    total_secr = secr(generate_pairs(records), lambda pair: True)
    identity_ok = total_secr == 0.0

    value = secr(generate_pairs(records), lambda p: p.shares_adsorbate)
    sub, tot = [], []
    for i in range(len(records)):
        for j in range(i + 1, len(records)):
            sq = (records[i].error - records[j].error) ** 2
            tot.append(sq)
            if records[i].adsorbate_smiles == records[j].adsorbate_smiles:
                sub.append(sq)
    brute = 100.0 * (1.0 - math.sqrt(math.fsum(sub) / len(sub))
                     / math.sqrt(math.fsum(tot) / len(tot)))
    brute_ok = abs(value - brute) < 1e-10

    streamed = error_propagation_stats(records, generate_pairs(records))
    (vector_report,) = split_pair_stats(records)
    residual_ok = (streamed.residual < 1e-10
                   and vector_report.propagation.residual < 1e-10)

    _report(3, identity_ok and brute_ok and residual_ok,
            f"SECR(total)=0 exact, |SECR-brute|={abs(value-brute):.1e}, "
            f"residuals {streamed.residual:.1e}/{vector_report.propagation.residual:.1e}")


# --------------------------------------------------------------------------
# 4. Gradient correctness: central finite differences, h = 1e-5, double

def test_criterion_04_gradient_correctness():
    tic = time.perf_counter()
    cfg = EncoderConfig(vocab_size=30, n_layers=2, n_heads=2, hidden_size=16,
                        max_positions=24, dropout_rate=0.0, dtype="float64")
    model = init_model(cfg, seed=1)
    for p in model.params.values():
        if p.data.ndim == 2:
            p.data = p.data * 25.0  # N(0, 0.5): keeps attention gradients well off the FD noise floor
    rng = np.random.default_rng(5)

    def make_seq(n_real):
        ids = np.full(24, PAD, dtype=np.int64)
        mask = np.zeros(24, dtype=np.int64)
        ids[0] = BOS
        ids[1:n_real - 1] = rng.integers(5, 30, n_real - 2)
        ids[n_real - 1] = EOS
        mask[:n_real] = 1
        return TokenSequence(ids, mask)

    seqs = [make_seq(10), make_seq(15), make_seq(24)]
    labels = rng.normal(size=3)

    def loss_fn():
        return ag.l1_loss(forward(model, seqs).energy, labels)

    ag.backward(loss_fn())
    h = 1e-5
    n_total = n_bad = 0
    for name, p in model.params.items():
        flat = p.data.reshape(-1)
        grad = p.grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = float(loss_fn().data)
            flat[i] = orig - h
            lm = float(loss_fn().data)
            flat[i] = orig
            fd = (lp - lm) / (2 * h)
            # the 1e-6 floor absorbs FD round-off on mathematically-zero
            # gradients (key-projection biases cancel in the softmax)
            rel = abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-6)
            n_total += 1
            n_bad += rel >= 1e-4
    elapsed = time.perf_counter() - tic
    rate = 100.0 * (1.0 - n_bad / n_total)
    _report(4, rate >= 99.9 and elapsed < 120.0,
            f"{n_total} parameters, {rate:.3f}% within 1e-4, {elapsed:.0f} s")


# --------------------------------------------------------------------------
# 5. Attention normalization and per-word conservation

def test_criterion_05_attention_normalization():
    systems = synthetic_systems(6, seed=51)
    records, _ = featurize_systems(systems, "S4")
    vocab = build_vocab([r.text for r in records])
    cfg = EncoderConfig(vocab_size=len(vocab), n_layers=4, n_heads=4,
                        hidden_size=64, max_positions=80, dropout_rate=0.0)
    model = init_model(cfg, seed=5)
    worst_row = 0.0
    worst_conservation = 0.0
    for rec in records:
        seq = encode(rec.text, vocab, 80)
        res = forward(model, [seq], capture_attention=True)
        for layer_matrix in res.attention:
            worst_row = max(worst_row,
                            float(np.abs(layer_matrix.sum(axis=-1) - 1.0).max()))
        att = res.attention_record(0, seq.n_real)
        for layer in range(att.n_layers):
            scores = token_attention(att, layer)
            profile = attention_profile(att, layer, rec.text, seq)
            worst_conservation = max(worst_conservation,
                                     abs(profile.total - float(scores.sum())))
    _report(5, worst_row < 1e-6 and worst_conservation < 1e-9,
            f"max |row sum - 1| = {worst_row:.1e}, "
            f"max conservation defect = {worst_conservation:.1e}")


# --------------------------------------------------------------------------
# 6. gLLRD: effective learning rates in exact ratio 1 : 1.75 : 3.5

def test_criterion_06_gllrd_ratios():
    plan = LrGroupPlan(n_layers=12, base_lr=1e-6)
    lrs = plan.effective_lrs()
    exact = (lrs[0] == 1e-6 and lrs[1] == 1.75 * lrs[0] and lrs[2] == 3.5 * lrs[0])

    from adsorbtext.featurize import CorpusRecord
    texts = [f"<s>w{i % 5} w{(i + 1) % 5}</s>" for i in range(12)]
    records = [CorpusRecord(f"t{i}", "S1", texts[i], float(i % 3), "train")
               for i in range(12)]
    vocab = build_vocab(texts)
    cfg = EncoderConfig(vocab_size=len(vocab), n_layers=3, n_heads=2,
                        hidden_size=16, max_positions=8, dropout_rate=0.0)
    model = init_model(cfg, seed=6)
    run = TrainRunConfig(batch_size=4, max_epochs=3, early_stopping_patience=5,
                         seed=6, base_lr=1e-6)
    result = train_regression(model, records, records, run, vocab)
    logged_ok = all(
        h["lrs"][0] == 1e-6
        and h["lrs"][1] == 1.75 * h["lrs"][0]
        and h["lrs"][2] == 3.5 * h["lrs"][0]
        for h in result.history
    )
    _report(6, exact and logged_ok,
            f"effective lrs {lrs} exact at every logged epoch")


# --------------------------------------------------------------------------
# 7. Optimization sanity: overfit smoke test and early-stop counting

def test_criterion_07_optimization_sanity():
    from adsorbtext.featurize import CorpusRecord
    rng = np.random.default_rng(0)
    records = []
    for i in range(32):
        hot = i % 2 == 0
        words = ["w%d" % rng.integers(8) for _ in range(6)]
        if hot:
            words[rng.integers(6)] = "hot"
        records.append(CorpusRecord(f"s{i}", "S1",
                                    "<s>" + " ".join(words) + "</s>",
                                    1.0 if hot else -1.0, "train"))
    vocab = build_vocab([r.text for r in records])
    cfg = EncoderConfig(vocab_size=len(vocab), n_layers=2, n_heads=2,
                        hidden_size=32, max_positions=16, dropout_rate=0.0)

    model = init_model(cfg, seed=0)
    run = TrainRunConfig(batch_size=8, max_epochs=200,
                         early_stopping_patience=200, seed=0, base_lr=1e-3)
    result = train_regression(model, records, records, run, vocab)
    best_train = min(h["train_mae"] for h in result.history)
    epochs_to_target = next((h["epoch"] for h in result.history
                             if h["train_mae"] < 0.05), None)
    overfit_ok = epochs_to_target is not None and epochs_to_target <= 200

    frozen = init_model(cfg, seed=0)
    frozen_run = TrainRunConfig(batch_size=8, max_epochs=50,
                                early_stopping_patience=5, seed=0, base_lr=0.0)
    frozen_result = train_regression(frozen, records, records, frozen_run, vocab)
    stop_ok = len(frozen_result.history) == 6  # 1 improving + exactly patience

    _report(7, overfit_ok and stop_ok,
            f"train MAE {best_train:.4f} (<0.05 by epoch {epochs_to_target}); "
            f"frozen run stopped after {len(frozen_result.history)} epochs")


# --------------------------------------------------------------------------
# 8. Dynamic masking statistics

def test_criterion_08_dynamic_masking():
    body = " ".join("w%d" % (i % 40) for i in range(1000))
    vocab = build_vocab([body])
    seq = encode("<s>" + body + "</s>", vocab, 1024)
    maskable = seq.n_real - 2
    selected = total = 0
    masks = []
    specials_ok = True
    for trial in range(120):
        masked, labels = dynamic_mask(seq, vocab, 0.15, seed=trial)
        selected += len(labels)
        total += maskable
        masks.append(masked.ids.copy())
        if masked.ids[0] != BOS or masked.ids[seq.n_real - 1] != EOS \
                or not np.all(masked.ids[seq.n_real:] == PAD):
            specials_ok = False
    fraction = selected / total
    distinct = any(not np.array_equal(masks[0], m) for m in masks[1:])
    _report(8, total >= 100_000 and 0.14 <= fraction <= 0.16
            and specials_ok and distinct,
            f"{total} positions, masked fraction {fraction:.4f}, "
            f"specials untouched, masks vary across seeds")


# --------------------------------------------------------------------------
# 9. End-to-end determinism (byte-identical reports and checkpoints)

def test_criterion_09_determinism(tmp_path):
    runs = []
    for name in ("a", "b"):
        out = tmp_path / name
        end_to_end_smoke(SmokeConfig(out_dir=out, seed=42))
        runs.append(out)
    compared = ["eval/mae_report.tsv", "model.ckpt", "pretrain.ckpt",
                "predictions.tsv", "pairs/pairs_report.tsv"]
    identical = all((runs[0] / rel).read_bytes() == (runs[1] / rel).read_bytes()
                    for rel in compared)
    _report(9, identical,
            "two same-seed pipeline runs: evaluation report, predictions, "
            "pair report and both checkpoints byte-identical")


# --------------------------------------------------------------------------
# 10. Desk-scale substitute benchmark: S4 fits the synthetic target and
#     beats S1 on the same seed (full-scale figures are out of reach here)

@pytest.mark.slow
def test_criterion_10_desk_scale_benchmark():
    tic = time.perf_counter()
    noise_sigma = 0.1
    systems = synthetic_systems(2000, seed=123, noise_sigma=noise_sigma)
    results = {}
    for fmt, max_pos in (("S4", 80), ("S1", 16)):
        records, report = featurize_systems(systems, fmt)
        assert report["fallback_s1"] == 0
        train = [r for r in records if r.split == "train"]
        val = [r for r in records if r.split != "train"]
        vocab = build_vocab([r.text for r in records])
        cfg = EncoderConfig(vocab_size=len(vocab), n_layers=4, n_heads=4,
                            hidden_size=64, max_positions=max_pos,
                            dropout_rate=0.0, dtype="float32")
        model = init_model(cfg, seed=7)
        run = TrainRunConfig(batch_size=16, max_epochs=40,
                             early_stopping_patience=5, seed=7, base_lr=1e-3)
        results[fmt] = train_regression(model, train, val, run, vocab)
    elapsed = time.perf_counter() - tic
    s4 = results["S4"].best_val_mae
    s1 = results["S1"].best_val_mae
    _report(10, s4 < 2 * noise_sigma and s4 < s1 and elapsed < 1800.0,
            f"val MAE S4 {s4:.4f} < {2 * noise_sigma} and < S1 {s1:.4f}; "
            f"{elapsed/60:.1f} min")
