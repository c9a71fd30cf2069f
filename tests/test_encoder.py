import warnings

import numpy as np
import pytest

import adsorbtext.autograd as ag
from adsorbtext.encoder import (
    CheckpointError,
    EncoderConfig,
    ensure_mlm_head,
    forward,
    init_model,
    load_checkpoint,
    mlm_logits,
    save_checkpoint,
    scaled_dot_attention,
)
from adsorbtext.tokens import BOS, EOS, PAD, TokenSequence
from conftest import rewrite_checkpoint_manifest


def small_config(**overrides):
    base = dict(vocab_size=30, n_layers=2, n_heads=2, hidden_size=16,
                max_positions=24, dropout_rate=0.0)
    base.update(overrides)
    return EncoderConfig(**base)


def make_seq(rng, n_real, max_positions=24, vocab_size=30):
    ids = np.empty(n_real, dtype=np.int64)
    ids[0] = BOS
    if n_real > 2:
        ids[1:n_real - 1] = rng.integers(5, vocab_size, n_real - 2)
    ids[n_real - 1] = EOS
    return TokenSequence(ids, max_positions)


def test_config_validates_divisibility():
    with pytest.raises(ValueError, match="divisible"):
        EncoderConfig(vocab_size=10, hidden_size=10, n_heads=3)


def test_zero_model_outputs_head_bias(rng):
    model = init_model(small_config(), seed=0)
    for name, p in model.params.items():
        p.data = np.zeros_like(p.data)
    model.params["head.b2"].data = np.array([0.73])
    seqs = [make_seq(rng, n) for n in (5, 12, 24)]
    energies = forward(model, seqs).energies()
    assert np.allclose(energies, 0.73)


def test_attention_rows_sum_to_one(rng):
    model = init_model(small_config(n_layers=3), seed=2)
    seqs = [make_seq(rng, n) for n in (6, 17, 24)]
    res = forward(model, seqs, capture_attention=True)
    assert len(res.attention) == 3
    for layer in res.attention:
        assert np.abs(layer.sum(axis=-1) - 1.0).max() < 1e-6
        for b, seq in enumerate(seqs):
            assert np.all(layer[b][:, :, seq.n_real:] == 0.0)


def test_padded_position_gradients_exactly_zero(rng):
    model = init_model(small_config(), seed=3)
    seq = make_seq(rng, 10)
    res = forward(model, [seq])
    ag.backward(ag.tensor_sum(res.energy))
    # pad embedding row is only ever used at padded positions
    pad_row_grad = model.params["tok_emb"].grad[PAD]
    assert np.array_equal(pad_row_grad, np.zeros_like(pad_row_grad))
    # positional rows beyond the real span get no gradient either
    pos_grad = model.params["pos_emb"].grad[seq.n_real:]
    assert np.array_equal(pos_grad, np.zeros_like(pos_grad))


def test_batch_trimmed_to_longest_sequence_is_exact(rng):
    model = init_model(small_config(max_positions=32), seed=13)
    seqs = [make_seq(rng, n, max_positions=32) for n in (6, 17, 24)]
    batch = forward(model, seqs).energies()
    alone = np.concatenate([forward(model, [s]).energies() for s in seqs])
    assert np.abs(batch - alone).max() < 1e-12
    # capturing attention runs the full padded length
    padded = forward(model, seqs, capture_attention=True).energies()
    assert np.abs(batch - padded).max() < 1e-12

    # same parameters at more positions: the extra pos_emb rows are never read
    wide = model.clone()
    wide.config = small_config(max_positions=48)
    wide.params["pos_emb"].data = np.vstack(
        [model.params["pos_emb"].data, rng.normal(0.0, 0.02, (16, 16))])
    wide_seqs = [TokenSequence(s.ids, 48) for s in seqs]
    assert np.abs(forward(wide, wide_seqs).energies() - batch).max() < 1e-12

    ag.backward(ag.tensor_sum(forward(model, seqs).energy))
    assert not np.any(model.params["tok_emb"].grad[PAD])
    assert not np.any(model.params["pos_emb"].grad[24:])


def test_head_reads_position_zero(rng):
    # without layers the pooled state is the embedding sum at position 0
    model = init_model(small_config(n_layers=0), seed=16)
    seqs = [make_seq(rng, n) for n in (6, 17, 24)]
    pooled = forward(model, seqs).pooled.data
    want = model.params["tok_emb"].data[BOS] + model.params["pos_emb"].data[0]
    assert np.array_equal(pooled, np.broadcast_to(want, pooled.shape))


def test_encoded_length_beyond_max_positions_runs(rng):
    # only the real tokens must fit the model: 10 of 512 on 24 positions
    model = init_model(small_config(), seed=18)
    seq = make_seq(rng, 10)
    long = TokenSequence(seq.ids, 512)
    assert np.array_equal(forward(model, [long]).energies(), forward(model, [seq]).energies())
    captured = forward(model, [long], capture_attention=True).attention
    assert captured[0].shape == (1, 2, 512, 512)


def test_forward_without_tape_is_bitwise_equal(rng):
    model = init_model(small_config(), seed=14)
    seqs = [make_seq(rng, n) for n in (5, 13, 20)]
    taped = forward(model, seqs)
    with ag.no_tape():
        untaped = forward(model, seqs)
    assert taped.energy.requires_grad
    assert np.array_equal(untaped.energies(), taped.energies())
    for t in (untaped.energy, untaped.pooled):
        assert not t.requires_grad
        assert t._parents == () and t._backward is None


def test_permutation_sensitivity(rng):
    model = init_model(small_config(), seed=4)
    seq = make_seq(rng, 12)
    swapped_ids = seq.ids.copy()
    # pick two interior positions with different tokens
    assert swapped_ids[2] != swapped_ids[5] or swapped_ids[3] != swapped_ids[5]
    a, b = (2, 5) if swapped_ids[2] != swapped_ids[5] else (3, 5)
    swapped_ids[a], swapped_ids[b] = swapped_ids[b], swapped_ids[a]
    swapped = TokenSequence(swapped_ids, len(seq))
    e1 = forward(model, [seq]).energies()[0]
    e2 = forward(model, [swapped]).energies()[0]
    assert abs(e1 - e2) > 1e-6


def test_forward_deterministic(rng):
    model = init_model(small_config(), seed=5)
    seqs = [make_seq(rng, 11)]
    assert forward(model, seqs).energies() == forward(model, seqs).energies()


def test_forward_rejects_out_of_range_ids(rng):
    model = init_model(small_config(), seed=6)
    seq = make_seq(rng, 8)
    bad_ids = seq.ids.copy()
    bad_ids[2] = 99
    with pytest.raises(ValueError, match="out of range"):
        forward(model, [TokenSequence(bad_ids, len(seq))])


def test_dropout_needs_rng(rng):
    model = init_model(small_config(dropout_rate=0.1), seed=6)
    with pytest.raises(ValueError, match="rng"):
        forward(model, [make_seq(rng, 8)], train=True)


def _bad_batch(rng, bad):
    """Two sequences, one of them bad, and whether to train."""
    seqs = [make_seq(rng, 6), make_seq(rng, 9)]
    if bad == "too long":  # 25 real tokens on a 24-position model
        seqs[1] = make_seq(rng, 25, max_positions=32)
    elif bad == "id out of range":
        ids = seqs[1].ids.copy()
        ids[2] = 30
        seqs[1] = TokenSequence(ids, 24)
    return seqs, bad == "train without rng"


@pytest.mark.parametrize("entry", ["forward", "mlm_logits"])
@pytest.mark.parametrize("bad, message", [
    ("too long", "sequence longer than max_positions"),
    ("id out of range", "token id out of range"),
    ("train without rng", "needs an rng for dropout"),
])
def test_forward_and_mlm_logits_reject_the_same_bad_batches(rng, entry, bad, message):
    model = init_model(small_config(dropout_rate=0.1), seed=17)
    ensure_mlm_head(model)
    seqs, train = _bad_batch(rng, bad)
    with pytest.raises(ValueError, match=message):
        if entry == "forward":
            forward(model, seqs, train=train)
        else:
            mlm_logits(model, seqs, (np.array([0, 1]), np.array([1, 2])), train=train)


def test_pre_norm_variant_runs(rng):
    model = init_model(small_config(pre_norm=True), seed=7)
    res = forward(model, [make_seq(rng, 10)], capture_attention=True)
    assert np.all(np.isfinite(res.energies()))


def test_scaled_dot_attention_concentrates_on_matching_key():
    k = np.eye(4)
    q = 50.0 * k[1:2]
    v = np.arange(16.0).reshape(4, 4)
    out, weights = scaled_dot_attention(q, k, v)
    assert weights.data[0, 1] > 0.999
    assert np.allclose(out.data[0], v[1], atol=1e-2)


def test_scaled_dot_attention_uniform_symmetric():
    q = k = v = np.array([[1.0], [1.0]])
    _, weights = scaled_dot_attention(q, k, v)
    assert np.allclose(weights.data, 0.5)


def test_scaled_dot_attention_matches_naive_oracle(rng):
    q = rng.normal(size=(5, 8))
    k = rng.normal(size=(5, 8))
    v = rng.normal(size=(5, 8))
    out, weights = scaled_dot_attention(q, k, v)
    # naive reimplementation, one query row at a time
    for i in range(5):
        scores = np.array([q[i] @ k[j] / np.sqrt(8) for j in range(5)])
        e = np.exp(scores - scores.max())
        w = e / e.sum()
        assert np.abs(weights.data[i] - w).max() < 1e-12
        assert np.abs(out.data[i] - w @ v).max() < 1e-12


def test_scaled_dot_attention_shape_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        scaled_dot_attention(np.zeros((3, 4)), np.zeros((3, 5)), np.zeros((3, 4)))


def test_checkpoint_round_trip_bit_exact(tmp_path, rng):
    model = init_model(small_config(), seed=8)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path, vocab_sha256="f" * 64, step=17, seed=8)
    loaded, manifest = load_checkpoint(path)
    assert manifest["step"] == 17
    assert manifest["seed"] == 8
    assert list(loaded.params) == list(model.params)
    for name in model.params:
        assert np.array_equal(loaded.params[name].data, model.params[name].data)


def test_checkpoint_vocab_hash_mismatch_warns_but_loads(tmp_path):
    model = init_model(small_config(), seed=9)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path, vocab_sha256="a" * 64)
    with pytest.warns(UserWarning, match="different vocabulary"):
        loaded, _ = load_checkpoint(path, expected_vocab_sha256="b" * 64)
    assert np.array_equal(loaded.params["tok_emb"].data, model.params["tok_emb"].data)


def test_checkpoint_matching_hash_is_silent(tmp_path):
    model = init_model(small_config(), seed=9)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path, vocab_sha256="a" * 64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        load_checkpoint(path, expected_vocab_sha256="a" * 64)


def test_checkpoint_truncation_detected(tmp_path):
    model = init_model(small_config(), seed=10)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 100])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_checkpoint_unknown_config_key(tmp_path):
    model = init_model(small_config(), seed=10)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    blob = path.read_bytes()
    # same length, so the header-length field stays valid
    path.write_bytes(blob.replace(b'"pre_norm"', b'"pre_nrom"', 1))
    with pytest.raises(CheckpointError, match=r"model\.ckpt.*pre_nrom"):
        load_checkpoint(path)


@pytest.mark.parametrize("key", ["name", "shape"])
def test_checkpoint_param_entry_missing_key(tmp_path, key):
    model = init_model(small_config(), seed=10)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    rewrite_checkpoint_manifest(path, lambda m: m["params"][3].pop(key))
    with pytest.raises(CheckpointError, match=rf"model\.ckpt: .*params\[3\].*'{key}'"):
        load_checkpoint(path)


def _rename(name, new):
    def edit(manifest):
        next(e for e in manifest["params"] if e["name"] == name)["name"] = new
    return edit


def _reshape(name, shape):
    def edit(manifest):
        next(e for e in manifest["params"] if e["name"] == name)["shape"] = shape
    return edit


@pytest.mark.parametrize("edit, message", [
    (_rename("layer1.wq", "layer1.w_q"), "tensor 'layer1.w_q' is not in the layout"),
    # same byte count, so the blob alone would load it without complaint
    (_reshape("layer0.w1", [64, 16]), "tensor 'layer0.w1' has shape \\[64, 16\\], "
                                      "its config implies \\[16, 64\\]"),
    (_rename("head.b2", "layer0.bq"), "tensor 'layer0.bq' appears twice"),
    (lambda m: m["params"].pop(), "tensor 'head.b2' is missing"),
], ids=["renamed", "reshaped", "duplicate", "missing"])
def test_checkpoint_layout_checked(tmp_path, edit, message):
    model = init_model(small_config(), seed=10)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    rewrite_checkpoint_manifest(path, edit)
    with pytest.raises(CheckpointError, match=rf"model\.ckpt: {message}"):
        load_checkpoint(path)


def test_checkpoint_with_mlm_head_round_trips(tmp_path):
    model = init_model(small_config(), seed=10)
    ensure_mlm_head(model, tied=False, seed=10)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    loaded, _ = load_checkpoint(path)
    assert list(loaded.params) == list(model.params)
    assert np.array_equal(loaded.params["mlm.w"].data, model.params["mlm.w"].data)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "nope.ckpt"
    path.write_bytes(b"definitely not a checkpoint")
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def _all_positions(seq):
    return np.zeros(seq.n_real, dtype=np.int64), np.arange(seq.n_real)


def test_mlm_logits_tied_and_untied(rng):
    seqs = [make_seq(rng, 9)]
    tied = init_model(small_config(), seed=11)
    ensure_mlm_head(tied, tied=True)
    out_tied = mlm_logits(tied, seqs, _all_positions(seqs[0]))
    assert out_tied.data.shape == (9, 30)
    untied = init_model(small_config(), seed=11)
    ensure_mlm_head(untied, tied=False, seed=11)
    out_untied = mlm_logits(untied, seqs, _all_positions(seqs[0]))
    assert "mlm.w" in untied.params
    assert not np.allclose(out_tied.data, out_untied.data)


@pytest.mark.parametrize("tied", [True, False])
def test_mlm_logits_match_each_sequence_alone(rng, tied):
    # logits at a few positions, in a shuffled order, against each sequence
    # run alone at all of its positions, post- and pre-norm
    for pre_norm in (False, True):
        model = init_model(small_config(pre_norm=pre_norm), seed=15)
        ensure_mlm_head(model, tied=tied, seed=15)
        model.params["mlm.bias"].data[...] = rng.normal(size=30)
        seqs = [make_seq(rng, n) for n in (6, 17, 24)]
        pairs = [(b, pos) for b, seq in enumerate(seqs) for pos in range(seq.n_real)
                 if rng.random() < 0.3]
        pairs = [pairs[i] for i in rng.permutation(len(pairs))]
        seq_index, pos = np.array(pairs).T
        batch = mlm_logits(model, seqs, (seq_index, pos)).data
        assert batch.shape == (len(pairs), 30)
        alone = [mlm_logits(model, [seq], _all_positions(seq)).data for seq in seqs]
        want = np.stack([alone[b][at] for b, at in pairs])
        assert np.abs(batch - want).max() < 1e-12


@pytest.mark.parametrize("b, pos, what", [
    (1, 9, "batch row 1 position 9 is padded"),
    (1, 24, "batch row 1 position 24 is out of range"),
    (1, -1, "batch row 1 position -1 is out of range"),
    (3, 0, "batch row 3 position 0 is out of range"),
    (0, 2, "batch row 0 position 2 is repeated"),
])
def test_mlm_logits_reject_bad_positions(rng, b, pos, what):
    # a repeat would lose gradient: take's backward assigns, not accumulates
    model = init_model(small_config(), seed=14)
    ensure_mlm_head(model)
    seqs = [make_seq(rng, n) for n in (6, 9, 12)]
    with pytest.raises(ValueError, match=what):
        mlm_logits(model, seqs, (np.array([0, 2, 0, b]), np.array([2, 5, 3, pos])))


def test_mlm_head_required(rng):
    model = init_model(small_config(), seed=12)
    seq = make_seq(rng, 6)
    with pytest.raises(ValueError, match="MLM head"):
        mlm_logits(model, [seq], _all_positions(seq))


def _assert_views(model):
    """Each parameter's data, and its grad where set, sits at its place in
    the model's buffers, in checkpoint order."""
    data, grad = model.buffers()
    start = 0
    for p in model.params.values():
        stop = start + p.data.size
        assert p.data.ctypes.data == data[start:stop].ctypes.data
        if p.grad is not None:
            assert p.grad.ctypes.data == grad[start:stop].ctypes.data
        start = stop
    assert start == data.size == grad.size


def test_parameters_stay_views_of_the_model_buffers(tmp_path, rng):
    model = init_model(small_config(), seed=11)
    ensure_mlm_head(model, tied=False, seed=11)
    _assert_views(model)
    data = model.data_buffer
    seqs = [make_seq(rng, n) for n in (5, 9, 12)]
    ag.backward(ag.tensor_sum(forward(model, seqs).energy))
    assert model.params["mlm.w"].grad is None  # the regression loss does not reach it
    _assert_views(model)
    once = {n: p.grad.copy() for n, p in model.params.items() if p.grad is not None}
    ag.backward(ag.tensor_sum(forward(model, seqs).energy))  # accumulates in place
    _assert_views(model)
    for name, g in once.items():
        np.testing.assert_array_equal(model.params[name].grad, g + g)
    model.zero_grads()
    assert all(p.grad is None for p in model.params.values())
    ag.backward(ag.tensor_sum(forward(model, seqs).energy))
    _assert_views(model)

    copy = model.clone()
    _assert_views(copy)
    assert not np.shares_memory(copy.data_buffer, model.data_buffer)
    np.testing.assert_array_equal(copy.data_buffer, model.data_buffer)

    fresh = init_model(small_config(), seed=12)
    fresh_data = fresh.data_buffer
    fresh.load_values(model, skip_prefixes=("head.",))
    assert fresh.buffers()[0] is fresh_data  # written into the views, not rebound
    _assert_views(fresh)
    np.testing.assert_array_equal(fresh.params["tok_emb"].data, model.params["tok_emb"].data)

    save_checkpoint(model, tmp_path / "m.ckpt")
    loaded, _ = load_checkpoint(tmp_path / "m.ckpt")
    _assert_views(loaded)
    np.testing.assert_array_equal(loaded.data_buffer, model.data_buffer)
    assert model.data_buffer is data  # nothing above laid the model out again


def test_buffers_follow_a_rebound_tensor(rng):
    model = init_model(small_config(), seed=13)
    new = rng.normal(size=model.params["layer1.wq"].data.shape)
    model.params["layer1.wq"].data = new
    _assert_views(model)
    np.testing.assert_array_equal(model.params["layer1.wq"].data, new)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_checkpoint_save_load_save_is_byte_identical(tmp_path, dtype):
    model = init_model(small_config(dtype=dtype), seed=14)
    ensure_mlm_head(model, tied=False, seed=14)
    save_checkpoint(model, tmp_path / "a.ckpt", vocab_sha256="e" * 64, step=3, seed=14)
    loaded, _ = load_checkpoint(tmp_path / "a.ckpt")
    save_checkpoint(loaded, tmp_path / "b.ckpt", vocab_sha256="e" * 64, step=3, seed=14)
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
