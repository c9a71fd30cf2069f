import numpy as np
import pytest

from adsorbtext.analysis import (
    TokenAttentionProfile,
    WordScore,
    adsorbate_size_class,
    attention_profile,
    build_word_alignment,
    export_embeddings,
    export_heatmap,
    merge_per_word,
    read_embeddings,
    read_heatmap,
    token_attention,
)
from adsorbtext.encoder import AttentionRecord, EncoderConfig, forward, init_model
from adsorbtext.featurize import featurize_systems
from adsorbtext.synth import synthetic_systems, table_fixture_system
from adsorbtext.tokens import build_vocab, encode
from conftest import S4_TEXT


def _record(matrices, n_real):
    return AttentionRecord([np.asarray(m) for m in matrices], n_real)


def test_uniform_attention_scores():
    uniform = np.full((1, 4, 4), 0.25)
    scores = token_attention(_record([uniform], 4), 0)
    assert np.allclose(scores, 0.25)


def test_delta_attention_concentrates():
    att = np.zeros((1, 4, 4))
    att[0, :, 0] = 1.0
    scores = token_attention(_record([att], 4), 0)
    assert np.allclose(scores, [1.0, 0.0, 0.0, 0.0])


def test_token_attention_excludes_padding(rng):
    att = rng.random((2, 6, 6))
    att /= att.sum(axis=-1, keepdims=True)
    scores = token_attention(_record([att], 4), 0)
    assert scores.shape == (4,)
    # oracle: plain double loop over heads and real query positions
    want = np.zeros(4)
    for j in range(4):
        vals = [att[h, i, j] for h in range(2) for i in range(4)]
        want[j] = np.mean(vals)
    assert np.abs(scores - want).max() < 1e-12


def test_head_and_query_averaging_commute(rng):
    att = rng.random((4, 5, 5))
    att /= att.sum(axis=-1, keepdims=True)
    by_heads_first = att.mean(axis=0)[:5].mean(axis=0)
    by_queries_first = att.mean(axis=1).mean(axis=0)
    assert np.abs(by_heads_first - by_queries_first).max() < 1e-12


def test_token_attention_layer_bounds(rng):
    record = _record([np.full((1, 3, 3), 1 / 3)], 3)
    with pytest.raises(ValueError, match="layer"):
        token_attention(record, 5)


def test_merge_sums_multi_token_words():
    scores = np.array([0.5, 0.1, 0.2, 0.2])
    alignment = [("<s>", [0]), ("(a,", [1, 2]), ("</s>", [3])]
    profile = merge_per_word(scores, alignment)
    by_word = {w.word: w.score for w in profile.words}
    assert by_word["(a,"] == pytest.approx(0.3)
    assert profile.total == pytest.approx(1.0)
    assert {w.word for w in profile.specials} == {"<s>", "</s>"}


def test_merge_identity_for_single_token_words():
    scores = np.array([0.7, 0.3])
    profile = merge_per_word(scores, [("<s>", [0]), ("x", [1])])
    assert profile.words[1].score == pytest.approx(0.3)


def test_merge_rejects_uncovered_tokens():
    with pytest.raises(ValueError, match="cover"):
        merge_per_word(np.array([0.5, 0.5]), [("<s>", [0])])


def test_conservation_on_model_attention(rng):
    systems = synthetic_systems(3, seed=21)
    records, _ = featurize_systems(systems, "S4")
    vocab = build_vocab([r.text for r in records])
    cfg = EncoderConfig(vocab_size=len(vocab), n_layers=2, n_heads=2,
                        hidden_size=16, max_positions=64, dropout_rate=0.0)
    model = init_model(cfg, seed=0)
    for rec in records:
        seq = encode(rec.text, vocab, 64)
        res = forward(model, [seq], capture_attention=True)
        att = res.attention_record(0, seq.n_real)
        for layer in range(att.n_layers):
            scores = token_attention(att, layer)
            profile = attention_profile(att, layer, rec.text, seq)
            assert profile.total == pytest.approx(float(scores.sum()), abs=1e-9)


def test_word_alignment_matches_encoding(fixture_corpus):
    vocab = build_vocab(fixture_corpus)
    for text in fixture_corpus:
        seq = encode(text, vocab, 128)
        alignment = build_word_alignment(text, seq)
        covered = sorted(p for _, positions in alignment for p in positions)
        assert covered == list(range(seq.n_real))
    # truncated: encode keeps </s> as the last id, and the alignment ends on it
    text = "<s>NH3</s>VCr3 (2 1 0)</s>[N Cr Cr bridge [Cr Cr V N] [Cr V N]]</s>"
    vocab = build_vocab([text])
    for length in (2, 3, 8, 12):
        seq = encode(text, vocab, length)
        alignment = build_word_alignment(text, seq)
        covered = sorted(p for _, positions in alignment for p in positions)
        assert covered == list(range(seq.n_real))
        assert alignment[-1] == ("</s>", [seq.n_real - 1])
    assert [w for w, _ in build_word_alignment(text, encode(text, vocab, 8))] == [
        "<s>", "NH3", "</s>", "VCr3", "(2", "1", "</s>"]


def test_heatmap_round_trip(tmp_path):
    words = (WordScore("<s>", 0.2, (0,), True),
             WordScore("NH3", 0.5, (1,), False),
             WordScore("</s>", 0.3, (2,), True))
    profiles = [TokenAttentionProfile(0, words), TokenAttentionProfile(3, words)]
    path = tmp_path / "heat.tsv"
    export_heatmap(profiles, path)
    rows = read_heatmap(path)
    assert len(rows) == 6
    assert {r["layer"] for r in rows} == {0, 3}
    nh3 = [r for r in rows if r["word"] == "NH3"][0]
    assert nh3["raw_score"] == pytest.approx(0.5)
    assert nh3["intensity"] == pytest.approx(1.0)  # max-normalized per layer


def test_heatmap_uniform_profile_all_ones(tmp_path):
    words = tuple(WordScore(f"w{i}", 0.25, (i,), False) for i in range(4))
    path = tmp_path / "heat.tsv"
    export_heatmap([TokenAttentionProfile(0, words)], path)
    assert all(r["intensity"] == 1.0 for r in read_heatmap(path))


def test_heatmap_covers_every_word_of_string4(tmp_path):
    system = table_fixture_system()
    records, _ = featurize_systems([system], "S4")
    vocab = build_vocab([records[0].text])
    cfg = EncoderConfig(vocab_size=len(vocab), n_layers=2, n_heads=2,
                        hidden_size=16, max_positions=64, dropout_rate=0.0)
    model = init_model(cfg, seed=1)
    seq = encode(records[0].text, vocab, 64)
    res = forward(model, [seq], capture_attention=True)
    att = res.attention_record(0, seq.n_real)
    profiles = [attention_profile(att, layer, records[0].text, seq)
                for layer in (0, att.n_layers - 1)]
    path = tmp_path / "heat.tsv"
    export_heatmap(profiles, path)
    rows = read_heatmap(path)
    emitted = {r["word"] for r in rows}
    for chunk in S4_TEXT.replace("<s>", " <s> ").replace("</s>", " </s> ").split():
        assert chunk in emitted


@pytest.mark.parametrize("n,expected", [
    (1, "small"), (2, "small"), (3, "medium"), (5, "medium"),
    (6, "large"), (9, "large"),
])
def test_size_classes(n, expected):
    assert adsorbate_size_class(n) == expected


def _embedding_setup(n=6, hidden=16, zero=False):
    systems = synthetic_systems(n, seed=31)
    records, _ = featurize_systems(systems, "S4")
    vocab = build_vocab([r.text for r in records])
    cfg = EncoderConfig(vocab_size=len(vocab), n_layers=2, n_heads=2,
                        hidden_size=hidden, max_positions=64, dropout_rate=0.0)
    model = init_model(cfg, seed=2)
    if zero:
        for p in model.params.values():
            p.data = np.zeros_like(p.data)
    seqs = [encode(r.text, vocab, 64) for r in records]
    return model, systems, seqs


def test_embedding_dump_schema(tmp_path):
    model, systems, seqs = _embedding_setup()
    path = tmp_path / "emb.tsv"
    export_embeddings(model, systems, seqs, path)
    meta, vectors = read_embeddings(path)
    assert len(meta) == len(systems)
    assert vectors.shape == (len(systems), 16)
    assert meta[0]["system_id"] == systems[0].id
    assert meta[0]["split"] == systems[0].split
    assert set(meta[0]) >= {"adsorbate_smiles", "bulk_formula", "size_class",
                            "contains_Zr", "contains_Al", "contains_Ni"}


def test_embedding_dump_zero_model_rows_identical(tmp_path):
    model, systems, seqs = _embedding_setup(zero=True)
    path = tmp_path / "emb.tsv"
    export_embeddings(model, systems, seqs, path)
    _, vectors = read_embeddings(path)
    assert np.allclose(vectors, vectors[0])


def test_embedding_dump_deterministic(tmp_path):
    model, systems, seqs = _embedding_setup()
    p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
    export_embeddings(model, systems, seqs, p1)
    export_embeddings(model, systems, seqs, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_embedding_same_sample_twice_identical_rows(tmp_path):
    model, systems, seqs = _embedding_setup(n=3)
    path = tmp_path / "emb.tsv"
    export_embeddings(model, systems + systems[:1], seqs + seqs[:1], path)
    _, vectors = read_embeddings(path)
    assert np.array_equal(vectors[0], vectors[3])


def test_embedding_round_trip_exact_floats(tmp_path):
    model, systems, seqs = _embedding_setup(n=2)
    res = forward(model, seqs)
    path = tmp_path / "emb.tsv"
    export_embeddings(model, systems, seqs, path)
    _, vectors = read_embeddings(path)
    assert np.array_equal(vectors, res.pooled.data)
