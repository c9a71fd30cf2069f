import numpy as np
import pytest

from adsorbtext.tokens import (
    BOS,
    EOS,
    MASK,
    N_SPECIALS,
    PAD,
    SPECIALS,
    UNK,
    TokenSequence,
    Vocabulary,
    build_vocab,
    decode,
    dynamic_mask,
    encode,
    tokenize,
    tokenize_words,
)
from conftest import S4_TEXT


def test_tokenize_isolates_markers_and_punctuation():
    toks = tokenize(S4_TEXT)
    for expected in ("NH3", "VCr3", "(", "2", "1", "0", ")", "[", "N", "Cr",
                     "bridge", "V", "]"):
        assert expected in toks
    assert toks[0] == "<s>"
    assert toks[-1] == "</s>"


def test_tokenize_words_alignment():
    words = tokenize_words("NH3</s>VCr3 (2, 1, 0). The")
    assert words[0] == ("NH3", ["NH3"])
    assert words[1] == ("</s>", ["</s>"])
    assert words[3] == ("(2,", ["(", "2", ","])
    assert words[5] == ("0).", ["0", ")", "."])


def test_build_vocab_single_token_corpus():
    vocab = build_vocab(["<s>NH3</s>"])
    assert vocab.id_to_token == list(SPECIALS) + ["NH3"]
    assert vocab.id_of("<s>") == BOS
    assert vocab.id_of("</s>") == EOS


def test_build_vocab_min_freq_maps_to_unk():
    vocab = build_vocab(["a a b"], min_freq=2)
    assert "a" in vocab.token_to_id
    assert "b" not in vocab.token_to_id
    assert vocab.id_of("b") == UNK


def test_build_vocab_empty_corpus():
    with pytest.raises(ValueError, match="empty corpus"):
        build_vocab([])
    with pytest.raises(ValueError, match="empty corpus"):
        build_vocab(["", "   "])


def test_build_vocab_order_and_line_order_insensitivity():
    lines = ["b b b a a c", "c a b"]
    v1 = build_vocab(lines)
    v2 = build_vocab(list(reversed(lines)))
    assert v1.id_to_token == v2.id_to_token
    # frequency desc, then token asc: b(4), a(3), c(2)
    assert v1.id_to_token[N_SPECIALS:] == ["b", "a", "c"]


def test_vocab_save_load_and_hash(tmp_path, fixture_corpus):
    vocab = build_vocab(fixture_corpus)
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    loaded = Vocabulary.load(path)
    assert loaded.id_to_token == vocab.id_to_token
    assert loaded.sha256 == vocab.sha256


def test_vocab_requires_specials_first():
    with pytest.raises(ValueError):
        Vocabulary(["a", "b"])


def test_encode_empty_text():
    vocab = build_vocab(["x"])
    seq = encode("", vocab, max_positions=6)
    assert list(seq.ids) == [BOS, EOS]
    assert len(seq) == 6
    assert list(seq.attention_mask) == [1, 1, 0, 0, 0, 0]


def test_encode_fixed_length_and_mask_sum(fixture_corpus):
    vocab = build_vocab(fixture_corpus)
    for text in fixture_corpus:
        seq = encode(text, vocab, max_positions=128)
        assert len(seq) == 128
        assert seq.ids[0] == BOS
        assert seq.n_real == int((seq.ids != PAD).sum())


def test_encode_stores_only_real_ids(fixture_corpus):
    vocab = build_vocab(fixture_corpus)
    text = fixture_corpus[3]
    n_real = len(tokenize(text))
    seq = encode(text, vocab, 512)
    assert seq.ids.size == n_real
    assert len(seq) == 512


def test_encode_truncates_keeping_eos():
    vocab = build_vocab(["w"])
    text = "<s>" + " ".join(["w"] * 600) + "</s>"
    seq = encode(text, vocab, max_positions=512)
    assert len(seq) == 512
    assert seq.n_real == 512
    assert seq.ids[0] == BOS
    assert seq.ids[511] == EOS


def test_encode_deterministic(fixture_corpus):
    vocab = build_vocab(fixture_corpus)
    a = encode(fixture_corpus[3], vocab, 64)
    b = encode(fixture_corpus[3], vocab, 64)
    assert np.array_equal(a.ids, b.ids)


def test_decode_round_trip_string_formats(fixture_corpus):
    vocab = build_vocab(fixture_corpus)
    for text in fixture_corpus[:5]:  # the five string formats
        assert decode(encode(text, vocab, 256), vocab) == text


def test_decode_round_trip_description(fixture_corpus):
    # descriptions gain the bos/eos markers that encode() adds
    vocab = build_vocab(fixture_corpus)
    desc = fixture_corpus[5]
    assert decode(encode(desc, vocab, 256), vocab) == f"<s>{desc}</s>"


def test_token_sequence_invariants():
    with pytest.raises(ValueError, match="start with <s>"):
        TokenSequence(np.array([PAD, PAD]), 2)
    with pytest.raises(ValueError, match="more ids than the encoded length"):
        TokenSequence(np.array([BOS, 7, EOS]), 2)


def _long_seq(vocab, n_tokens=800, max_positions=1024):
    body = " ".join("w%d" % (i % 40) for i in range(n_tokens))
    return encode("<s>" + body + "</s>", vocab, max_positions)


def _word_vocab():
    return build_vocab([" ".join("w%d" % i for i in range(40))])


def test_dynamic_mask_rate_bounds():
    vocab = _word_vocab()
    seq = _long_seq(vocab, 20, 32)
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            dynamic_mask(seq, vocab, rate=bad)


def test_dynamic_mask_deterministic_per_seed():
    vocab = _word_vocab()
    seq = _long_seq(vocab, 50, 64)
    m1, l1 = dynamic_mask(seq, vocab, 0.15, seed=11)
    m2, l2 = dynamic_mask(seq, vocab, 0.15, seed=11)
    assert np.array_equal(m1.ids, m2.ids)
    assert l1 == l2


def test_dynamic_mask_differs_across_seeds():
    vocab = _word_vocab()
    seq = _long_seq(vocab, 200, 256)
    m1, _ = dynamic_mask(seq, vocab, 0.15, seed=1)
    m2, _ = dynamic_mask(seq, vocab, 0.15, seed=2)
    assert not np.array_equal(m1.ids, m2.ids)


def test_dynamic_mask_never_touches_specials():
    vocab = _word_vocab()
    seq = _long_seq(vocab, 100, 128)
    masked, labels = dynamic_mask(seq, vocab, 0.5, seed=3)
    assert masked.ids[0] == BOS
    assert masked.ids[seq.n_real - 1] == EOS
    assert np.all(masked.ids[seq.n_real:] == PAD)
    positions = {p for p, _ in labels}
    assert 0 not in positions
    assert (seq.n_real - 1) not in positions


def test_dynamic_mask_near_zero_rate():
    vocab = _word_vocab()
    seq = _long_seq(vocab, 30, 40)
    _, labels = dynamic_mask(seq, vocab, rate=1e-9, seed=5)
    assert labels == []


def test_dynamic_mask_labels_record_originals():
    vocab = _word_vocab()
    seq = _long_seq(vocab, 100, 128)
    masked, labels = dynamic_mask(seq, vocab, 0.3, seed=7)
    for pos, original in labels:
        assert seq.ids[pos] == original
    untouched = set(range(seq.n_real)) - {p for p, _ in labels}
    for pos in untouched:
        assert masked.ids[pos] == seq.ids[pos]


def test_dynamic_mask_monte_carlo_fraction():
    # >= 1e5 maskable positions at rate 0.15 -> fraction within 0.15 +- 0.01
    vocab = _word_vocab()
    seq = _long_seq(vocab, 1000, 1024)
    maskable = seq.n_real - 2
    selected = 0
    total = 0
    for trial in range(120):
        _, labels = dynamic_mask(seq, vocab, 0.15, seed=trial)
        selected += len(labels)
        total += maskable
    assert total >= 100_000
    fraction = selected / total
    assert 0.14 <= fraction <= 0.16


def test_dynamic_mask_replacement_split():
    # the 80/10/10 branch: most selected positions show <mask>
    vocab = _word_vocab()
    seq = _long_seq(vocab, 1000, 1024)
    masked, labels = dynamic_mask(seq, vocab, 0.5, seed=99)
    got_mask = sum(1 for p, _ in labels if masked.ids[p] == MASK)
    assert got_mask / len(labels) == pytest.approx(0.8, abs=0.06)
