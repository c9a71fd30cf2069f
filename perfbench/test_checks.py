"""Tests of the benchmark's correctness checks against the program itself.

Run with `PYTHONPATH=src python -m pytest perfbench`.
"""

import math

import numpy as np
import pytest

from adsorbtext import analysis, cli, encoder, featurize, pairs, systems, tokens
from perfbench import checks


@pytest.fixture(scope="module")
def fixture_systems():
    return systems.load_dataset(cli.fixture_dataset_path())


def _write_corpus(records, path):
    featurize.write_corpus(records, path)
    return path


@pytest.mark.parametrize("pre_norm,head", [(False, "tanh"), (True, "gelu")])
def test_reference_forward_matches_encoder_float64(fixture_systems, tmp_path, pre_norm, head):
    records, _ = featurize.featurize_systems(fixture_systems, "S4")
    vocab = tokens.build_vocab(r.text for r in records)
    vocab.save(tmp_path / "vocab.txt")
    config = encoder.EncoderConfig(vocab_size=len(vocab), max_positions=80, dropout_rate=0.0,
                                   pre_norm=pre_norm, head_activation=head)
    model = encoder.init_model(config, seed=3)
    rng = np.random.default_rng(0)
    for p in model.params.values():  # O(1) outputs, unlike the N(0, 0.02) init
        p.data = p.data + rng.normal(0.0, 0.3, p.data.shape)
    encoder.save_checkpoint(model, tmp_path / "m.ckpt")
    seqs = [tokens.encode(r.text, vocab, 80) for r in records]
    program = encoder.forward(model, seqs).energies()

    cfg, params = checks.read_checkpoint(tmp_path / "m.ckpt")
    ids_vocab = checks.read_vocab(tmp_path / "vocab.txt")
    for rec, seq, energy in zip(records, seqs, program):
        ids = checks.token_ids(rec.text, ids_vocab, 80)
        assert ids == seq.ids[:seq.n_real].tolist()
        assert checks.reference_energy(cfg, params, ids) == pytest.approx(energy, abs=1e-10)
    assert np.ptp(program) > 0.1


def _predictions(path, rows):
    pairs.write_predictions([pairs.PredictionRecord(*r) for r in rows], path)
    return path


def test_learning_check(tmp_path):
    corpus = _write_corpus(
        [featurize.CorpusRecord(f"t{i}", "S4", "<s>x</s>", e, "train")
         for i, e in enumerate((0.0, 1.0, 2.0))], tmp_path / "corpus.jsonl")
    labels = [0.0, 0.5, 3.0]
    good = _predictions(tmp_path / "good.tsv", [
        (f"v{i}", "ID", "H", "Pt", y, y + 0.1) for i, y in enumerate(labels)])
    constant = _predictions(tmp_path / "const.tsv", [
        (f"v{i}", "ID", "H", "Pt", y, 1.0) for i, y in enumerate(labels)])
    assert checks.check_learning(corpus, good).ok
    assert not checks.check_learning(corpus, constant).ok


def test_attention_check(fixture_systems):
    records, _ = featurize.featurize_systems(fixture_systems[:4], "S4")
    vocab = tokens.build_vocab(r.text for r in records)
    model = encoder.init_model(encoder.EncoderConfig(
        vocab_size=len(vocab), n_layers=2, max_positions=80, dropout_rate=0.0), seed=1)
    captures = []
    for rec in records:
        seq = tokens.encode(rec.text, vocab, 80)
        res = encoder.forward(model, [seq], capture_attention=True)
        record = res.attention_record(0, seq.n_real)
        captures.append((seq.n_real, res.attention, [
            analysis.attention_profile(record, layer, rec.text, seq) for layer in (0, 1)]))
    assert checks.check_attention(captures).ok
    n_real, layers, profiles = captures[0]
    layers[1][0, 0, 0, n_real] = 1e-30
    assert not checks.check_attention(captures).ok


def test_contacts_agree_with_desc_texts(fixture_systems, tmp_path):
    systems.save_dataset(fixture_systems, tmp_path / "systems.jsonl")
    records, _ = featurize.featurize_systems(fixture_systems, "DESC")
    table = cli.fixture_dataset_path().parent / "element_table.csv"
    corpus = _write_corpus(records, tmp_path / "corpus.jsonl")
    assert checks.check_contacts(tmp_path / "systems.jsonl", corpus, table).ok

    first = records[0]
    wrong = first._replace(text=first.text.replace("The N atom", "The O atom"))
    assert wrong.text != first.text
    corpus = _write_corpus([wrong, *records[1:]], tmp_path / "wrong.jsonl")
    assert not checks.check_contacts(tmp_path / "systems.jsonl", corpus, table).ok
    fallback, _ = featurize.featurize_systems(fixture_systems[:1], "S1")
    corpus = _write_corpus([*fallback, *records[1:]], tmp_path / "s1.jsonl")
    assert not checks.check_contacts(tmp_path / "systems.jsonl", corpus, table).ok


def test_mlm_loss_check(tmp_path):
    tokens.Vocabulary(list(tokens.SPECIALS) + list("abcde")).save(tmp_path / "v.txt")
    for loss, ok in ((1.0, True), (math.log(10) + 0.01, False), (float("nan"), False)):
        (tmp_path / "h.tsv").write_text(f"1\ttrain\tmlm_loss\t3.0\n2\ttrain\tmlm_loss\t{loss!r}\n")
        assert checks.check_mlm_loss(tmp_path / "h.tsv", tmp_path / "v.txt").ok is ok


def test_closed_form_pair_stats_match_enumeration(tmp_path):
    rng = np.random.default_rng(5)
    records, columns = [], {}
    for split, n in (("ID", 150), ("OOD_ads", 120), ("OOD_cat", 90)):
        ads, bulk = rng.integers(6, size=n), rng.integers(9, size=n)
        label = rng.normal(size=n)
        pred = label + 0.4 * ads - 0.3 * bulk + rng.normal(0, 0.2, n)
        columns[split] = (ads, bulk, label, pred)
        records += [pairs.PredictionRecord(f"{split}-{i}", split, f"a{a}", f"b{b}", y, p)
                    for i, (a, b, y, p) in enumerate(zip(ads, bulk, label, pred))]
    expected = {split: checks.closed_form_pair_stats(pred - label, ads, bulk)
                for split, (ads, bulk, label, pred) in columns.items()}
    selectors = {"sharing_one": pairs.sharing_one, "sharing_two": pairs.sharing_two,
                 "chemically_similar": pairs.chemically_similar}
    for split, exp in expected.items():
        subset = [r for r in records if r.split == split]
        enumerated = list(pairs.generate_pairs(subset))
        assert exp["pairs"] == len(enumerated)
        rmse = math.sqrt(sum(p.error ** 2 for p in enumerated) / len(enumerated))
        assert exp["rmse_total"] == pytest.approx(rmse, rel=1e-12)
        for name, select in selectors.items():
            count, secr = exp["subgroups"][name]
            assert count == sum(map(select, enumerated))
            assert secr == pytest.approx(pairs.secr(enumerated, select), rel=1e-12)

    report = tmp_path / "pairs_report.tsv"
    report.write_text(pairs.format_pairs_report(pairs.split_pair_stats(records)))
    assert checks.check_pairs(report, expected).ok
    expected["ID"]["subgroups"]["sharing_two"] = (-1, None)
    assert not checks.check_pairs(report, expected).ok
