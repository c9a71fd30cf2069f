import dataclasses
import json
from pathlib import Path

import pytest

from adsorbtext.cli import (
    EXIT_OK,
    EXIT_USER_ERROR,
    SmokeConfig,
    SmokeStageError,
    end_to_end_smoke,
    fixture_dataset_path,
    run,
)
from adsorbtext.encoder import EncoderConfig, init_model, save_checkpoint
from adsorbtext.featurize import read_corpus
from adsorbtext.synth import fixture_dataset
from adsorbtext.systems import save_dataset
from adsorbtext.tokens import Vocabulary
from conftest import REFERENCE_TEXTS


def test_no_arguments_prints_usage(capsys):
    assert run([]) == EXIT_USER_ERROR
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_flag_is_user_error(capsys):
    assert run(["featurize", "--nope"]) == EXIT_USER_ERROR


def test_missing_input_is_user_error(tmp_path, capsys):
    code = run(["featurize", "--in", str(tmp_path / "absent.jsonl"),
                "--out", str(tmp_path / "c.jsonl"), "--format", "s4"])
    assert code == EXIT_USER_ERROR


def test_bundled_fixture_matches_generator(tmp_path):
    # the committed fixture file must stay in sync with the generator
    regenerated = tmp_path / "fixture.jsonl"
    save_dataset(fixture_dataset(), regenerated)
    assert regenerated.read_bytes() == fixture_dataset_path().read_bytes()


def test_featurize_reproduces_reference_string(tmp_path, table_system):
    dataset = tmp_path / "systems.jsonl"
    save_dataset([table_system], dataset)
    for fmt in ("s1", "s2", "s3", "s4", "s5", "desc"):
        out = tmp_path / f"corpus_{fmt}.jsonl"
        assert run(["featurize", "--in", str(dataset), "--out", str(out),
                    "--format", fmt]) == EXIT_OK
        (record,) = read_corpus(out)
        assert record.text == REFERENCE_TEXTS[fmt.upper()]
        assert record.split == table_system.split
        assert record.energy_ev == table_system.energy_ev


def test_featurize_writes_manifest(tmp_path, table_system):
    dataset = tmp_path / "systems.jsonl"
    save_dataset([table_system], dataset)
    out = tmp_path / "corpus.jsonl"
    run(["featurize", "--in", str(dataset), "--out", str(out), "--format", "s4"])
    manifest = json.loads((tmp_path / "corpus.jsonl.manifest.json").read_text())
    assert manifest["command"] == "featurize"
    assert manifest["version"]
    assert manifest["seed"] == 0
    assert len(manifest["config_sha256"]) == 64


def test_featurize_idempotent(tmp_path, table_system):
    dataset = tmp_path / "systems.jsonl"
    save_dataset([table_system], dataset)
    out = tmp_path / "corpus.jsonl"
    run(["featurize", "--in", str(dataset), "--out", str(out), "--format", "s4"])
    first = out.read_bytes()
    run(["featurize", "--in", str(dataset), "--out", str(out), "--format", "s4"])
    assert out.read_bytes() == first


def test_featurize_does_not_mutate_inputs(tmp_path, table_system):
    dataset = tmp_path / "systems.jsonl"
    save_dataset([table_system], dataset)
    before = dataset.read_bytes()
    run(["featurize", "--in", str(dataset), "--out",
         str(tmp_path / "c.jsonl"), "--format", "s3"])
    assert dataset.read_bytes() == before


def test_build_vocab_cli(tmp_path, table_system):
    dataset = tmp_path / "systems.jsonl"
    save_dataset([table_system], dataset)
    corpus = tmp_path / "corpus.jsonl"
    vocab_path = tmp_path / "vocab.txt"
    run(["featurize", "--in", str(dataset), "--out", str(corpus), "--format", "s4"])
    assert run(["build-vocab", "--in", str(corpus),
                "--out", str(vocab_path)]) == EXIT_OK
    vocab = Vocabulary.load(vocab_path)
    for token in ("NH3", "VCr3", "bridge", "[", "]", "(", ")"):
        assert token in vocab.token_to_id


def test_config_file_overrides_flags(tmp_path, table_system):
    dataset = tmp_path / "systems.jsonl"
    save_dataset([table_system], dataset)
    out = tmp_path / "corpus.jsonl"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"format": "s1"}))
    run(["featurize", "--in", str(dataset), "--out", str(out),
         "--format", "s4", "--config", str(config)])
    (record,) = read_corpus(out)
    assert record.text == REFERENCE_TEXTS["S1"]


def test_config_file_coerces_path_options(tmp_path, table_system):
    dataset = tmp_path / "systems.jsonl"
    save_dataset([table_system], dataset)
    out = tmp_path / "from_config.jsonl"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"out": str(out)}))
    assert run(["featurize", "--in", str(dataset),
                "--out", str(tmp_path / "ignored.jsonl"), "--format", "s1",
                "--config", str(config)]) == EXIT_OK
    assert out.exists()


def test_config_file_rejects_unknown_keys(tmp_path, table_system):
    dataset = tmp_path / "systems.jsonl"
    save_dataset([table_system], dataset)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"frobnicate": 1}))
    code = run(["featurize", "--in", str(dataset),
                "--out", str(tmp_path / "c.jsonl"), "--format", "s4",
                "--config", str(config)])
    assert code == EXIT_USER_ERROR


def test_seed_env_var_overrides(tmp_path, table_system, monkeypatch):
    dataset = tmp_path / "systems.jsonl"
    save_dataset([table_system], dataset)
    out = tmp_path / "corpus.jsonl"
    monkeypatch.setenv("ADSORBTEXT_SEED", "777")
    run(["featurize", "--in", str(dataset), "--out", str(out),
         "--format", "s4", "--seed", "3"])
    manifest = json.loads((tmp_path / "corpus.jsonl.manifest.json").read_text())
    assert manifest["seed"] == 777


def test_smoke_produces_all_artifacts(tmp_path):
    report = end_to_end_smoke(SmokeConfig(out_dir=tmp_path / "run"))
    assert [s["stage"] for s in report["stages"]] == [
        "featurize", "build-vocab", "pretrain", "train", "predict",
        "eval", "pairs", "attention", "embeddings"]
    assert len(report["artifacts"]) == 9
    for path in report["artifacts"].values():
        assert Path(path).exists()


def test_smoke_corrupted_intermediate_names_stage(tmp_path):
    out = tmp_path / "run"
    dataset = tmp_path / "broken.jsonl"
    dataset.write_text('{"id": "x", "oops": true}\n')
    with pytest.raises(SmokeStageError, match="stage featurize"):
        end_to_end_smoke(SmokeConfig(out_dir=out, dataset=dataset))


def test_eval_and_pairs_cli(tmp_path):
    out = tmp_path / "run"
    end_to_end_smoke(SmokeConfig(out_dir=out))
    mae_lines = (out / "eval" / "mae_report.tsv").read_text().strip().split("\n")
    assert mae_lines[0] == "split\tmae\tcount"
    splits = {line.split("\t")[0] for line in mae_lines[1:]}
    assert "total" in splits
    pairs_text = (out / "pairs" / "pairs_report.tsv").read_text()
    assert "chemically_similar" in pairs_text
    parity_files = list((out / "eval").glob("parity_*.tsv"))
    assert parity_files


def test_predict_unknown_system_is_user_error(tmp_path, table_system):
    out = tmp_path / "run"
    end_to_end_smoke(SmokeConfig(out_dir=out))
    other = tmp_path / "other.jsonl"
    save_dataset([table_system], other)
    code = run(["predict", "--systems", str(other),
                "--corpus", str(out / "corpus.jsonl"),
                "--vocab", str(out / "vocab.txt"),
                "--ckpt", str(out / "model.ckpt"),
                "--out", str(tmp_path / "p.tsv")])
    assert code == EXIT_USER_ERROR


def test_eval_rejects_unlabeled_prediction(tmp_path, capsys):
    systems = fixture_dataset(6)
    systems[3] = dataclasses.replace(systems[3], energy_ev=None)
    dataset, corpus, vocab_path = (tmp_path / n for n in ("s.jsonl", "c.jsonl", "v.txt"))
    save_dataset(systems, dataset)
    assert run(["featurize", "--in", str(dataset), "--out", str(corpus),
                "--format", "s1"]) == EXIT_OK
    assert run(["build-vocab", "--in", str(corpus), "--out", str(vocab_path)]) == EXIT_OK
    vocab = Vocabulary.load(vocab_path)
    model = init_model(EncoderConfig(vocab_size=len(vocab), n_layers=1, n_heads=1,
                                     hidden_size=8, max_positions=16))
    save_checkpoint(model, tmp_path / "m.ckpt", vocab_sha256=vocab.sha256)
    pred = tmp_path / "p.tsv"
    assert run(["predict", "--systems", str(dataset), "--corpus", str(corpus),
                "--vocab", str(vocab_path), "--ckpt", str(tmp_path / "m.ckpt"),
                "--out", str(pred)]) == EXIT_OK
    capsys.readouterr()
    assert run(["eval", "--pred", str(pred), "--out", str(tmp_path / "eval")]) \
        == EXIT_USER_ERROR
    err = capsys.readouterr().err
    assert f"p.tsv:5: {systems[3].id}" in err and "finite" in err


def test_attention_cli_selects_system(tmp_path):
    out = tmp_path / "run"
    end_to_end_smoke(SmokeConfig(out_dir=out))
    heat = tmp_path / "heat.tsv"
    code = run(["attention", "--systems", str(fixture_dataset_path()),
                "--vocab", str(out / "vocab.txt"),
                "--ckpt", str(out / "model.ckpt"),
                "--out", str(heat), "--id", "NH3_VCr3_210"])
    assert code == EXIT_OK
    body = heat.read_text()
    assert "NH3" in body and "bridge" in body
    code = run(["attention", "--systems", str(fixture_dataset_path()),
                "--vocab", str(out / "vocab.txt"),
                "--ckpt", str(out / "model.ckpt"),
                "--out", str(heat), "--id", "no-such-id"])
    assert code == EXIT_USER_ERROR
