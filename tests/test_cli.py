import dataclasses
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
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
from adsorbtext.pairs import read_predictions
from adsorbtext.synth import fixture_dataset
from adsorbtext.systems import SPLITS, save_dataset
from adsorbtext.tokens import Vocabulary
from conftest import REFERENCE_TEXTS, rewrite_checkpoint_manifest


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
    assert len(manifest["config_sha256"]) == 64


def test_featurize_has_no_threads_option(tmp_path, table_system):
    dataset = tmp_path / "systems.jsonl"
    save_dataset([table_system], dataset)
    argv = ["featurize", "--in", str(dataset), "--out", str(tmp_path / "c.jsonl"),
            "--format", "s4"]
    assert run(argv + ["--threads", "2"]) == EXIT_USER_ERROR
    assert run(argv) == EXIT_OK
    manifest = json.loads((tmp_path / "c.jsonl.manifest.json").read_text())
    assert "threads" not in manifest["config"]


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


def test_seed_only_on_subcommands_that_draw(tmp_path, table_system):
    dataset = tmp_path / "systems.jsonl"
    save_dataset([table_system], dataset)
    out = tmp_path / "corpus.jsonl"
    assert run(["featurize", "--in", str(dataset), "--out", str(out),
                "--format", "s4", "--seed", "3"]) == EXIT_USER_ERROR
    assert not out.exists()


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


def test_eval_rejects_split_outside_splits(tmp_path, capsys):
    pred = tmp_path / "p.tsv"
    pred.write_text("system_id\tsplit\tadsorbate_smiles\tbulk_formula\tlabel\tprediction\n"
                    "a\tID\tNH3\tPt\t-1.0\t-0.9\n"
                    "b\tval\tOH\tPt\t-0.5\t-0.7\n")
    out = tmp_path / "eval"
    assert run(["eval", "--pred", str(pred), "--out", str(out)]) == EXIT_USER_ERROR
    assert f"{pred}:3: split 'val' is not one of" in capsys.readouterr().err
    assert not out.exists()


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


def _write_with_energy(src: Path, dst: Path, lineno: int, energy: float) -> None:
    """Copy a JSON-lines file, setting energy_ev on line lineno (1-based)."""
    lines = src.read_text().splitlines()
    rec = json.loads(lines[lineno - 1])
    rec["energy_ev"] = energy
    lines[lineno - 1] = json.dumps(rec)
    dst.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("energy", [math.nan, math.inf, -math.inf])
def test_non_finite_energy_is_user_error(tmp_path, capsys, energy):
    systems = fixture_dataset(6)
    dataset, corpus, vocab_path = (tmp_path / n for n in ("s.jsonl", "c.jsonl", "v.txt"))
    save_dataset(systems, dataset)
    assert run(["featurize", "--in", str(dataset), "--out", str(corpus),
                "--format", "s1"]) == EXIT_OK
    assert run(["build-vocab", "--in", str(corpus), "--out", str(vocab_path)]) == EXIT_OK
    vocab = Vocabulary.load(vocab_path)
    model = init_model(EncoderConfig(vocab_size=len(vocab), n_layers=1, n_heads=1,
                                     hidden_size=8, max_positions=16))
    save_checkpoint(model, tmp_path / "m.ckpt", vocab_sha256=vocab.sha256)
    bad_dataset, bad_corpus = tmp_path / "bad_s.jsonl", tmp_path / "bad_c.jsonl"
    _write_with_energy(dataset, bad_dataset, 3, energy)
    _write_with_energy(corpus, bad_corpus, 3, energy)
    capsys.readouterr()

    assert run(["featurize", "--in", str(bad_dataset), "--out", str(tmp_path / "c2.jsonl"),
                "--format", "s1"]) == EXIT_USER_ERROR
    assert f"bad_s.jsonl:3: {systems[2].id}: energy_ev must be finite" in capsys.readouterr().err
    assert run(["predict", "--systems", str(bad_dataset), "--corpus", str(corpus),
                "--vocab", str(vocab_path), "--ckpt", str(tmp_path / "m.ckpt"),
                "--out", str(tmp_path / "p.tsv")]) == EXIT_USER_ERROR
    assert f"bad_s.jsonl:3: {systems[2].id}: energy_ev must be finite" in capsys.readouterr().err
    assert run(["train", "--corpus", str(bad_corpus), "--vocab", str(vocab_path),
                "--out", str(tmp_path / "m2.ckpt"), "--train-split", "train"]) == EXIT_USER_ERROR
    assert f"bad_c.jsonl:3: {systems[2].id}: energy_ev must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("line", ['[1, 2]', '{"system_id": "x", "format": "S1", "text": "t", '
                                          '"energy_ev": "1.0"}'])
def test_malformed_corpus_record_is_user_error(tmp_path, capsys, line):
    corpus = tmp_path / "c.jsonl"
    corpus.write_text(line + "\n")
    assert run(["build-vocab", "--in", str(corpus), "--out", str(tmp_path / "v.txt")]) \
        == EXIT_USER_ERROR
    assert "c.jsonl:1: bad corpus record" in capsys.readouterr().err


def _attention_on_saved_checkpoint(tmp_path) -> tuple[list[str], Path]:
    """argv of an `attention` run that succeeds on the checkpoint it returns."""
    systems = fixture_dataset(4)
    dataset, corpus, vocab_path = (tmp_path / n for n in ("s.jsonl", "c.jsonl", "v.txt"))
    save_dataset(systems, dataset)
    assert run(["featurize", "--in", str(dataset), "--out", str(corpus),
                "--format", "s4"]) == EXIT_OK
    assert run(["build-vocab", "--in", str(corpus), "--out", str(vocab_path)]) == EXIT_OK
    vocab = Vocabulary.load(vocab_path)
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(init_model(EncoderConfig(vocab_size=len(vocab), n_layers=1, n_heads=1,
                                             hidden_size=8, max_positions=128)),
                    ckpt, vocab_sha256=vocab.sha256)
    argv = ["attention", "--systems", str(dataset), "--vocab", str(vocab_path),
            "--ckpt", str(ckpt), "--out", str(tmp_path / "heat.tsv"), "--format", "s4"]
    assert run(argv) == EXIT_OK
    return argv, ckpt


def test_attention_checkpoint_missing_manifest_key(tmp_path, capsys):
    argv, ckpt = _attention_on_saved_checkpoint(tmp_path)
    rewrite_checkpoint_manifest(ckpt, lambda m: m["params"][0].pop("shape"))
    capsys.readouterr()
    assert run(argv) == EXIT_USER_ERROR
    assert "m.ckpt: manifest params[0] has no key 'shape'" in capsys.readouterr().err


def test_attention_checkpoint_renamed_tensor(tmp_path, capsys):
    argv, ckpt = _attention_on_saved_checkpoint(tmp_path)
    rewrite_checkpoint_manifest(ckpt, lambda m: m["params"][2].update(name="layer0.query"))
    capsys.readouterr()
    assert run(argv) == EXIT_USER_ERROR
    assert "m.ckpt: tensor 'layer0.query' is not in the layout" in capsys.readouterr().err


def _oc20_size_predictions(path: Path, rng) -> dict[str, list[tuple[int, int, float]]]:
    """About 100k prediction records in four OC20-validation-size splits, 82
    adsorbates and 11,500 bulks; returns (adsorbate, bulk, error) per split."""
    sizes = {"ID": 24943, "OOD_ads": 24961, "OOD_cat": 24963, "OOD_both": 24987}
    lines = ["system_id\tsplit\tadsorbate_smiles\tbulk_formula\tlabel\tprediction\n"]
    columns = {}
    for split, n in sizes.items():
        ads, bulk = rng.integers(82, size=n), rng.integers(11500, size=n)
        label = np.round(rng.normal(0.0, 1.0, n), 4)
        pred = np.round(label + 0.3 * rng.normal(size=82)[ads] + rng.normal(0.0, 0.4, n), 4)
        columns[split] = list(zip(ads.tolist(), bulk.tolist(), (pred - label).tolist()))
        lines += [f"{split}-{i}\t{split}\tads{a}\tbulk{b}\t{y!r}\t{p!r}\n" for i, (a, b, y, p)
                  in enumerate(zip(ads.tolist(), bulk.tolist(), label.tolist(), pred.tolist()))]
    path.write_text("".join(lines))
    return columns


def _report_rows(path: Path) -> dict[tuple[str, str], list[str]]:
    lines = path.read_text().split("\n\n")[0].splitlines()
    return {(f[0], f[4]): f for f in (line.split("\t") for line in lines[1:])}


def _expected_counts(records: list[tuple[int, int, float]]) -> dict[str, int]:
    def pairs(counter):
        return sum(c * (c - 1) // 2 for c in counter.values())
    ads = pairs(Counter(a for a, _, _ in records))
    bulk = pairs(Counter(b for _, b, _ in records))
    both = pairs(Counter((a, b) for a, b, _ in records))
    return {"total": len(records) * (len(records) - 1) // 2, "sharing_one": ads + bulk - 2 * both,
            "sharing_two": both, "chemically_similar": ads + bulk - both}


def test_pairs_cli_at_oc20_size(tmp_path, rng):
    pred = tmp_path / "predictions.tsv"
    columns = _oc20_size_predictions(pred, rng)
    everything = [rec for split in columns.values() for rec in split]
    for flag, groups in (([], columns), (["--across-splits"], {"all": everything})):
        report = tmp_path / ("across" if flag else "within")
        assert run(["pairs", "--pred", str(pred), "--report", str(report)] + flag) == EXIT_OK
        rows = _report_rows(report / "pairs_report.tsv")
        assert {split for split, _ in rows} == set(groups)
        for split, records in groups.items():
            n = len(records)
            assert rows[split, "total"][1:3] == [str(n), str(n * (n - 1) // 2)]
            for name, count in _expected_counts(records).items():
                assert int(rows[split, name][5]) == count, (split, name)
            errors = np.array([e for _, _, e in records])
            want = math.sqrt(n * ((errors - errors.mean()) ** 2).sum() / (n * (n - 1) // 2))
            assert float(rows[split, "total"][3]) == pytest.approx(want, rel=1e-12)


def test_eval_at_oc20_size(tmp_path, rng):
    pred = tmp_path / "predictions.tsv"
    _oc20_size_predictions(pred, rng)
    assert run(["eval", "--pred", str(pred), "--out", str(tmp_path / "eval")]) == EXIT_OK
    # reference: a plain loop over the records of each split, in file order
    records = read_predictions(pred)
    by_split = {}
    for r in records:
        by_split.setdefault(r.split, []).append(r)

    def mae(rows):
        return sum(abs(r.prediction - r.label) for r in rows) / len(rows)

    splits = [s for s in SPLITS if s in by_split]
    assert len(records) == 99854 and len(splits) == 4
    report = "split\tmae\tcount\n" + "".join(
        f"{s}\t{mae(by_split[s])!r}\t{len(by_split[s])}\n" for s in splits)
    report += f"total\t{mae(records)!r}\t{len(records)}\n"
    assert (tmp_path / "eval" / "mae_report.tsv").read_text() == report
    assert sorted(p.name for p in (tmp_path / "eval").glob("parity_*.tsv")) == sorted(
        f"parity_{s}.tsv" for s in splits)
    for s in splits:
        rows = by_split[s]
        parity = f"# split={s} n={len(rows)} mae={mae(rows)!r}\nlabel\tprediction\n"
        parity += "".join(f"{r.label!r}\t{r.prediction!r}\n" for r in rows)
        assert (tmp_path / "eval" / f"parity_{s}.tsv").read_text() == parity
