import dataclasses
import inspect
import json
import math
import os
import platform
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from adsorbtext.analysis import export_embeddings
from adsorbtext.cli import (
    EXIT_OK,
    EXIT_USER_ERROR,
    SmokeConfig,
    SmokeStageError,
    _blas_core,
    _model_config,
    _run_config,
    build_parser,
    end_to_end_smoke,
    fixture_dataset_path,
    run,
)
from adsorbtext.encoder import EncoderConfig, init_model, save_checkpoint
from adsorbtext.featurize import FORMATS, read_corpus
from adsorbtext.pairs import read_predictions
from adsorbtext.synth import fixture_dataset
from adsorbtext.systems import SPLITS, save_dataset
from adsorbtext.tokens import N_SPECIALS, Vocabulary
from adsorbtext.trainer import INFERENCE_BATCH_SIZE, TrainRunConfig, predict_energies
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


def test_featurize_writes_manifest(tmp_path, table_system, monkeypatch):
    dataset = tmp_path / "systems.jsonl"
    save_dataset([table_system], dataset)
    out = tmp_path / "corpus.jsonl"
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    run(["featurize", "--in", str(dataset), "--out", str(out), "--format", "s4"])
    manifest = json.loads((tmp_path / "corpus.jsonl.manifest.json").read_text())
    assert manifest["command"] == "featurize"
    assert manifest["version"]
    assert len(manifest["config_sha256"]) == 64
    for key in ("wall_time_s", "peak_rss_mb"):
        value = manifest[key]
        assert isinstance(value, float) and math.isfinite(value) and value > 0, key
    assert isinstance(manifest["minor_faults"], int) and manifest["minor_faults"] >= 0
    # float results depend on these; outside the config, so config_sha256 keeps its value
    environment = manifest["environment"]
    assert set(environment) == {"numpy", "python", "cpus", "blas_core", "threads"}
    assert environment["numpy"] == np.__version__
    assert environment["python"] == platform.python_version()
    assert environment["cpus"] == os.cpu_count()
    core = environment["blas_core"]  # numpy's OpenBLAS kernel, such as "SkylakeX"
    assert core is None or (isinstance(core, str) and core)
    threads = environment["threads"]
    assert threads["OPENBLAS_NUM_THREADS"] == "1" and threads["OMP_NUM_THREADS"] is None
    assert threads == {var: os.environ.get(var) for var in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")}
    assert "environment" not in manifest["config"]


def test_blas_core_is_none_without_bundled_openblas(tmp_path, monkeypatch):
    monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
    assert _blas_core.__wrapped__() is None  # the uncached lookup


def test_featurize_has_no_threads_option(tmp_path, table_system):
    dataset = tmp_path / "systems.jsonl"
    save_dataset([table_system], dataset)
    argv = ["featurize", "--in", str(dataset), "--out", str(tmp_path / "c.jsonl"),
            "--format", "s4"]
    assert run(argv + ["--threads", "2"]) == EXIT_USER_ERROR
    assert run(argv) == EXIT_OK
    manifest = json.loads((tmp_path / "c.jsonl.manifest.json").read_text())
    assert "threads" not in manifest["config"]


def test_verbose_flag_is_gone(tmp_path, table_system):
    # it only set a DEBUG level that no module logs at, and entered every manifest
    dataset = tmp_path / "systems.jsonl"
    save_dataset([table_system], dataset)
    argv = ["featurize", "--in", str(dataset), "--out", str(tmp_path / "c.jsonl"),
            "--format", "s4"]
    assert run(argv + ["-v"]) == EXIT_USER_ERROR
    assert run(argv + ["--verbose"]) == EXIT_USER_ERROR
    assert run(argv) == EXIT_OK
    manifest = json.loads((tmp_path / "c.jsonl.manifest.json").read_text())
    assert "verbose" not in manifest["config"]


def test_history_times_step_phases(tmp_path, caplog):
    corpus, vocab = tmp_path / "corpus.jsonl", tmp_path / "vocab.txt"
    assert run(["featurize", "--in", str(fixture_dataset_path()), "--out", str(corpus),
                "--format", "s1"]) == EXIT_OK
    assert run(["build-vocab", "--in", str(corpus), "--out", str(vocab)]) == EXIT_OK
    records = read_corpus(corpus)
    flags = ["--layers", "1", "--heads", "1", "--hidden", "8", "--max-positions", "32",
             "--epochs", "2", "--lr", "1e-3"]
    for command, extra, n in (("pretrain", [], len(records)),
                              ("train", ["--patience", "2"],
                               sum(r.split == "train" for r in records))):
        history = tmp_path / f"{command}_history.tsv"
        caplog.clear()
        assert run([command, "--corpus", str(corpus), "--vocab", str(vocab),
                    "--out", str(tmp_path / f"{command}.ckpt"), "--history", str(history),
                    *flags, *extra]) == EXIT_OK
        rows = {}
        for line in history.read_text().splitlines():
            epoch, split, metric, value = line.split("\t")
            rows[int(epoch), metric] = (split, float(value))
        for epoch in (1, 2):
            phases = [rows[epoch, metric] for metric in ("forward_s", "backward_s", "optimizer_s")]
            assert all(split == "train" and value >= 0 for split, value in phases), command
            assert 0 < sum(value for _, value in phases) <= rows[epoch, "wall_time_s"][1], command
            split, norm = rows[epoch, "grad_norm_max"]
            assert split == "train" and 0 < norm < math.inf, command
            skipped = caplog.text.count(f"epoch {epoch}: batch at")  # pretrain's empty masks
            assert rows[epoch, "steps"] == ("train", -(-n // 12) - skipped), command
            if command == "train":
                split, seconds = rows[epoch, "validation_s"]
                assert split == "val" and 0 < seconds <= rows[epoch, "wall_time_s"][1]
            else:
                assert (epoch, "validation_s") not in rows


_TINY_MODEL = ["--layers", "1", "--heads", "1", "--hidden", "8", "--max-positions", "64",
               "--lr", "1e-3"]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """The fixture dataset's S4 corpus, its vocabulary, a one-epoch pre-norm
    model and its predictions. The model is pre-norm, as is the train run of
    the --config round trip, which --init-from seeds from it."""
    work = tmp_path_factory.mktemp("trained")
    paths = {"systems": str(fixture_dataset_path()), "corpus": str(work / "corpus.jsonl"),
             "vocab": str(work / "vocab.txt"), "ckpt": str(work / "model.ckpt"),
             "pred": str(work / "predictions.tsv")}
    for argv in (["featurize", "--in", paths["systems"], "--out", paths["corpus"],
                  "--format", "s4"],
                 ["build-vocab", "--in", paths["corpus"], "--out", paths["vocab"]],
                 ["train", "--corpus", paths["corpus"], "--vocab", paths["vocab"],
                  "--out", paths["ckpt"], "--epochs", "1", *_TINY_MODEL, "--pre-norm"],
                 ["predict", "--systems", paths["systems"], "--corpus", paths["corpus"],
                  "--vocab", paths["vocab"], "--ckpt", paths["ckpt"], "--out", paths["pred"]]):
        assert run(argv) == EXIT_OK, argv[0]
    return paths


@pytest.mark.parametrize("command,flag,value", [
    ("train", "--heads", "0"),
    ("train", "--dropout", "1.0"),
    ("train", "--dropout", "-0.5"),
    ("train", "--lr", "nan"),
    ("train", "--clip-norm", "-1"),
    ("train", "--clip-norm", "0"),
    ("train", "--epochs", "0"),
    ("pretrain", "--epochs", "0"),
    ("train", "--hidden", "0"),
    ("train", "--ffn", "0"),
    ("train", "--max-positions", "1"),
    ("train", "--layers", "-1"),
    ("train", "--seed", "-1"),
    ("train", "--weight-decay", "inf"),
    ("pretrain", "--mask-rate", "0"),
    ("predict", "--batch-size", "0"),
    ("embeddings", "--batch-size", "0"),
])
def test_invalid_setting_is_user_error_naming_its_flag(trained, tmp_path, capsys,
                                                       command, flag, value):
    inputs = {"train": ["--corpus", trained["corpus"], "--vocab", trained["vocab"],
                        "--epochs", "1", *_TINY_MODEL],
              "predict": ["--systems", trained["systems"], "--corpus", trained["corpus"],
                          "--vocab", trained["vocab"], "--ckpt", trained["ckpt"]],
              "embeddings": ["--systems", trained["systems"], "--vocab", trained["vocab"],
                             "--ckpt", trained["ckpt"]]}
    inputs["pretrain"] = inputs["train"]
    out = tmp_path / "out"
    assert run([command, *inputs[command], "--out", str(out), flag, value]) == EXIT_USER_ERROR
    assert f"error: {flag}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "pretrain"])
def test_model_and_run_flags_default_to_their_config_fields(command):
    args = build_parser().parse_args([command, "--corpus", "c.jsonl", "--vocab", "v.txt",
                                      "--out", "m.ckpt"])
    assert _model_config(args, 57) == EncoderConfig(vocab_size=57)
    assert _run_config(args) == TrainRunConfig()


def test_inference_batch_size_and_format_choices_have_one_definition():
    commands = build_parser().commands
    for command in ("predict", "embeddings"):
        assert commands[command].config_options()["batch-size"].default == INFERENCE_BATCH_SIZE
    for function in (predict_energies, export_embeddings):
        batch_size = inspect.signature(function).parameters["batch_size"]
        assert batch_size.default == INFERENCE_BATCH_SIZE
    formats = tuple(f.lower() for f in FORMATS)
    choices = {command: tuple(commands[command].config_options()["format"].choices)
               for command in ("featurize", "attention", "embeddings")}
    assert choices == {"featurize": formats, "embeddings": formats,
                       "attention": tuple(f for f in formats if f != "s1")}


# the trained fixture's checkpoint has 1 layer, 1 head, 8 hidden, 32 ffn, 64
# positions and pre-norm
@pytest.mark.parametrize("flags, named", [
    (["--pre-norm", "--layers", "2"], "--layers"),
    (["--pre-norm", "--heads", "2"], "--heads"),
    ([], "--pre-norm"),
    (["--pre-norm", "--hidden", "16"], "--hidden"),
    (["--pre-norm", "--ffn", "16"], "--ffn"),
    (["--pre-norm", "--max-positions", "80"], "--max-positions"),
])
def test_train_init_from_refuses_a_different_encoder(trained, tmp_path, capsys, flags, named):
    out = tmp_path / "model.ckpt"
    assert run(["train", "--corpus", trained["corpus"], "--vocab", trained["vocab"],
                "--out", str(out), "--init-from", trained["ckpt"], "--epochs", "1",
                *_TINY_MODEL, *flags]) == EXIT_USER_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}: ") and trained["ckpt"] in err, err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("edit", ["reordered", "one_longer"])
def test_train_init_from_refuses_another_vocabulary(trained, tmp_path, capsys, edit):
    """A vocabulary of the checkpoint's size in another order misreads the
    token embeddings as surely as one of another size."""
    vocab = Vocabulary.load(trained["vocab"])
    tokens = vocab.id_to_token[N_SPECIALS:]
    tokens = tokens[::-1] if edit == "reordered" else [*tokens, "extra"]
    other = tmp_path / "vocab.txt"
    Vocabulary(vocab.id_to_token[:N_SPECIALS] + tokens).save(other)
    out = tmp_path / "model.ckpt"
    assert run(["train", "--corpus", trained["corpus"], "--vocab", str(other),
                "--out", str(out), "--init-from", trained["ckpt"], "--epochs", "1",
                *_TINY_MODEL, "--pre-norm"]) == EXIT_USER_ERROR
    err = capsys.readouterr().err
    assert err == _another_vocabulary_error(trained["ckpt"], vocab, vocab.sha256,
                                            Vocabulary.load(other)), err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["vocab.txt"]


def _another_vocabulary_error(ckpt, vocab: Vocabulary, recorded: str | None,
                              other: Vocabulary) -> str:
    """The error of a checkpoint built on vocab, recording the hash recorded,
    read with other."""
    return (f"error: {ckpt}: built on another vocabulary ({len(vocab)} tokens, sha256 "
            f"{str(recorded)[:12]}) than the one given ({len(other)} tokens, sha256 "
            f"{other.sha256[:12]})\n")


@pytest.mark.parametrize("command", ["predict", "attention", "embeddings", "train"])
@pytest.mark.parametrize("edit", ["reordered", "three_short"])
def test_checkpoint_read_with_another_vocabulary_is_user_error(trained, tmp_path, capsys,
                                                               command, edit):
    """Every command that reads a checkpoint refuses another vocabulary before
    it writes anything: a reordered one by its hash, and one 3 tokens short by
    its size, here on a checkpoint that records no hash."""
    vocab = Vocabulary.load(trained["vocab"])
    ckpt = tmp_path / "m.ckpt"
    ckpt.write_bytes(Path(trained["ckpt"]).read_bytes())
    if edit == "reordered":
        other = Vocabulary(vocab.id_to_token[:N_SPECIALS] + vocab.id_to_token[N_SPECIALS:][::-1])
        recorded = vocab.sha256
    else:
        other = Vocabulary(vocab.id_to_token[:-3])
        rewrite_checkpoint_manifest(ckpt, lambda m: m.update(vocab_sha256=None))
        recorded = None
    other.save(tmp_path / "vocab.txt")
    inputs = {"predict": ["--systems", trained["systems"], "--corpus", trained["corpus"],
                          "--ckpt", str(ckpt)],
              "attention": ["--systems", trained["systems"], "--ckpt", str(ckpt)],
              "embeddings": ["--systems", trained["systems"], "--ckpt", str(ckpt)],
              "train": ["--corpus", trained["corpus"], "--init-from", str(ckpt), "--epochs", "1",
                        *_TINY_MODEL, "--pre-norm"]}
    assert run([command, *inputs[command], "--vocab", str(tmp_path / "vocab.txt"),
                "--out", str(tmp_path / "out" / "result")]) == EXIT_USER_ERROR
    assert capsys.readouterr().err == _another_vocabulary_error(ckpt, vocab, recorded, other)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt", "vocab.txt"]


def test_train_init_from_takes_another_dtype_dropout_and_head(trained, tmp_path, caplog):
    out = tmp_path / "model.ckpt"
    with caplog.at_level("INFO", logger="adsorbtext"):
        assert run(["train", "--corpus", trained["corpus"], "--vocab", trained["vocab"],
                    "--out", str(out), "--init-from", trained["ckpt"], "--epochs", "1",
                    *_TINY_MODEL, "--pre-norm", "--dtype", "float32", "--dropout", "0",
                    "--head-activation", "gelu"]) == EXIT_OK
    assert "train: seeded 18 tensors" in caplog.text  # every tensor but the 4 of the head


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # lr 1e30 overflows on purpose
def test_diverging_run_is_user_error(trained, tmp_path, capsys):
    out = tmp_path / "model.ckpt"
    assert run(["train", "--corpus", trained["corpus"], "--vocab", trained["vocab"],
                "--out", str(out), "--epochs", "1", *_TINY_MODEL, "--lr", "1e30"]) \
        == EXIT_USER_ERROR
    assert capsys.readouterr().err.startswith("error: non-finite gradient in ")
    assert list(tmp_path.iterdir()) == []  # no checkpoint, history or manifest


def test_featurize_idempotent(tmp_path, table_system):
    dataset = tmp_path / "systems.jsonl"
    save_dataset([table_system], dataset)
    out = tmp_path / "corpus.jsonl"
    run(["featurize", "--in", str(dataset), "--out", str(out), "--format", "s4"])
    first = out.read_bytes()
    run(["featurize", "--in", str(dataset), "--out", str(out), "--format", "s4"])
    assert out.read_bytes() == first


@pytest.mark.parametrize("tolerance", ["nan", "inf"])
def test_featurize_refuses_non_finite_cutoff_tolerance(tmp_path, capsys, tolerance):
    out = tmp_path / "corpus.jsonl"
    assert run(["featurize", "--in", str(fixture_dataset_path()), "--out", str(out),
                "--format", "s4", "--cutoff-tolerance", tolerance]) == EXIT_USER_ERROR
    assert capsys.readouterr().err == (f"error: cutoff_tolerance must be finite and >= 0, "
                                       f"got {float(tolerance)!r}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("tolerance", ["nan", "inf"])
def test_featurize_s1_refuses_non_finite_cutoff_tolerance(tmp_path, capsys, tolerance):
    # S1 detects no configuration, yet its flag value is checked all the same
    out = tmp_path / "corpus.jsonl"
    assert run(["featurize", "--in", str(fixture_dataset_path()), "--out", str(out),
                "--format", "s1", "--cutoff-tolerance", tolerance]) == EXIT_USER_ERROR
    assert capsys.readouterr().err == (f"error: cutoff_tolerance must be finite and >= 0, "
                                       f"got {float(tolerance)!r}\n")
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("command, config, named", [
    ("train", {"lr": "1e-3"}, "--lr"),
    ("train", {"epochs": 1.5}, "--epochs"),
    ("train", {"batch_size": "4"}, "--batch-size"),
    ("predict", {"batch_size": "4"}, "--batch-size"),
    ("train", {"max_positions": 64.0}, "--max-positions"),
    ("train", {"clip_norm": "x"}, "--clip-norm"),
    ("train", {"out": 5}, "--out"),
    ("train", {"history": 3}, "--history"),
    ("train", {"pre_norm": "no"}, "--pre-norm"),
    ("train", {"layers": True}, "--layers"),
    ("train", {"command": "eval"}, "'command'"),
    ("train", {"config": "x.json"}, "'config'"),
    ("train", {"help": True}, "'help'"),
    ("train", {"inp": "corpus.jsonl"}, "'inp'"),  # a destination, not a flag
    ("train", {"dtype": "float16"}, "--dtype"),
    ("train", {"lr": None}, "--lr"),  # null only where the default is none
    ("train", {"train-split": None}, "--train-split"),
    ("train", {"batch-size": 4, "batch_size": 4}, "--batch-size"),
])
def test_config_file_refuses_values_its_flags_refuse(trained, tmp_path, capsys,
                                                     command, config, named):
    inputs = {"train": ["--corpus", trained["corpus"], "--vocab", trained["vocab"],
                        "--epochs", "1", *_TINY_MODEL],
              "predict": ["--systems", trained["systems"], "--corpus", trained["corpus"],
                          "--vocab", trained["vocab"], "--ckpt", trained["ckpt"]]}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert run([command, *inputs[command], "--out", str(tmp_path / "out"),
                "--config", str(config_path)]) == EXIT_USER_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config_path}: ") and named in err, err
    assert list(tmp_path.iterdir()) == [config_path]  # no output, manifest or history


# Each subcommand's command line with every option but --config set, away
# from its default where it has other values; the round trip below fails
# for an option missing here.
_MODEL_RUN = ["--layers", "1", "--heads", "1", "--hidden", "8", "--ffn", "32",
              "--max-positions", "64", "--dropout", "0.05", "--head-activation", "gelu",
              "--pre-norm", "--dtype", "float32", "--seed", "3", "--epochs", "1",
              "--batch-size", "8", "--lr", "1e-3", "--weight-decay", "0",
              "--clip-norm", "2"]  # integral text for float flags: JSON 2 must mean 2.0


def _every_option(command: str, trained: dict, work: Path) -> list[str]:
    cache = work / "desc_cache.json"
    cache.write_text(json.dumps({"adsorbates": {"NH3": "ads prose"}}))
    systems, corpus, vocab = trained["systems"], trained["corpus"], trained["vocab"]
    model = ["--systems", systems, "--vocab", vocab, "--ckpt", trained["ckpt"]]
    return {
        "featurize": ["--in", systems, "--out", str(work / "corpus.jsonl"), "--format", "desc",
                      "--cutoff-tolerance", "0.3", "--desc-cache", str(cache)],
        "build-vocab": ["--in", corpus, "--out", str(work / "vocab.txt"), "--min-freq", "2"],
        "pretrain": ["--corpus", corpus, "--vocab", vocab, "--out", str(work / "pre.ckpt"),
                     "--mask-rate", "0.3", "--untied-mlm", "--history",
                     str(work / "history.tsv"), *_MODEL_RUN],
        "train": ["--corpus", corpus, "--vocab", vocab, "--out", str(work / "model.ckpt"),
                  "--init-from", trained["ckpt"], "--train-split", "ID",
                  "--history", str(work / "history.tsv"), "--patience", "2", *_MODEL_RUN],
        "predict": ["--corpus", corpus, *model, "--out", str(work / "pred.tsv"),
                    "--batch-size", "5"],
        "eval": ["--pred", trained["pred"], "--out", str(work / "eval")],
        "attention": [*model, "--out", str(work / "attention.tsv"), "--format", "s5",
                      "--id", "NH3_VCr3_210"],
        "embeddings": [*model, "--out", str(work / "embeddings.tsv"), "--format", "s1",
                       "--batch-size", "5"],
        "pairs": ["--pred", trained["pred"], "--report", str(work / "pairs"),
                  "--across-splits"],
    }[command]


def _run_output(out: Path) -> tuple[str, bytes | None]:
    """config_sha256 of the run that wrote out, and out's bytes if a file."""
    manifest = out / "manifest.json" if out.is_dir() else out.with_name(
        out.name + ".manifest.json")
    sha = json.loads(manifest.read_text())["config_sha256"]
    return sha, None if out.is_dir() else out.read_bytes()


@pytest.mark.parametrize("command", ["featurize", "build-vocab", "pretrain", "train",
                                     "predict", "eval", "attention", "embeddings", "pairs"])
def test_config_file_round_trips_every_flag(trained, tmp_path, command):
    options = build_parser().commands[command].config_options()
    argv, config = _every_option(command, trained, tmp_path), {}
    rest = iter(argv)
    for arg in rest:  # each flag's own text, as JSON where the flag takes a number
        action = options[arg[2:]]
        text = True if action.nargs == 0 else next(rest)
        config[arg[2:]] = json.loads(text) if action.type in (int, float) else text
    assert config.keys() == options.keys()
    out = Path(config["report" if command == "pairs" else "out"])
    assert run([command, *argv]) == EXIT_OK
    expected = _run_output(out)

    # required flags still come from the command line; the file overrides them
    required = []
    for flag, action in options.items():
        if action.required:
            other = (next(c for c in action.choices if c != config[flag])
                     if action.choices else str(tmp_path / "elsewhere"))
            required += [f"--{flag}", other]
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert run([command, *required, "--config", str(config_path)]) == EXIT_OK
    assert _run_output(out) == expected
    assert not (tmp_path / "elsewhere").exists()


def test_config_file_switch_false_overrides_flag(trained, tmp_path):
    out = tmp_path / "model.ckpt"
    argv = ["train", "--corpus", trained["corpus"], "--vocab", trained["vocab"],
            "--out", str(out), "--epochs", "1", *_TINY_MODEL]
    assert run(argv) == EXIT_OK
    post_norm = _run_output(out)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"pre_norm": False}))
    assert run([*argv, "--pre-norm", "--config", str(config_path)]) == EXIT_OK
    assert _run_output(out) == post_norm


@pytest.mark.parametrize("cache, message", [
    ({"adsorbates": [1, 2]}, "'adsorbates' must be a JSON object"),
    ({"adsorbates": {"NH3": 5}}, "adsorbates\\['NH3'\\] must be a string, got 5"),
    ({"catalysts": {"VCr3": ["x"]}}, "catalysts\\['VCr3'\\] must be a string, got \\[\"x\"\\]"),
    ({"adsorbates": "abc"}, "'adsorbates' must be a JSON object"),
])
def test_featurize_refuses_malformed_description_cache(tmp_path, capsys, cache, message):
    cache_path = tmp_path / "cache.json"
    cache_path.write_text(json.dumps(cache))
    out = tmp_path / "corpus.jsonl"
    assert run(["featurize", "--in", str(fixture_dataset_path()), "--out", str(out),
                "--format", "desc", "--desc-cache", str(cache_path)]) == EXIT_USER_ERROR
    assert re.search(f"^error: {re.escape(str(cache_path))}: {message}",
                     capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("field", ["id", "adsorbate_smiles", "bulk_formula"])
@pytest.mark.parametrize("char", ["\t", "\n", "\r"])
def test_featurize_refuses_tab_or_line_break_in_text_fields(tmp_path, capsys, field, char):
    # predict and embeddings write these fields into TSV files
    records = [s.to_record() for s in fixture_dataset(3)]
    records[1][field] = records[1][field][:2] + char + records[1][field][2:]
    dataset, out = tmp_path / "systems.jsonl", tmp_path / "corpus.jsonl"
    dataset.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert run(["featurize", "--in", str(dataset), "--out", str(out),
                "--format", "s4"]) == EXIT_USER_ERROR
    value = records[1][field]
    assert (f"error: {dataset}:2: {field} {value!r} holds a tab or line break"
            in capsys.readouterr().err)
    assert not out.exists()


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
    written = json.loads((tmp_path / "run" / "smoke_report.json").read_text())
    assert written == report


def test_smoke_config_holds_only_what_callers_set():
    assert [f.name for f in dataclasses.fields(SmokeConfig)] == [
        "out_dir", "dataset", "seed", "train_epochs"]


def test_smoke_history_times_every_op_of_each_epoch(tmp_path):
    end_to_end_smoke(SmokeConfig(out_dir=tmp_path / "run", train_epochs=2))
    rows = {}
    for line in (tmp_path / "run" / "history.tsv").read_text().splitlines():
        epoch, split, metric, value = line.split("\t")
        rows.setdefault(int(epoch), {})[metric] = (split, float(value))
    step_ops = {"add", "attention", "embedding", "gelu", "l1_loss", "layer_norm", "linear",
                "reshape", "take", "tanh"}  # post-norm, tanh head, no dropout
    assert sorted(rows) == [1, 2]
    for epoch, metrics in rows.items():
        per_op = {m: v for m, v in metrics.items() if m.endswith("_ms_per_step")}
        assert set(per_op) == {f"{op}_{phase}_ms_per_step"
                               for op in step_ops for phase in ("fwd", "bwd")}, epoch
        assert all(split == "train" and value > 0 for split, value in per_op.values()), epoch
        slowest = max(per_op, key=lambda m: per_op[m][1])  # the history names its slowest op
        assert slowest.rsplit("_", 4)[0] in step_ops


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


def test_predict_unknown_system_is_user_error(tmp_path, table_system, monkeypatch, capsys):
    out = tmp_path / "run"
    end_to_end_smoke(SmokeConfig(out_dir=out))
    other = tmp_path / "other.jsonl"
    save_dataset([table_system], other)

    def predict_energies(*args, **kwargs):
        raise AssertionError("the model ran before the corpus ids were checked")

    monkeypatch.setattr("adsorbtext.cli.predict_energies", predict_energies)
    capsys.readouterr()
    code = run(["predict", "--systems", str(other),
                "--corpus", str(out / "corpus.jsonl"),
                "--vocab", str(out / "vocab.txt"),
                "--ckpt", str(out / "model.ckpt"),
                "--out", str(tmp_path / "p.tsv")])
    assert code == EXIT_USER_ERROR
    first = next(r.system_id for r in read_corpus(out / "corpus.jsonl")
                 if r.system_id != table_system.id)
    assert capsys.readouterr().err == f"error: {first}: not present in {other}\n"
    assert not (tmp_path / "p.tsv").exists()


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


@pytest.mark.parametrize("flag", [[], ["--across-splits"]], ids=["within", "across"])
def test_pairs_rejects_file_without_records(tmp_path, capsys, flag):
    pred = tmp_path / "p.tsv"
    pred.write_text("system_id\tsplit\tadsorbate_smiles\tbulk_formula\tlabel\tprediction\n")
    report = tmp_path / "pairs"
    assert run(["pairs", "--pred", str(pred), "--report", str(report)] + flag) \
        == EXIT_USER_ERROR
    assert capsys.readouterr().err == "error: no prediction records\n"
    assert not report.exists()


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


def test_attention_on_an_empty_dataset_is_user_error(trained, tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert run(["attention", "--systems", str(empty), "--vocab", trained["vocab"],
                "--ckpt", trained["ckpt"], "--out", str(tmp_path / "heat.tsv")]) \
        == EXIT_USER_ERROR
    assert capsys.readouterr().err == f"error: no system in {empty}\n"


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


_POSITION = "atom 0 position must be 3 real numbers within float range, got ["
_CELL_ROW = "cell row 1 must be 3 real numbers within float range, got ["


@pytest.mark.parametrize("keys,raw,message", [
    pytest.param(("atoms", 0, "tag"), "1.5", "tag must be the integer 0, 1 or 2, got 1.5",
                 id="tag-float"),
    pytest.param(("atoms", 0, "tag"), "true", "tag must be the integer 0, 1 or 2, got True",
                 id="tag-bool"),
    pytest.param(("atoms", 0, "tag"), "1e999", "tag must be the integer 0, 1 or 2, got inf",
                 id="tag-overflow"),
    pytest.param(("miller_index", 1), "1.5", "{id}: miller_index must be an integer triple",
                 id="miller-float"),
    pytest.param(("miller_index", 1), "1e999", "{id}: miller_index must be an integer triple",
                 id="miller-overflow"),
    pytest.param(("energy_ev",), "true", "{id}: energy_ev must be a number, got True",
                 id="energy-bool"),
    pytest.param(("id",), "{}", "id must be a string, got {{}}", id="id-object"),
    pytest.param(("adsorbate_smiles",), "7", "adsorbate_smiles must be a string, got 7",
                 id="smiles-number"),
    pytest.param(("bulk_formula",), "null", "bulk_formula must be a string, got None",
                 id="formula-null"),
    pytest.param(("split",), "3", "split must be a string, got 3", id="split-number"),
    pytest.param(("atoms", 0, "position", 1), '"1.5"', _POSITION, id="position-string"),
    pytest.param(("atoms", 0, "position", 1), "true", _POSITION, id="position-bool"),
    pytest.param(("atoms", 0, "position", 1), "1" + "0" * 400, _POSITION,
                 id="position-overflow"),
    pytest.param(("atoms", 0, "position"), "[1.0, 2.0]", _POSITION, id="position-short"),
    pytest.param(("cell", 1, 2), '"1.5"', _CELL_ROW, id="cell-string"),
    pytest.param(("cell", 1), "[1.0, 2.0]", _CELL_ROW, id="cell-row-short"),
    pytest.param(("cell",), "[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]", "cell must be 3 rows",
                 id="cell-two-rows"),
    pytest.param(("cell", 0, 0), "NaN", "{id}: cell must be finite", id="cell-nan"),
])
def test_dataset_record_of_a_wrong_type_is_user_error(tmp_path, capsys, table_system,
                                                       keys, raw, message):
    rec = table_system.to_record()
    target = rec
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = "@raw@"
    dataset = tmp_path / "s.jsonl"
    dataset.write_text(json.dumps(table_system.to_record()) + "\n"
                       + json.dumps(rec).replace('"@raw@"', raw) + "\n")
    assert run(["featurize", "--in", str(dataset), "--out", str(tmp_path / "c.jsonl"),
                "--format", "s1"]) == EXIT_USER_ERROR
    assert f"s.jsonl:2: {message.format(id=table_system.id)}" in capsys.readouterr().err


@pytest.mark.parametrize("key,raw", [
    pytest.param("system_id", "[]", id="system_id"),
    pytest.param("format", "1", id="format"),
    pytest.param("text", "0", id="text"),
    pytest.param("text", "1e999", id="text-overflow"),
    pytest.param("split", "3", id="split"),
    pytest.param("energy_ev", "true", id="energy_ev"),
])
def test_corpus_record_of_a_wrong_type_is_user_error(tmp_path, capsys, key, raw):
    rec = {"system_id": "x", "format": "S1", "text": "<s>N</s>", "energy_ev": 1.0,
           "split": "train", key: "@raw@"}
    corpus = tmp_path / "c.jsonl"
    corpus.write_text(json.dumps(rec).replace('"@raw@"', raw) + "\n")
    assert run(["build-vocab", "--in", str(corpus), "--out", str(tmp_path / "v.txt")]) \
        == EXIT_USER_ERROR
    requirement = "a number or null" if key == "energy_ev" else "a string"
    assert (f"c.jsonl:1: bad corpus record ({key} must be {requirement}, "
            f"got {json.loads(raw)!r})") in capsys.readouterr().err


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


@pytest.mark.parametrize("edit, message", [
    (lambda m: m.pop("params"), "manifest has no key 'params'"),
    (lambda m: m.pop("config"), "manifest has no key 'config'"),
    (lambda m: m["params"][0].update(shape=5), "manifest params[0] shape must be a list of sizes"),
], ids=["no-params", "no-config", "shape-int"])
def test_predict_malformed_checkpoint_is_user_error(trained, tmp_path, capsys, edit, message):
    ckpt = tmp_path / "m.ckpt"
    ckpt.write_bytes(Path(trained["ckpt"]).read_bytes())
    rewrite_checkpoint_manifest(ckpt, edit)
    out = tmp_path / "pred.tsv"
    assert run(["predict", "--systems", trained["systems"], "--corpus", trained["corpus"],
                "--vocab", trained["vocab"], "--ckpt", str(ckpt), "--out", str(out)]) \
        == EXIT_USER_ERROR
    assert f"m.ckpt: {message}" in capsys.readouterr().err
    assert not out.exists()


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
