"""Every output reaches disk through `systems.output`: whole or not at all.

Each writer is fed input that raises after its first item. The target must
then be absent, or keep the bytes of its last whole write, and no
temporary file may be left beside it. A whole write gets the mode a plain
`open` gives a new file.
"""

import ast
import json
import os
import stat
import time
import types
from pathlib import Path

import numpy as np
import pytest

import adsorbtext
import adsorbtext.analysis as analysis
import adsorbtext.cli as cli
import adsorbtext.pairs as pairs_mod
from adsorbtext.analysis import TokenAttentionProfile, WordScore
from adsorbtext.encoder import EncoderConfig, init_model, save_checkpoint
from adsorbtext.featurize import featurize_systems, write_corpus
from adsorbtext.pairs import PredictionRecord, record_columns, write_predictions
from adsorbtext.synth import fixture_dataset
from adsorbtext.systems import output, save_dataset
from adsorbtext.tokens import build_vocab, encode
from adsorbtext.trainer import write_history


class Cut(Exception):
    """Raised by the input of a write after its first item."""


def _cut(items):
    """items, raising Cut after the first one when there is a second."""
    for i, item in enumerate(items):
        if i:
            raise Cut
        yield item


def _cut_dump(obj, fh, **kwargs):
    """json.dump that writes the first chunk of obj's encoding, then raises."""
    fh.write(next(json.JSONEncoder(**kwargs).iterencode(obj)))
    raise Cut


def _raise_cut(*args, **kwargs):
    raise Cut


class _CutRepr:
    def __repr__(self):
        raise Cut


def _systems():
    return fixture_dataset(n=3)


def _vocab_and_seqs():
    records, _ = featurize_systems(_systems(), "S1")
    vocab = build_vocab(r.text for r in records)
    return vocab, [encode(r.text, vocab, 64) for r in records]


def _model(vocab):
    return init_model(EncoderConfig(vocab_size=len(vocab), n_layers=1, n_heads=1,
                                    hidden_size=8, max_positions=64), seed=0)


def _predictions(path: Path) -> Path:
    write_predictions([PredictionRecord(f"s{i}", split, "*O", "Cu", 0.1 * i, 0.2 * i)
                       for i, split in enumerate(["ID", "ID", "OOD_ads", "OOD_ads"])], path)
    return path


def _command(argv):
    args = cli.build_parser().parse_args([str(a) for a in argv])
    args.started = time.perf_counter()
    cli._COMMANDS[args.command](args)


# Each writer: (the name of the file it writes, write(target, fail, monkeypatch)),
# where target is that file and fail makes the write's input raise after its
# first item.

def _save_dataset(target, fail, monkeypatch):
    systems = _systems()
    save_dataset(_cut(systems) if fail else systems, target)


def _vocabulary_save(target, fail, monkeypatch):
    vocab, _ = _vocab_and_seqs()
    if fail:
        vocab.id_to_token = _cut(vocab.id_to_token)
    vocab.save(target)


def _write_corpus(target, fail, monkeypatch):
    records, _ = featurize_systems(_systems(), "S1")
    write_corpus(_cut(records) if fail else records, target)


def _save_checkpoint(target, fail, monkeypatch):
    vocab, _ = _vocab_and_seqs()
    model = _model(vocab)
    if fail:  # the last tensor raises when it is written
        last = model.params[list(model.params)[-1]]
        last.data = types.SimpleNamespace(shape=last.data.shape, astype=_raise_cut)
    save_checkpoint(model, target, vocab_sha256=vocab.sha256)


def _write_history(target, fail, monkeypatch):
    history = [{"epoch": epoch, "mlm_loss": 0.5, "lrs": (1e-6, 1.75e-6, 3.5e-6),
                "wall_time_s": 0.1} for epoch in (1, 2)]
    write_history(_cut(history) if fail else history, target)


def _write_predictions(target, fail, monkeypatch):
    records = [PredictionRecord(f"s{i}", "ID", "*O", "Cu", 0.1 * i, 0.2 * i) for i in range(3)]
    write_predictions(_cut(records) if fail else records, target)


def _export_parity(target, fail, monkeypatch):
    columns = record_columns(PredictionRecord(f"s{i}", "ID", "*O", "Cu", 0.1 * i, 0.2 * i)
                             for i in range(3))
    if fail:  # the second label raises when it is written
        columns = columns._replace(label=np.array([0.0, _CutRepr(), 0.2], dtype=object))
    pairs_mod.export_parity(columns, target.parent)


def _export_heatmap(target, fail, monkeypatch):
    profiles = [TokenAttentionProfile(layer, (WordScore("<s>", 0.25, (0,), True),
                                              WordScore("Cu", 0.75, (1,), False)))
                for layer in (0, 1)]
    analysis.export_heatmap(_cut(profiles) if fail else profiles, target)


def _export_embeddings(target, fail, monkeypatch):
    vocab, seqs = _vocab_and_seqs()
    if fail:  # the second batch raises
        forward, calls = analysis.forward, []

        def cut_forward(*args, **kwargs):
            calls.append(args)
            return forward(*args, **kwargs) if len(calls) == 1 else _raise_cut()

        monkeypatch.setattr(analysis, "forward", cut_forward)
    analysis.export_embeddings(_model(vocab), _systems(), seqs, target, batch_size=1)


def _write_run_manifest(target, fail, monkeypatch):
    if fail:
        monkeypatch.setattr(cli, "json", types.SimpleNamespace(dumps=json.dumps,
                                                               dump=_cut_dump))
    args = cli.build_parser().parse_args(["eval", "--pred", "p.tsv", "--out", "out"])
    args.started = time.perf_counter()
    cli.write_run_manifest(args, target.with_name(target.name[:-len(".manifest.json")]))


def _eval_report(target, fail, monkeypatch):
    if fail:
        mae_by_split = pairs_mod.mae_by_split
        monkeypatch.setattr(pairs_mod, "mae_by_split", lambda c: _cut(mae_by_split(c)))
    _command(["eval", "--pred", _predictions(target.parent.parent / "pred.tsv"),
              "--out", target.parent])


def _pairs_report(target, fail, monkeypatch):
    if fail:
        monkeypatch.setattr(pairs_mod, "format_pairs_report", _raise_cut)
    _command(["pairs", "--pred", _predictions(target.parent.parent / "pred.tsv"),
              "--report", target.parent])


_SMOKE_REPORTS = {"eval": "mae_report.tsv", "pairs": "pairs_report.tsv"}


def _smoke_report(target, fail, monkeypatch):
    def run(argv):  # each stage only makes the file the smoke run checks for
        out = Path(argv[argv.index("--report" if argv[0] == "pairs" else "--out") + 1])
        out = out / _SMOKE_REPORTS[argv[0]] if argv[0] in _SMOKE_REPORTS else out
        out.parent.mkdir(parents=True, exist_ok=True)
        out.touch()
        return cli.EXIT_OK

    monkeypatch.setattr(cli, "run", run)
    if fail:
        monkeypatch.setattr(cli, "json", types.SimpleNamespace(dumps=json.dumps,
                                                               dump=_cut_dump))
    cli.end_to_end_smoke(cli.SmokeConfig(out_dir=target.parent))


WRITERS = {
    "save_dataset": ("systems.jsonl", _save_dataset),
    "Vocabulary.save": ("vocab.txt", _vocabulary_save),
    "write_corpus": ("corpus.jsonl", _write_corpus),
    "save_checkpoint": ("model.ckpt", _save_checkpoint),
    "write_history": ("history.tsv", _write_history),
    "write_predictions": ("predictions.tsv", _write_predictions),
    "export_parity": ("parity_ID.tsv", _export_parity),
    "export_heatmap": ("attention.tsv", _export_heatmap),
    "export_embeddings": ("embeddings.tsv", _export_embeddings),
    "write_run_manifest": ("out.tsv.manifest.json", _write_run_manifest),
    "eval report": ("mae_report.tsv", _eval_report),
    "pairs report": ("pairs_report.tsv", _pairs_report),
    "smoke_report.json": ("smoke_report.json", _smoke_report),
}


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


@pytest.mark.parametrize("writer", WRITERS)
def test_writer_output_appears_whole_or_not_at_all(tmp_path, monkeypatch, writer):
    name, write = WRITERS[writer]
    target = tmp_path / "made" / "as" / "needed" / name
    with monkeypatch.context() as patch, pytest.raises(Cut):
        write(target, True, patch)
    assert not target.exists()
    assert not list(tmp_path.rglob("*.tmp"))

    write(target, False, monkeypatch)
    whole = target.read_bytes()
    assert whole
    assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~_umask()

    with monkeypatch.context() as patch, pytest.raises(Cut):
        write(target, True, patch)
    assert target.read_bytes() == whole
    assert not list(tmp_path.rglob("*.tmp"))


def test_output_replaces_a_symlink_with_a_regular_file(tmp_path):
    linked = tmp_path / "linked.txt"
    linked.write_bytes(b"kept\n")
    target = tmp_path / "out.txt"
    target.symlink_to(linked)
    with output(target) as fh:
        fh.write("new\n")
    assert not target.is_symlink() and target.read_text() == "new\n"
    assert linked.read_bytes() == b"kept\n"


def test_output_into_a_directory_leaves_it_and_no_temporary_file(tmp_path):
    (tmp_path / "d").mkdir()
    (tmp_path / "d" / "inside.txt").write_text("x\n")
    with pytest.raises(IsADirectoryError, match="d'$"):
        with output(tmp_path / "d") as fh:
            fh.write("never\n")
    assert [p.name for p in tmp_path.iterdir()] == ["d"]
    assert [p.name for p in (tmp_path / "d").iterdir()] == ["inside.txt"]


def test_output_takes_a_name_of_255_bytes(tmp_path):
    target = tmp_path / ("x" + "é" * 127)  # its temporary name cuts an "é" in two
    with output(target) as fh:
        fh.write("whole\n")
    assert [p.name for p in tmp_path.iterdir()] == [target.name]
    assert target.read_text() == "whole\n"


_WRITE_MODE_CHARS = set("wax+")
_MAKES_FILES = {"write_text", "write_bytes", "mkdir", "makedirs"}


def _open_mode(call: ast.Call):
    """The mode node of an `open(path, mode)` or `<path>.open(mode)` call; None
    for the default "r"."""
    index = 1 if isinstance(call.func, ast.Name) else 0
    if len(call.args) > index:
        return call.args[index]
    return next((k.value for k in call.keywords if k.arg == "mode"), None)


def _file_makers(tree: ast.AST) -> tuple[list[ast.Call], list[ast.Call]]:
    """(calls opening a file in a write mode, or a mode read from a variable;
    calls making a file or a directory by another way) in tree."""
    opens, makers = [], []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "open":
            mode = _open_mode(node)
            if mode is not None and not (isinstance(mode, ast.Constant)
                                         and not _WRITE_MODE_CHARS & set(mode.value)):
                opens.append(node)
        elif isinstance(func, ast.Attribute) and name in _MAKES_FILES:
            makers.append(node)
    return opens, makers


def test_only_systems_output_writes_files_or_makes_directories():
    package = Path(adsorbtext.__file__).parent
    outside = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        helpers = [node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "output"]
        if path.name == "systems.py":
            assert len(helpers) == 1
            opens, makers = _file_makers(helpers[0])
            assert (len(opens), len(makers)) == (1, 1)
        inside = {id(node) for helper in helpers for node in ast.walk(helper)}
        opens, makers = _file_makers(tree)
        outside += [f"{path.name}:{node.lineno}" for node in opens + makers
                    if id(node) not in inside]
    assert outside == []
