"""Command-line surface: featurize, build-vocab, pretrain, train, predict,
eval, attention, embeddings, pairs.

Every run writes a manifest (command, resolved config + its hash,
toolkit version) beside its outputs, so multi-stage pipelines are
auditable and reruns are byte-comparable; the config holds the seed of
`pretrain` and `train`, the only subcommands that draw random numbers. A
JSON config file passed via --config overrides flag values. Exit codes:
0 success, 1 user error, 2 internal error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import __version__, analysis, pairs as pairs_mod
from .encoder import (
    CheckpointError,
    EncoderConfig,
    forward,
    init_model,
    load_checkpoint,
    save_checkpoint,
)
from .featurize import (
    DEFAULT_CUTOFF_TOLERANCE,
    CorpusRecord,
    NoBindingError,
    SerializedSample,
    detect_configuration,
    featurize_systems,
    load_description_cache,
    merge_description_cache,
    read_corpus,
    serialize,
    write_corpus,
)
from .systems import SPLITS, DatasetError, load_dataset
from .tokens import Vocabulary, build_vocab, encode
from .trainer import (
    TrainRunConfig,
    encode_labeled,
    predict_energies,
    pretrain_mlm,
    train_regression,
    write_history,
)

log = logging.getLogger("adsorbtext")

EXIT_OK = 0
EXIT_USER_ERROR = 1
EXIT_INTERNAL_ERROR = 2


class UserError(Exception):
    """Bad arguments or malformed inputs; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise UserError(f"{self.prog}: {message}")


def _add_model_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--layers", type=int, default=4)
    sp.add_argument("--heads", type=int, default=4)
    sp.add_argument("--hidden", type=int, default=64)
    sp.add_argument("--ffn", type=int, default=None)
    sp.add_argument("--max-positions", type=int, default=512)
    sp.add_argument("--dropout", type=float, default=0.1)
    sp.add_argument("--head-activation", choices=("tanh", "gelu"), default="tanh")
    sp.add_argument("--pre-norm", action="store_true")
    sp.add_argument("--dtype", choices=("float64", "float32"), default="float64")


def _add_train_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--epochs", type=int, default=100)
    sp.add_argument("--batch-size", type=int, default=12)
    sp.add_argument("--lr", type=float, default=1e-6)
    sp.add_argument("--patience", type=int, default=5)
    sp.add_argument("--weight-decay", type=float, default=0.01)
    sp.add_argument("--clip-norm", type=float, default=None)


def build_parser() -> _Parser:
    parser = _Parser(prog="adsorbtext",
                     description="Text-based adsorption-energy toolkit")
    common = _Parser(add_help=False)
    common.add_argument("--config", type=Path, default=None,
                        help="JSON file whose entries override flags")
    common.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def add_parser(name: str, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    sp = add_parser("featurize", help="serialize systems to text")
    sp.add_argument("--in", dest="inp", type=Path, required=True)
    sp.add_argument("--out", type=Path, required=True)
    sp.add_argument("--format", required=True,
                    choices=("s1", "s2", "s3", "s4", "s5", "desc"))
    sp.add_argument("--cutoff-tolerance", type=float,
                    default=DEFAULT_CUTOFF_TOLERANCE)
    sp.add_argument("--desc-cache", type=Path, default=None)

    sp = add_parser("build-vocab", help="build a vocabulary from a corpus")
    sp.add_argument("--in", dest="inp", type=Path, required=True)
    sp.add_argument("--out", type=Path, required=True)
    sp.add_argument("--min-freq", type=int, default=1)

    sp = add_parser("pretrain", help="masked-token pretraining")
    sp.add_argument("--corpus", type=Path, required=True)
    sp.add_argument("--vocab", type=Path, required=True)
    sp.add_argument("--out", type=Path, required=True)
    sp.add_argument("--mask-rate", type=float, default=0.15)
    sp.add_argument("--untied-mlm", action="store_true")
    sp.add_argument("--history", type=Path, default=None)
    _add_model_flags(sp)
    _add_train_flags(sp)

    sp = add_parser("train", help="MAE-loss regression finetuning")
    sp.add_argument("--corpus", type=Path, required=True)
    sp.add_argument("--vocab", type=Path, required=True)
    sp.add_argument("--out", type=Path, required=True)
    sp.add_argument("--init-from", type=Path, default=None,
                    help="checkpoint whose encoder weights seed training "
                         "(heads are reinitialized)")
    sp.add_argument("--train-split", default="train")
    sp.add_argument("--history", type=Path, default=None)
    _add_model_flags(sp)
    _add_train_flags(sp)

    sp = add_parser("predict", help="predict energies for a corpus")
    sp.add_argument("--systems", type=Path, required=True)
    sp.add_argument("--corpus", type=Path, required=True)
    sp.add_argument("--vocab", type=Path, required=True)
    sp.add_argument("--ckpt", type=Path, required=True)
    sp.add_argument("--out", type=Path, required=True)
    sp.add_argument("--batch-size", type=int, default=32)

    sp = add_parser("eval", help="split-wise MAE and parity export")
    sp.add_argument("--pred", type=Path, required=True)
    sp.add_argument("--out", type=Path, required=True)

    sp = add_parser("attention", help="attention heatmap data for one system")
    sp.add_argument("--systems", type=Path, required=True)
    sp.add_argument("--vocab", type=Path, required=True)
    sp.add_argument("--ckpt", type=Path, required=True)
    sp.add_argument("--out", type=Path, required=True)
    sp.add_argument("--format", default="s4",
                    choices=("s2", "s3", "s4", "s5", "desc"))
    sp.add_argument("--id", default=None, help="system id (default: first)")

    sp = add_parser("embeddings", help="export first-token embeddings")
    sp.add_argument("--systems", type=Path, required=True)
    sp.add_argument("--vocab", type=Path, required=True)
    sp.add_argument("--ckpt", type=Path, required=True)
    sp.add_argument("--out", type=Path, required=True)
    sp.add_argument("--format", default="s4",
                    choices=("s1", "s2", "s3", "s4", "s5", "desc"))
    sp.add_argument("--batch-size", type=int, default=32)

    sp = add_parser("pairs", help="energy-difference pair statistics")
    sp.add_argument("--pred", type=Path, required=True)
    sp.add_argument("--report", type=Path, required=True)
    sp.add_argument("--across-splits", action="store_true",
                    help="pair systems globally instead of within each split")
    return parser


_PATH_OPTIONS = frozenset({
    "inp", "out", "corpus", "vocab", "ckpt", "pred", "report", "systems",
    "desc_cache", "init_from", "history",
})


def _apply_config_file(args: argparse.Namespace) -> None:
    if args.config is None:
        return
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            overrides = json.load(fh)
    except FileNotFoundError:
        raise UserError(f"config file not found: {args.config}")
    except json.JSONDecodeError as exc:
        raise UserError(f"{args.config}: invalid JSON ({exc})")
    if not isinstance(overrides, dict):
        raise UserError(f"{args.config}: config must be a JSON object")
    for key, value in overrides.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            raise UserError(f"{args.config}: unknown option {key!r}")
        if attr in _PATH_OPTIONS and value is not None:
            value = Path(value)
        setattr(args, attr, value)


def _resolved_config(args: argparse.Namespace) -> dict:
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in ("config",):
            continue
        out[key] = str(value) if isinstance(value, Path) else value
    return out


def write_run_manifest(args: argparse.Namespace, out: Path) -> Path:
    """Manifest beside the outputs: <file>.manifest.json or <dir>/manifest.json."""
    config = _resolved_config(args)
    payload = {
        "command": args.command,
        "config": config,
        "config_sha256": hashlib.sha256(
            json.dumps(config, sort_keys=True).encode("utf-8")).hexdigest(),
        "version": __version__,
    }
    path = out / "manifest.json" if out.is_dir() else out.with_name(out.name + ".manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _require_inputs(*paths: Path | None) -> None:
    for p in paths:
        if p is not None and not Path(p).exists():
            raise UserError(f"input does not exist: {p}")


def _model_config(args: argparse.Namespace, vocab_size: int) -> EncoderConfig:
    return EncoderConfig(
        vocab_size=vocab_size,
        n_layers=args.layers,
        n_heads=args.heads,
        hidden_size=args.hidden,
        ffn_size=args.ffn,
        max_positions=args.max_positions,
        dropout_rate=args.dropout,
        head_activation=args.head_activation,
        pre_norm=args.pre_norm,
        dtype=args.dtype,
    )


def _run_config(args: argparse.Namespace) -> TrainRunConfig:
    return TrainRunConfig(
        batch_size=args.batch_size,
        max_epochs=args.epochs,
        early_stopping_patience=args.patience,
        seed=args.seed,
        base_lr=args.lr,
        weight_decay=args.weight_decay,
        clip_norm=args.clip_norm,
        mask_rate=getattr(args, "mask_rate", 0.15),
        tied_mlm=not getattr(args, "untied_mlm", False),
    )


def cmd_featurize(args) -> None:
    _require_inputs(args.inp, args.desc_cache)
    systems = load_dataset(args.inp)
    records, report = featurize_systems(systems, args.format.upper(), args.cutoff_tolerance)
    if args.format == "desc" and args.desc_cache is not None:
        cache = load_description_cache(args.desc_cache)
        by_id = {s.id: s for s in systems}
        samples = [SerializedSample(r.system_id, r.format, r.text, r.energy_ev)
                   for r in records]
        merged, cache_report = merge_description_cache(samples, by_id, cache)
        records = [CorpusRecord(s.system_id, s.format, s.text, s.energy_ev, r.split)
                   for s, r in zip(merged, records)]
        report.update(cache_report)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    write_corpus(records, args.out)
    write_run_manifest(args, args.out)
    log.info("featurize: %s", report)


def cmd_build_vocab(args) -> None:
    _require_inputs(args.inp)
    records = read_corpus(args.inp)
    vocab = build_vocab((r.text for r in records), min_freq=args.min_freq)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    vocab.save(args.out)
    write_run_manifest(args, args.out)
    log.info("build-vocab: %d tokens", len(vocab))


def cmd_pretrain(args) -> None:
    _require_inputs(args.corpus, args.vocab)
    records = read_corpus(args.corpus)
    vocab = Vocabulary.load(args.vocab)
    model = init_model(_model_config(args, len(vocab)), seed=args.seed)
    run_cfg = _run_config(args)
    result = pretrain_mlm(model, [r.text for r in records], run_cfg, vocab)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(result.model, args.out, vocab_sha256=vocab.sha256,
                    step=len(result.history), seed=args.seed)
    if args.history:
        write_history(result.history, args.history)
    write_run_manifest(args, args.out)
    log.info("pretrain: %d epochs, final loss %.4f",
             len(result.history), result.history[-1]["mlm_loss"])


def cmd_train(args) -> None:
    _require_inputs(args.corpus, args.vocab, args.init_from)
    records = read_corpus(args.corpus)
    vocab = Vocabulary.load(args.vocab)
    train_records = [r for r in records if r.split == args.train_split]
    val_records = [r for r in records if r.split != args.train_split]
    if not train_records:
        raise UserError(f"no records with split == {args.train_split!r}")
    if not val_records:
        raise UserError("no validation records (all records are in the train split)")
    model = init_model(_model_config(args, len(vocab)), seed=args.seed)
    if args.init_from:
        pretrained, _ = load_checkpoint(args.init_from,
                                        expected_vocab_sha256=vocab.sha256)
        copied = model.load_values(pretrained, skip_prefixes=("head.", "mlm."))
        log.info("train: seeded %d tensors from %s", len(copied), args.init_from)
    run_cfg = _run_config(args)
    result = train_regression(model, train_records, val_records, run_cfg, vocab)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(result.model, args.out, vocab_sha256=vocab.sha256,
                    step=len(result.history), seed=args.seed)
    if args.history:
        write_history(result.history, args.history)
    write_run_manifest(args, args.out)
    log.info("train: best epoch %s, best val MAE %.4f",
             result.best_epoch, result.best_val_mae)


def cmd_predict(args) -> None:
    _require_inputs(args.systems, args.corpus, args.vocab, args.ckpt)
    systems = {s.id: s for s in load_dataset(args.systems)}
    records = read_corpus(args.corpus)
    vocab = Vocabulary.load(args.vocab)
    model, _ = load_checkpoint(args.ckpt, expected_vocab_sha256=vocab.sha256)
    seqs, labels = encode_labeled(records, vocab, model.config.max_positions,
                                  require_labels=False)
    preds = predict_energies(model, seqs, batch_size=args.batch_size)
    out_records = []
    for rec, label, pred in zip(records, labels, preds):
        try:
            system = systems[rec.system_id]
        except KeyError:
            raise UserError(f"{rec.system_id}: not present in {args.systems}")
        out_records.append(pairs_mod.PredictionRecord(
            rec.system_id, rec.split, system.adsorbate_smiles,
            system.bulk_formula, float(label), float(pred)))
    args.out.parent.mkdir(parents=True, exist_ok=True)
    pairs_mod.write_predictions(out_records, args.out)
    write_run_manifest(args, args.out)
    log.info("predict: %d records", len(out_records))


def cmd_eval(args) -> None:
    _require_inputs(args.pred)
    columns = pairs_mod.read_prediction_columns(args.pred)
    unknown = [c for c, name in enumerate(columns.split_names) if name not in SPLITS]
    if unknown:  # split codes number the splits by first appearance
        lineno = int((columns.split == unknown[0]).argmax()) + 2  # after the header
        raise UserError(f"{args.pred}:{lineno}: split {columns.split_names[unknown[0]]!r} "
                        f"is not one of {', '.join(SPLITS)}")
    args.out.mkdir(parents=True, exist_ok=True)
    rows = pairs_mod.mae_by_split(columns)
    report_path = args.out / "mae_report.tsv"
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write("split\tmae\tcount\n")
        for split, mae, count in rows:
            fh.write(f"{split}\t{mae!r}\t{count}\n")
    pairs_mod.export_parity(columns, args.out)
    write_run_manifest(args, args.out)
    log.info("eval: wrote %s", report_path)


def cmd_attention(args) -> None:
    _require_inputs(args.systems, args.vocab, args.ckpt)
    systems = load_dataset(args.systems)
    if args.id is not None:
        matches = [s for s in systems if s.id == args.id]
        if not matches:
            raise UserError(f"system id {args.id!r} not found in {args.systems}")
        system = matches[0]
    else:
        system = systems[0]
    vocab = Vocabulary.load(args.vocab)
    model, _ = load_checkpoint(args.ckpt, expected_vocab_sha256=vocab.sha256)
    try:
        config = detect_configuration(system)
    except NoBindingError:
        config = None
    sample = serialize(system, config, args.format.upper())
    seq = encode(sample.text, vocab, model.config.max_positions)
    res = forward(model, [seq], capture_attention=True)
    record = res.attention_record(0, seq.n_real)
    profiles = [
        analysis.attention_profile(record, layer, sample.text, seq)
        for layer in (0, record.n_layers - 1)
    ]
    args.out.parent.mkdir(parents=True, exist_ok=True)
    analysis.export_heatmap(profiles, args.out)
    write_run_manifest(args, args.out)
    log.info("attention: %s (%s) -> %s", system.id, sample.format, args.out)


def cmd_embeddings(args) -> None:
    _require_inputs(args.systems, args.vocab, args.ckpt)
    systems = load_dataset(args.systems)
    vocab = Vocabulary.load(args.vocab)
    model, _ = load_checkpoint(args.ckpt, expected_vocab_sha256=vocab.sha256)
    records, _ = featurize_systems(systems, args.format.upper())
    seqs = [encode(r.text, vocab, model.config.max_positions) for r in records]
    args.out.parent.mkdir(parents=True, exist_ok=True)
    analysis.export_embeddings(model, systems, seqs, args.out,
                               batch_size=args.batch_size)
    write_run_manifest(args, args.out)
    log.info("embeddings: %d rows", len(systems))


def cmd_pairs(args) -> None:
    _require_inputs(args.pred)
    columns = pairs_mod.read_prediction_columns(args.pred)
    reports = pairs_mod.column_pair_stats(columns,
                                          within_split=not args.across_splits)
    args.report.mkdir(parents=True, exist_ok=True)
    report_path = args.report / "pairs_report.tsv"
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(pairs_mod.format_pairs_report(reports))
    write_run_manifest(args, args.report)
    for rep in reports:
        log.info("pairs: split=%s systems=%d pairs=%d",
                 rep.split, rep.n_systems, rep.n_pairs)


_COMMANDS = {
    "featurize": cmd_featurize,
    "build-vocab": cmd_build_vocab,
    "pretrain": cmd_pretrain,
    "train": cmd_train,
    "predict": cmd_predict,
    "eval": cmd_eval,
    "attention": cmd_attention,
    "embeddings": cmd_embeddings,
    "pairs": cmd_pairs,
}


def run(argv: list[str] | None = None) -> int:
    """Execute one subcommand; returns the process exit code."""
    parser = build_parser()
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return EXIT_USER_ERROR
        _apply_config_file(args)
        logging.basicConfig(
            level=logging.DEBUG if args.verbose else logging.INFO,
            format="%(levelname)s %(name)s: %(message)s",
        )
        _COMMANDS[args.command](args)
        return EXIT_OK
    except (UserError, DatasetError, CheckpointError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER_ERROR
    except Exception as exc:  # internal failure: report and exit 2
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


def main() -> int:
    return run()


@dataclass
class SmokeConfig:
    """Desk-scale end-to-end pipeline configuration."""

    out_dir: Path
    dataset: Path | None = None  # defaults to the bundled fixture dataset
    seed: int = 0
    fmt: str = "s4"
    layers: int = 2
    heads: int = 2
    hidden: int = 32
    max_positions: int = 64
    batch_size: int = 12
    pretrain_epochs: int = 2
    train_epochs: int = 6
    lr: float = 1e-3
    dropout: float = 0.0
    dtype: str = "float64"


class SmokeStageError(RuntimeError):
    """A pipeline stage failed; the message names the stage."""


def fixture_dataset_path() -> Path:
    from importlib import resources

    return Path(str(resources.files("adsorbtext.data").joinpath(
        "fixture_systems.jsonl")))


def end_to_end_smoke(cfg: SmokeConfig) -> dict:
    """featurize -> build-vocab -> pretrain -> train -> predict -> eval ->
    pairs -> attention -> embeddings on the fixture dataset.

    Returns a report with per-stage wall times and the artifact inventory;
    any stage failure raises SmokeStageError naming the stage.
    """
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dataset = Path(cfg.dataset) if cfg.dataset else fixture_dataset_path()
    artifacts = {
        "corpus": out / "corpus.jsonl",
        "vocab": out / "vocab.txt",
        "pretrain_ckpt": out / "pretrain.ckpt",
        "model_ckpt": out / "model.ckpt",
        "predictions": out / "predictions.tsv",
        "eval_report": out / "eval" / "mae_report.tsv",
        "pairs_report": out / "pairs" / "pairs_report.tsv",
        "attention": out / "attention.tsv",
        "embeddings": out / "embeddings.tsv",
    }
    model_flags = [
        "--layers", str(cfg.layers), "--heads", str(cfg.heads),
        "--hidden", str(cfg.hidden), "--max-positions", str(cfg.max_positions),
        "--dropout", str(cfg.dropout), "--dtype", cfg.dtype,
    ]
    train_flags = ["--batch-size", str(cfg.batch_size), "--lr", str(cfg.lr),
                   "--seed", str(cfg.seed)]
    stages = [
        ("featurize", ["featurize", "--in", str(dataset), "--out",
                       str(artifacts["corpus"]), "--format", cfg.fmt]),
        ("build-vocab", ["build-vocab", "--in", str(artifacts["corpus"]),
                         "--out", str(artifacts["vocab"])]),
        ("pretrain", ["pretrain", "--corpus", str(artifacts["corpus"]),
                      "--vocab", str(artifacts["vocab"]),
                      "--out", str(artifacts["pretrain_ckpt"]),
                      "--epochs", str(cfg.pretrain_epochs)]
         + model_flags + train_flags),
        ("train", ["train", "--corpus", str(artifacts["corpus"]),
                   "--vocab", str(artifacts["vocab"]),
                   "--out", str(artifacts["model_ckpt"]),
                   "--init-from", str(artifacts["pretrain_ckpt"]),
                   "--epochs", str(cfg.train_epochs),
                   "--history", str(out / "history.tsv")]
         + model_flags + train_flags),
        ("predict", ["predict", "--systems", str(dataset),
                     "--corpus", str(artifacts["corpus"]),
                     "--vocab", str(artifacts["vocab"]),
                     "--ckpt", str(artifacts["model_ckpt"]),
                     "--out", str(artifacts["predictions"])]),
        ("eval", ["eval", "--pred", str(artifacts["predictions"]),
                  "--out", str(out / "eval")]),
        ("pairs", ["pairs", "--pred", str(artifacts["predictions"]),
                   "--report", str(out / "pairs")]),
        ("attention", ["attention", "--systems", str(dataset),
                       "--vocab", str(artifacts["vocab"]),
                       "--ckpt", str(artifacts["model_ckpt"]),
                       "--out", str(artifacts["attention"]),
                       "--format", cfg.fmt if cfg.fmt != "s1" else "s4"]),
        ("embeddings", ["embeddings", "--systems", str(dataset),
                        "--vocab", str(artifacts["vocab"]),
                        "--ckpt", str(artifacts["model_ckpt"]),
                        "--out", str(artifacts["embeddings"]),
                        "--format", cfg.fmt]),
    ]
    report = {"stages": [], "artifacts": {k: str(v) for k, v in artifacts.items()}}
    for name, argv in stages:
        tic = time.perf_counter()
        code = run(argv)
        if code != EXIT_OK:
            raise SmokeStageError(f"stage {name} failed with exit code {code}")
        report["stages"].append({"stage": name,
                                 "seconds": time.perf_counter() - tic})
    missing = [k for k, v in artifacts.items() if not Path(v).exists()]
    if missing:
        raise SmokeStageError(f"missing artifacts after pipeline: {missing}")
    return report


if __name__ == "__main__":
    sys.exit(main())
