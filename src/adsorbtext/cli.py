"""Command-line surface: featurize, build-vocab, pretrain, train, predict,
eval, attention, embeddings, pairs.

Every run writes a manifest (command, resolved config + its hash,
toolkit version, the numpy and Python versions and the BLAS/OpenMP
thread variables, the run's wall time, the process's peak resident
memory and its minor page faults) beside its outputs, so multi-stage
pipelines are auditable and show where the time went; the other outputs
of reruns are byte-comparable. The config holds the seed of `pretrain`
and `train`, the only subcommands that draw random numbers. Exit codes:
0 success, 1 user error, 2 internal error.

A JSON object passed via --config sets options after the command line,
so its values override the flags. Its keys are the subcommand's flag
names without the leading dashes, with dashes or underscores
("batch-size" or "batch_size"). Each value goes through its flag's own
action: a number flag takes a JSON number (an integer one only an
integer), a text, path or choice flag a string within its choices, and a
switch true or false. null is accepted only where the flag's default is
none. Required flags must still be given on the command line.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import hashlib
import json
import logging
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, analysis, pairs as pairs_mod
from .encoder import (
    DTYPES,
    HEAD_ACTIVATIONS,
    CheckpointError,
    ConfigError,
    EncoderConfig,
    forward,
    init_model,
    load_checkpoint,
    save_checkpoint,
)
from .featurize import (
    DEFAULT_CUTOFF_TOLERANCE,
    FORMATS,
    NoBindingError,
    detect_configuration,
    featurize_systems,
    load_description_cache,
    merge_description_cache,
    read_corpus,
    serialize,
    write_corpus,
)
from .systems import SPLITS, load_dataset
from .tokens import Vocabulary, build_vocab, encode
from .trainer import (
    INFERENCE_BATCH_SIZE,
    NonFiniteGradientError,
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

    def config_options(self) -> dict[str, argparse.Action]:
        """The actions a --config key can name, by flag without the leading
        dashes: every option but --help and --config itself."""
        return {flag[2:]: action for action in self._actions
                for flag in action.option_strings
                if flag.startswith("--") and action.dest not in ("help", "config")}


# config field -> (flag, its type, or its choices); a flag's default is its field's
_MODEL_FLAGS = {
    "n_layers": ("--layers", int), "n_heads": ("--heads", int),
    "hidden_size": ("--hidden", int), "ffn_size": ("--ffn", int),
    "max_positions": ("--max-positions", int), "dropout_rate": ("--dropout", float),
    "head_activation": ("--head-activation", HEAD_ACTIVATIONS),
    "pre_norm": ("--pre-norm", bool), "dtype": ("--dtype", DTYPES),
}
_RUN_FLAGS = {
    "mask_rate": ("--mask-rate", float),  # pretrain only; train keeps the default
    "early_stopping_patience": ("--patience", int),  # train only
    "seed": ("--seed", int), "max_epochs": ("--epochs", int),
    "batch_size": ("--batch-size", int), "base_lr": ("--lr", float),
    "weight_decay": ("--weight-decay", float), "clip_norm": ("--clip-norm", float),
}
_SHARED_RUN_FIELDS = [f for f in _RUN_FLAGS if f not in ("mask_rate", "early_stopping_patience")]
_FORMATS = tuple(f.lower() for f in FORMATS)


def _add_config_flags(sp: argparse.ArgumentParser, config_class, table: dict,
                      fields=None) -> None:
    """The flags of table's fields (all by default), each defaulting to its
    field's default in config_class."""
    for name in fields or table:
        flag, kind = table[name]
        sp.add_argument(flag, default=getattr(config_class, name), **(
            {"action": "store_true"} if kind is bool
            else {"choices": kind} if isinstance(kind, tuple) else {"type": kind}))


def _config_values(args: argparse.Namespace, table: dict) -> dict:
    """The values of the table's flags the subcommand has, by config field."""
    values = vars(args)
    return {name: values[dest] for name, (flag, _) in table.items()
            if (dest := flag[2:].replace("-", "_")) in values}


def build_parser() -> _Parser:
    parser = _Parser(prog="adsorbtext",
                     description="Text-based adsorption-energy toolkit")
    common = _Parser(add_help=False)
    common.add_argument("--config", type=Path, default=None,
                        help="JSON file whose entries override flags")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    parser.commands = sub.choices  # subcommand -> its parser

    def add_parser(name: str, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    sp = add_parser("featurize", help="serialize systems to text")
    sp.add_argument("--in", dest="inp", type=Path, required=True)
    sp.add_argument("--out", type=Path, required=True)
    sp.add_argument("--format", required=True, choices=_FORMATS)
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
    _add_config_flags(sp, TrainRunConfig, _RUN_FLAGS, ["mask_rate"])
    sp.add_argument("--untied-mlm", action="store_true")
    sp.add_argument("--history", type=Path, default=None)
    _add_config_flags(sp, EncoderConfig, _MODEL_FLAGS)
    _add_config_flags(sp, TrainRunConfig, _RUN_FLAGS, _SHARED_RUN_FIELDS)

    sp = add_parser("train", help="MAE-loss regression finetuning")
    sp.add_argument("--corpus", type=Path, required=True)
    sp.add_argument("--vocab", type=Path, required=True)
    sp.add_argument("--out", type=Path, required=True)
    sp.add_argument("--init-from", type=Path, default=None,
                    help="checkpoint whose encoder weights seed training "
                         "(heads are reinitialized)")
    sp.add_argument("--train-split", default="train")
    sp.add_argument("--history", type=Path, default=None)
    _add_config_flags(sp, TrainRunConfig, _RUN_FLAGS, ["early_stopping_patience"])
    _add_config_flags(sp, EncoderConfig, _MODEL_FLAGS)
    _add_config_flags(sp, TrainRunConfig, _RUN_FLAGS, _SHARED_RUN_FIELDS)

    sp = add_parser("predict", help="predict energies for a corpus")
    sp.add_argument("--systems", type=Path, required=True)
    sp.add_argument("--corpus", type=Path, required=True)
    sp.add_argument("--vocab", type=Path, required=True)
    sp.add_argument("--ckpt", type=Path, required=True)
    sp.add_argument("--out", type=Path, required=True)
    sp.add_argument("--batch-size", type=int, default=INFERENCE_BATCH_SIZE)

    sp = add_parser("eval", help="split-wise MAE and parity export")
    sp.add_argument("--pred", type=Path, required=True)
    sp.add_argument("--out", type=Path, required=True)

    sp = add_parser("attention", help="attention heatmap data for one system")
    sp.add_argument("--systems", type=Path, required=True)
    sp.add_argument("--vocab", type=Path, required=True)
    sp.add_argument("--ckpt", type=Path, required=True)
    sp.add_argument("--out", type=Path, required=True)
    sp.add_argument("--format", default="s4", choices=tuple(f for f in _FORMATS if f != "s1"))
    sp.add_argument("--id", default=None, help="system id (default: first)")

    sp = add_parser("embeddings", help="export first-token embeddings")
    sp.add_argument("--systems", type=Path, required=True)
    sp.add_argument("--vocab", type=Path, required=True)
    sp.add_argument("--ckpt", type=Path, required=True)
    sp.add_argument("--out", type=Path, required=True)
    sp.add_argument("--format", default="s4", choices=_FORMATS)
    sp.add_argument("--batch-size", type=int, default=INFERENCE_BATCH_SIZE)

    sp = add_parser("pairs", help="energy-difference pair statistics")
    sp.add_argument("--pred", type=Path, required=True)
    sp.add_argument("--report", type=Path, required=True)
    sp.add_argument("--across-splits", action="store_true",
                    help="pair systems globally instead of within each split")
    return parser


# the JSON types a --config value may have, by its flag's type; other flags take a string
_JSON_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number")}


def _config_value(action: argparse.Action, value, where: str):
    """A --config value as its flag's action would store it."""
    if value is None:
        if action.default is not None:
            raise UserError(f"{where}: null is accepted only where the default is none")
        return None
    types, kind = (((bool,), "true or false") if action.nargs == 0  # a store_true switch
                   else _JSON_TYPES.get(action.type, ((str,), "a string")))
    if type(value) not in types:  # JSON values are exactly these types; bool is not int
        raise UserError(f"{where}: expected {kind}, got {json.dumps(value)}")
    if action.type is not None:
        value = action.type(value)
    if action.choices is not None and value not in action.choices:
        raise UserError(f"{where}: invalid choice {value!r} "
                        f"(choose from {', '.join(map(repr, action.choices))})")
    return value


def _apply_config_file(args: argparse.Namespace, parser: _Parser) -> None:
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
    options, keys = parser.config_options(), {}
    for key, value in overrides.items():
        flag = key.replace("_", "-")
        action = options.get(flag)
        if action is None:
            raise UserError(f"{args.config}: unknown option {key!r}")
        if action in keys:
            raise UserError(f"{args.config}: {keys[action]!r} and {key!r} both set --{flag}")
        keys[action] = key
        setattr(args, action.dest, _config_value(action, value, f"{args.config}: --{flag}"))


def _resolved_config(args: argparse.Namespace) -> dict:
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in ("config", "started"):
            continue
        out[key] = str(value) if isinstance(value, Path) else value
    return out


_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                     "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


@functools.cache
def _blas_core() -> str | None:
    """The kernel numpy's bundled OpenBLAS picked for this CPU when it loaded
    (say "SkylakeX"); None where that library or its symbol is missing."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs")
                      .glob("libscipy_openblas64_*.so")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = (), ctypes.c_char_p
        return corename().decode()
    return None


def run_environment() -> dict:
    """The numpy and Python versions, the CPU count, the OpenBLAS kernel and
    the BLAS/OpenMP thread variables: float results depend on them, so every
    run manifest and every `scripts/bench_*.py` entry records them beside
    its settings."""
    return {"numpy": np.__version__, "python": platform.python_version(),
            "cpus": os.cpu_count(), "blas_core": _blas_core(),
            "threads": {var: os.environ.get(var) for var in _THREAD_VARIABLES}}


def write_run_manifest(args: argparse.Namespace, out: Path) -> Path:
    """Manifest beside the outputs: <file>.manifest.json or <dir>/manifest.json."""
    config = _resolved_config(args)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    payload = {
        "command": args.command,
        "config": config,
        "config_sha256": hashlib.sha256(
            json.dumps(config, sort_keys=True).encode("utf-8")).hexdigest(),
        "environment": run_environment(),
        "minor_faults": usage.ru_minflt,  # the page faults peak RSS is traded against
        "peak_rss_mb": usage.ru_maxrss / 1024,  # KiB on Linux
        "version": __version__,
        "wall_time_s": time.perf_counter() - args.started,
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
    return EncoderConfig(vocab_size=vocab_size, **_config_values(args, _MODEL_FLAGS))


def _run_config(args: argparse.Namespace) -> TrainRunConfig:
    return TrainRunConfig(tied_mlm=not getattr(args, "untied_mlm", False),
                          **_config_values(args, _RUN_FLAGS))


def _require_batch_size(args: argparse.Namespace) -> None:
    if args.batch_size < 1:
        raise UserError(f"--batch-size must be >= 1, got {args.batch_size!r}")


def cmd_featurize(args) -> None:
    _require_inputs(args.inp, args.desc_cache)
    systems = load_dataset(args.inp)
    records, report = featurize_systems(systems, args.format.upper(), args.cutoff_tolerance)
    if args.format == "desc" and args.desc_cache is not None:
        cache = load_description_cache(args.desc_cache)
        by_id = {s.id: s for s in systems}
        records, cache_report = merge_description_cache(records, by_id, cache)
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


def _save_trained(args, result, vocab) -> None:
    """Checkpoint, optional history and manifest of `pretrain` and `train`."""
    args.out.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(result.model, args.out, vocab_sha256=vocab.sha256,
                    step=len(result.history), seed=args.seed)
    if args.history:
        write_history(result.history, args.history)
    write_run_manifest(args, args.out)


def cmd_pretrain(args) -> None:
    _require_inputs(args.corpus, args.vocab)
    records = read_corpus(args.corpus)
    vocab = Vocabulary.load(args.vocab)
    run_cfg = _run_config(args)
    model = init_model(_model_config(args, len(vocab)), seed=args.seed)
    result = pretrain_mlm(model, [r.text for r in records], run_cfg, vocab)
    _save_trained(args, result, vocab)
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
    run_cfg = _run_config(args)
    model = init_model(_model_config(args, len(vocab)), seed=args.seed)
    if args.init_from:
        pretrained, _ = load_checkpoint(args.init_from, vocab)
        # the fields that fix which encoder tensors there are, their shapes and what they do
        for name in ("n_layers", "n_heads", "hidden_size", "ffn_size", "max_positions",
                     "pre_norm"):
            ours, theirs = getattr(model.config, name), getattr(pretrained.config, name)
            if ours != theirs:
                raise ConfigError(name, f"is {ours!r}, but {theirs!r} in --init-from "
                                        f"{args.init_from}")
        copied = model.load_values(pretrained, skip_prefixes=("head.", "mlm."))
        log.info("train: seeded %d tensors from %s", len(copied), args.init_from)
    result = train_regression(model, train_records, val_records, run_cfg, vocab)
    _save_trained(args, result, vocab)
    log.info("train: best epoch %s, best val MAE %.4f",
             result.best_epoch, result.best_val_mae)


def cmd_predict(args) -> None:
    _require_batch_size(args)
    _require_inputs(args.systems, args.corpus, args.vocab, args.ckpt)
    systems = {s.id: s for s in load_dataset(args.systems)}
    records = read_corpus(args.corpus)
    missing = next((rec for rec in records if rec.system_id not in systems), None)
    if missing is not None:
        raise UserError(f"{missing.system_id}: not present in {args.systems}")
    vocab = Vocabulary.load(args.vocab)
    model, _ = load_checkpoint(args.ckpt, vocab)
    seqs, labels = encode_labeled(records, vocab, model.config.max_positions,
                                  require_labels=False)
    preds = predict_energies(model, seqs, batch_size=args.batch_size)
    out_records = []
    for rec, label, pred in zip(records, labels, preds):
        system = systems[rec.system_id]
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
    system = next((s for s in systems if args.id in (None, s.id)), None)
    if system is None:  # an unknown --id, or an empty dataset
        raise UserError(f"no system{'' if args.id is None else f' with id {args.id!r}'} "
                        f"in {args.systems}")
    vocab = Vocabulary.load(args.vocab)
    model, _ = load_checkpoint(args.ckpt, vocab)
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
    _require_batch_size(args)
    _require_inputs(args.systems, args.vocab, args.ckpt)
    systems = load_dataset(args.systems)
    vocab = Vocabulary.load(args.vocab)
    model, _ = load_checkpoint(args.ckpt, vocab)
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
    started = time.perf_counter()
    parser = build_parser()
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return EXIT_USER_ERROR
        _apply_config_file(args, parser.commands[args.command])
        args.started = started  # for the manifest's wall time, not part of the config
        logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
        _COMMANDS[args.command](args)
        return EXIT_OK
    except ConfigError as exc:  # a model or run setting: name the flag that set it
        flag = {**_MODEL_FLAGS, **_RUN_FLAGS}.get(exc.field, (f"--{exc.field}",))[0]
        print(f"error: {flag}: {exc}", file=sys.stderr)
        return EXIT_USER_ERROR
    except (UserError, ValueError, CheckpointError, FileNotFoundError,
            NonFiniteGradientError) as exc:  # a diverging run is its settings' fault
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER_ERROR
    except Exception as exc:  # internal failure: report and exit 2
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


def main() -> int:
    return run()


@dataclass
class SmokeConfig:
    """Desk-scale end-to-end pipeline configuration; the model and the other
    run settings are fixed in `end_to_end_smoke`."""

    out_dir: Path
    dataset: Path | None = None  # defaults to the bundled fixture dataset
    seed: int = 0
    train_epochs: int = 6


class SmokeStageError(RuntimeError):
    """A pipeline stage failed; the message names the stage."""


def fixture_dataset_path() -> Path:
    from importlib import resources

    return Path(str(resources.files("adsorbtext.data").joinpath(
        "fixture_systems.jsonl")))


def end_to_end_smoke(cfg: SmokeConfig) -> dict:
    """featurize -> build-vocab -> pretrain -> train -> predict -> eval ->
    pairs -> attention -> embeddings on the fixture dataset, in S4 text with
    a fixed desk-scale model and run (the flags below).

    Returns a report with per-stage wall times and the artifact inventory,
    also written beside the artifacts as smoke_report.json; any stage
    failure raises SmokeStageError naming the stage.
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
    fmt = "s4"
    model_flags = ["--layers", "2", "--heads", "2", "--hidden", "32", "--max-positions", "64",
                   "--dropout", "0.0", "--dtype", "float64"]
    train_flags = ["--batch-size", "12", "--lr", "0.001", "--seed", str(cfg.seed)]
    stages = [
        ("featurize", ["featurize", "--in", str(dataset), "--out",
                       str(artifacts["corpus"]), "--format", fmt]),
        ("build-vocab", ["build-vocab", "--in", str(artifacts["corpus"]),
                         "--out", str(artifacts["vocab"])]),
        ("pretrain", ["pretrain", "--corpus", str(artifacts["corpus"]),
                      "--vocab", str(artifacts["vocab"]),
                      "--out", str(artifacts["pretrain_ckpt"]),
                      "--epochs", "2"]
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
                       "--format", fmt]),
        ("embeddings", ["embeddings", "--systems", str(dataset),
                        "--vocab", str(artifacts["vocab"]),
                        "--ckpt", str(artifacts["model_ckpt"]),
                        "--out", str(artifacts["embeddings"]),
                        "--format", fmt]),
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
    with open(out / "smoke_report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return report


if __name__ == "__main__":
    sys.exit(main())
