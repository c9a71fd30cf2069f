"""The benchmark's workloads: inputs made from the seed, timed stages, checks.

Each workload writes its inputs under `<out>/inputs` in `setup()`, then
`run_round()` runs its timed stages once, from scratch, under
`<out>/round`. Stages call the program through its public surface:
`adsorbtext.cli.run([...])` in-process, plus `encoder.forward` and
`analysis.attention_profile` for the attention stage. They are reached
through module attributes, so that traced mode sees every call.

The model seed is fixed; `--seed` only makes the inputs.
"""

from __future__ import annotations

import hashlib
import shutil
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from adsorbtext import analysis, cli, encoder, synth, systems, tokens
from perfbench import checks

MODEL_SEED = 7  # the seed of the criterion-10 benchmark in the test suite
ELEMENT_TABLE = Path(cli.__file__).parent / "data" / "element_table.csv"


class Stage(NamedTuple):
    """One timed stage of a round: `items` of work in `seconds`."""

    metric: str   # throughput name, e.g. predict_systems_per_s
    unit: str
    seconds: float
    items: float
    ok: bool

    @property
    def rate(self) -> float:
        return self.items / self.seconds


def run_cli(argv: list[str]) -> int:
    return cli.run([str(a) for a in argv])


def timed_cli(metric: str, unit: str, items: float, argv: list) -> Stage:
    tic = time.perf_counter()
    code = run_cli(argv)
    return Stage(metric, unit, time.perf_counter() - tic, items, code == 0)


def file_digest(paths: list[Path]) -> str:
    """sha256 of the `sha256sum <files>` listing, so that
    `sha256sum <files> | sha256sum` in the inputs directory recomputes it."""
    listing = "".join(f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.name}\n"
                      for p in paths)
    return hashlib.sha256(listing.encode()).hexdigest()


class Workload:
    """A workload defines `setup()`, which writes `input_files()` from the
    seed, `stages()`, which runs and times one round, and `check_outputs()`,
    which checks the last round's outputs."""

    name = ""
    lead = ""             # metric of the stage reported as throughput_per_s
    pretrain_epochs = 0   # for tokens.dynamic_mask_ms_per_epoch

    def __init__(self, out: Path, seed: int):
        self.seed = seed
        self.inputs = out / "inputs"
        self.work = out / "round"
        self.inputs.mkdir(parents=True, exist_ok=True)

    def run_round(self) -> list[Stage]:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        return self.stages()


# ---------------------------------------------------------------- finetune_s4

class FinetuneS4(Workload):
    """train -> predict -> attention on S4 text with the criterion-10 model
    (4 layers, 4 heads, 64 hidden, float32, 80 positions, dropout 0,
    batch 16), every epoch run (patience = epochs).

    The learning rate is 5e-4, not criterion 10's 1e-3: at 1e-3 a 320-sample
    train set often collapses to a constant predictor within the epochs a
    run can afford, and the learning check would then fail by chance.
    """

    name = "finetune_s4"
    lead = "finetune_samples_per_s"
    SYSTEMS = 400
    SPLITS = {"train": 0.8, "ID": 0.05, "OOD_ads": 0.05, "OOD_cat": 0.05, "OOD_both": 0.05}
    EPOCHS = 6
    LR = 5e-4
    MAX_POSITIONS = 80
    ATTENTION_SYSTEMS = 64
    REFERENCE_SYSTEMS = 32
    REFERENCE_TOL = 1e-5  # eV, about 80 float32 ulps at 1 eV
    MODEL_FLAGS = ["--layers", 4, "--heads", 4, "--hidden", 64, "--dtype", "float32",
                   "--max-positions", MAX_POSITIONS, "--dropout", 0]

    def __init__(self, out: Path, seed: int):
        super().__init__(out, seed)
        self.systems = self.inputs / "systems.jsonl"
        self.corpus = self.inputs / "corpus.jsonl"
        self.vocab = self.inputs / "vocab.txt"
        self.ckpt = self.work / "model.ckpt"
        self.predictions = self.work / "predictions.tsv"
        self.captures: list = []

    def input_files(self) -> list[Path]:
        return [self.systems, self.corpus, self.vocab]

    def setup(self) -> None:
        generated = synth.synthetic_systems(self.SYSTEMS, seed=self.seed,
                                            split_fractions=self.SPLITS)
        systems.save_dataset(generated, self.systems)
        self.n_train = sum(s.split == "train" for s in generated)
        for argv in (["featurize", "--in", self.systems, "--out", self.corpus, "--format", "s4"],
                     ["build-vocab", "--in", self.corpus, "--out", self.vocab]):
            if run_cli(argv) != 0:
                raise RuntimeError(f"setup: `adsorbtext {argv[0]}` failed")

    def stages(self) -> list[Stage]:
        train = timed_cli(
            "finetune_samples_per_s", "samples/s", self.n_train * self.EPOCHS,
            ["train", "--corpus", self.corpus, "--vocab", self.vocab, "--out", self.ckpt,
             "--history", self.work / "history.tsv", "--epochs", self.EPOCHS,
             "--patience", self.EPOCHS, "--batch-size", 16, "--lr", self.LR,
             "--seed", MODEL_SEED, *self.MODEL_FLAGS])
        predict = timed_cli(
            "predict_systems_per_s", "systems/s", self.SYSTEMS,
            ["predict", "--systems", self.systems, "--corpus", self.corpus,
             "--vocab", self.vocab, "--ckpt", self.ckpt, "--out", self.predictions])
        return [train, predict, self.attention()]

    def attention(self) -> Stage:
        """Per system: forward with captured attention, then the word profile
        of the first and the last layer. Loading and encoding are untimed."""
        self.captures = []
        tic = time.perf_counter()
        try:
            model, _ = encoder.load_checkpoint(self.ckpt)
            vocab = tokens.Vocabulary.load(self.vocab)
            texts = [r["text"] for r in checks.read_jsonl(self.corpus)[:self.ATTENTION_SYSTEMS]]
            seqs = [tokens.encode(t, vocab, self.MAX_POSITIONS) for t in texts]
            tic = time.perf_counter()
            for text, seq in zip(texts, seqs):
                res = encoder.forward(model, [seq], capture_attention=True)
                record = res.attention_record(0, seq.n_real)
                profiles = [analysis.attention_profile(record, layer, text, seq)
                            for layer in (0, record.n_layers - 1)]
                self.captures.append((seq.n_real, res.attention, profiles))
            ok = True
        except Exception as exc:  # a failed stage is counted, the run goes on
            print(f"attention stage failed: {type(exc).__name__}: {exc}")
            ok = False
        return Stage("attention_systems_per_s", "systems/s", time.perf_counter() - tic,
                     self.ATTENTION_SYSTEMS, ok)

    def check_outputs(self) -> list[checks.Check]:
        return [
            checks.check_reference_forward(self.ckpt, self.vocab, self.corpus,
                                           self.predictions, self.REFERENCE_SYSTEMS,
                                           self.REFERENCE_TOL),
            checks.check_learning(self.corpus, self.predictions),
            checks.check_attention(self.captures),
        ]


# -------------------------------------------------------------- pretrain_desc

class PretrainDesc(Workload):
    """featurize --format desc -> build-vocab -> pretrain (MLM)."""

    name = "pretrain_desc"
    lead = "pretrain_samples_per_s"
    SYSTEMS = 800
    EPOCHS = 2
    MAX_POSITIONS = 52  # the longest DESC text is 51 tokens
    pretrain_epochs = EPOCHS

    def __init__(self, out: Path, seed: int):
        super().__init__(out, seed)
        self.systems = self.inputs / "systems.jsonl"
        self.corpus = self.work / "corpus.jsonl"
        self.vocab = self.work / "vocab.txt"
        self.history = self.work / "history.tsv"

    def input_files(self) -> list[Path]:
        return [self.systems]

    def setup(self) -> None:
        systems.save_dataset(synth.synthetic_systems(self.SYSTEMS, seed=self.seed),
                             self.systems)

    def stages(self) -> list[Stage]:
        return [
            timed_cli("featurize_systems_per_s", "systems/s", self.SYSTEMS,
                      ["featurize", "--in", self.systems, "--out", self.corpus,
                       "--format", "desc"]),
            timed_cli("build_vocab_records_per_s", "records/s", self.SYSTEMS,
                      ["build-vocab", "--in", self.corpus, "--out", self.vocab]),
            timed_cli("pretrain_samples_per_s", "samples/s", self.SYSTEMS * self.EPOCHS,
                      ["pretrain", "--corpus", self.corpus, "--vocab", self.vocab,
                       "--out", self.work / "pretrain.ckpt", "--history", self.history,
                       "--epochs", self.EPOCHS, "--batch-size", 16, "--lr", 1e-3,
                       "--seed", MODEL_SEED, "--layers", 4, "--heads", 4, "--hidden", 64,
                       "--dtype", "float32", "--max-positions", self.MAX_POSITIONS,
                       "--dropout", 0]),
        ]

    def check_outputs(self) -> list[checks.Check]:
        return [checks.check_contacts(self.systems, self.corpus, ELEMENT_TABLE),
                checks.check_mlm_loss(self.history, self.vocab)]


# ----------------------------------------------------------------- pairs_oc20

class PairsOC20(Workload):
    """`pairs` on four splits the size of the OC20 validation splits.

    Each system draws one of ADSORBATES adsorbates and BULKS bulks. Its
    prediction error is a per-adsorbate plus a per-bulk systematic error
    plus independent noise, so pairs sharing an adsorbate or a bulk cancel
    part of their error and every SECR is positive.
    """

    name = "pairs_oc20"
    lead = "pairs_per_s"
    SPLIT_SIZES = {"ID": 24943, "OOD_ads": 24961, "OOD_cat": 24963, "OOD_both": 24987}
    ADSORBATES = 82
    BULKS = 11500
    SIGMA_ADS, SIGMA_BULK, SIGMA_NOISE = 0.3, 0.3, 0.4  # eV, prediction error
    SIGMA_LABEL = 0.3  # eV, label scatter around the adsorbate + bulk energy

    def __init__(self, out: Path, seed: int):
        super().__init__(out, seed)
        self.pred = self.inputs / "predictions.tsv"
        self.report = self.work / "pairs_report.tsv"
        self.columns: dict[str, tuple[np.ndarray, ...]] = {}

    def input_files(self) -> list[Path]:
        return [self.pred]

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        ads_energy = rng.uniform(-2.0, 1.0, self.ADSORBATES)
        bulk_energy = rng.uniform(-0.5, 0.5, self.BULKS)
        ads_error = rng.normal(0.0, self.SIGMA_ADS, self.ADSORBATES)
        bulk_error = rng.normal(0.0, self.SIGMA_BULK, self.BULKS)
        lines = ["system_id\tsplit\tadsorbate_smiles\tbulk_formula\tlabel\tprediction\n"]
        for split, n in self.SPLIT_SIZES.items():
            ads = rng.integers(self.ADSORBATES, size=n)
            bulk = rng.integers(self.BULKS, size=n)
            label = np.round(ads_energy[ads] + bulk_energy[bulk]
                             + rng.normal(0.0, self.SIGMA_LABEL, n), 4)
            pred = np.round(label + ads_error[ads] + bulk_error[bulk]
                            + rng.normal(0.0, self.SIGMA_NOISE, n), 4)
            self.columns[split] = (ads, bulk, label, pred)
            lines += [f"{split}-{i:05d}\t{split}\tads{a}\tbulk{b}\t{y!r}\t{p!r}\n"
                      for i, (a, b, y, p) in enumerate(zip(
                          ads.tolist(), bulk.tolist(), label.tolist(), pred.tolist()))]
        self.pred.write_text("".join(lines), encoding="utf-8")

    def stages(self) -> list[Stage]:
        pairs = sum(n * (n - 1) // 2 for n in self.SPLIT_SIZES.values())
        return [timed_cli("pairs_per_s", "pairs/s", pairs,
                          ["pairs", "--pred", self.pred, "--report", self.work])]

    def check_outputs(self) -> list[checks.Check]:
        expected = {split: checks.closed_form_pair_stats(pred - label, ads, bulk)
                    for split, (ads, bulk, label, pred) in self.columns.items()}
        return [checks.check_pairs(self.report, expected)]


WORKLOADS = {w.name: w for w in (FinetuneS4, PretrainDesc, PairsOC20)}
