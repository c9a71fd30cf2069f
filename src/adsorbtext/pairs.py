"""Split-wise MAE, energy-difference pairs, SECR and error propagation.

An energy-difference pair subtracts two predicted energies, so its error
is the difference of the per-system errors. Chemical similarity is exact
string identity of the adsorbate SMILES or the bulk reduced formula:
sharing exactly one of the two puts a pair in the sharing-one subgroup,
sharing both in sharing-two, and at least one shared makes it
chemically similar (the SECR subgroup).

SECR% = 100 * (1 - RMSE(subgroup pair errors) / RMSE(all pair errors)),
with population (divide-by-N) normalization throughout; the choice
cancels in the ratio but is pinned for reproducibility.

Exhaustive pair sets are never materialized: generate_pairs streams, and
the report path accumulates moments one row at a time (all pairs (i, j>i)
of one anchor i per numpy step), which keeps ~3M-pair splits in the
seconds range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .systems import SPLITS


class PredictionRecord(NamedTuple):
    system_id: str
    split: str
    adsorbate_smiles: str
    bulk_formula: str
    label: float       # eV
    prediction: float  # eV

    @property
    def error(self) -> float:
        return self.prediction - self.label


class PairRecord(NamedTuple):
    id_i: str
    id_j: str
    label_diff: float  # ddE label
    pred_diff: float   # ddE prediction
    error: float       # pair error = error_i - error_j
    shares_adsorbate: bool
    shares_bulk: bool


class SimilarityFlags(NamedTuple):
    shares_adsorbate: bool
    shares_bulk: bool
    sharing_one: bool
    sharing_two: bool
    chemically_similar: bool


def similarity_flags(pair: PairRecord) -> SimilarityFlags:
    a, b = pair.shares_adsorbate, pair.shares_bulk
    return SimilarityFlags(a, b, a != b, a and b, a or b)


def sharing_one(pair: PairRecord) -> bool:
    return pair.shares_adsorbate != pair.shares_bulk


def sharing_two(pair: PairRecord) -> bool:
    return pair.shares_adsorbate and pair.shares_bulk


def chemically_similar(pair: PairRecord) -> bool:
    return pair.shares_adsorbate or pair.shares_bulk


def write_predictions(records: Iterable[PredictionRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("system_id\tsplit\tadsorbate_smiles\tbulk_formula\tlabel\tprediction\n")
        for r in records:
            fh.write(f"{r.system_id}\t{r.split}\t{r.adsorbate_smiles}\t"
                     f"{r.bulk_formula}\t{r.label!r}\t{r.prediction!r}\n")


def read_predictions(path: str | Path) -> list[PredictionRecord]:
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        expected = ["system_id", "split", "adsorbate_smiles", "bulk_formula",
                    "label", "prediction"]
        if header != expected:
            raise ValueError(f"{path}: unexpected predictions header {header}")
        for lineno, line in enumerate(fh, start=2):
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 6:
                raise ValueError(f"{path}:{lineno}: expected 6 columns")
            try:
                label, prediction = float(parts[4]), float(parts[5])
            except ValueError:
                label = prediction = math.nan
            if not (math.isfinite(label) and math.isfinite(prediction)):
                # an unlabeled record from `predict` would turn every MAE,
                # RMSE and SECR into nan without an error
                raise ValueError(
                    f"{path}:{lineno}: {parts[0]}: label and prediction must be "
                    f"finite numbers, got {parts[4]!r} and {parts[5]!r}")
            records.append(PredictionRecord(
                parts[0], parts[1], parts[2], parts[3], label, prediction))
    return records


def mae_by_split(records: Sequence[PredictionRecord]) -> list[tuple[str, float, int]]:
    """(split, MAE, count) rows in split order, with a trailing total row."""
    if not records:
        raise ValueError("no prediction records")
    extra = sorted({r.split for r in records} - set(SPLITS))
    rows = []
    for split in (*SPLITS, *extra):
        errs = [abs(r.error) for r in records if r.split == split]
        if errs:
            rows.append((split, sum(errs) / len(errs), len(errs)))
    rows.append(("total", sum(abs(r.error) for r in records) / len(records),
                 len(records)))
    return rows


def _split_groups(records: Sequence[PredictionRecord],
                  within_split: bool) -> list[list[int]]:
    if not within_split:
        return [list(range(len(records)))]
    order: dict[str, list[int]] = {}
    for i, r in enumerate(records):
        order.setdefault(r.split, []).append(i)
    return list(order.values())


def generate_pairs(records: Sequence[PredictionRecord],
                   within_split: bool = True) -> Iterator[PairRecord]:
    """All unordered pairs (n*(n-1)/2 per group) in record order, streamed."""
    ids = [r.system_id for r in records]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate system ids in prediction records")
    for group in _split_groups(records, within_split):
        for a in range(len(group)):
            i = group[a]
            ri = records[i]
            for b in range(a + 1, len(group)):
                rj = records[group[b]]
                yield PairRecord(
                    ri.system_id, rj.system_id,
                    ri.label - rj.label,
                    ri.prediction - rj.prediction,
                    ri.error - rj.error,
                    ri.adsorbate_smiles == rj.adsorbate_smiles,
                    ri.bulk_formula == rj.bulk_formula,
                )


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def secr(pairs: Iterable[PairRecord],
         selector: Callable[[PairRecord], bool]) -> float | None:
    """Subgroup error cancellation ratio in percent; None when undefined
    (empty subgroup or zero total RMSE)."""
    n_total = n_sub = 0
    sq_total = sq_sub = 0.0
    for pair in pairs:
        sq = pair.error * pair.error
        n_total += 1
        sq_total += sq
        if selector(pair):
            n_sub += 1
            sq_sub += sq
    if n_total == 0:
        raise ValueError("empty pair set")
    if n_sub == 0 or sq_total == 0.0:
        return None
    rmse_total = math.sqrt(sq_total / n_total)
    rmse_sub = math.sqrt(sq_sub / n_sub)
    return 100.0 * (1.0 - rmse_sub / rmse_total)


@dataclass(frozen=True)
class PropagationStats:
    """Empirical moments of the pair-error identity e_ij = e_i - e_j.

    var_pair should equal var_i + var_j - 2*cov to numerical precision on
    any pair set; the residual reports the defect.
    """

    n_pairs: int
    var_pair: float
    var_i: float
    var_j: float
    cov: float

    @property
    def independent_sum(self) -> float:
        return self.var_i + self.var_j

    @property
    def residual(self) -> float:
        return abs(self.var_pair - self.var_i - self.var_j + 2.0 * self.cov)


class _MomentAccumulator:
    """Single-pass sums for PropagationStats and RMSE over a pair stream."""

    __slots__ = ("n", "si", "sj", "sii", "sjj", "sij", "sd", "sdd")

    def __init__(self):
        self.n = 0
        self.si = self.sj = self.sii = self.sjj = self.sij = 0.0
        self.sd = self.sdd = 0.0

    def add(self, ei: float, ej: float):
        d = ei - ej
        self.n += 1
        self.si += ei
        self.sj += ej
        self.sii += ei * ei
        self.sjj += ej * ej
        self.sij += ei * ej
        self.sd += d
        self.sdd += d * d

    def add_arrays(self, ei: float, ej: np.ndarray):
        d = ei - ej
        self.n += ej.size
        self.si += ei * ej.size
        self.sj += float(ej.sum())
        self.sii += ei * ei * ej.size
        self.sjj += float((ej * ej).sum())
        self.sij += ei * float(ej.sum())
        self.sd += float(d.sum())
        self.sdd += float((d * d).sum())

    @property
    def rmse(self) -> float:
        return math.sqrt(self.sdd / self.n) if self.n else float("nan")

    def stats(self) -> PropagationStats:
        if self.n == 0:
            raise ValueError("no pairs accumulated")
        n = self.n
        var_i = self.sii / n - (self.si / n) ** 2
        var_j = self.sjj / n - (self.sj / n) ** 2
        cov = self.sij / n - (self.si / n) * (self.sj / n)
        var_pair = self.sdd / n - (self.sd / n) ** 2
        return PropagationStats(n, var_pair, var_i, var_j, cov)


def error_propagation_stats(
    records: Sequence[PredictionRecord],
    pairs: Iterable[PairRecord],
    selector: Callable[[PairRecord], bool] | None = None,
) -> PropagationStats:
    """Empirical Var(e_ij), Var(e_i), Var(e_j) and Cov over a pair stream
    (optionally restricted to a subgroup); per-system errors come from the
    prediction records."""
    if len(records) < 2:
        raise ValueError("need at least two prediction records")
    err_by_id = {r.system_id: r.error for r in records}
    acc = _MomentAccumulator()
    for pair in pairs:
        if selector is None or selector(pair):
            acc.add(err_by_id[pair.id_i], err_by_id[pair.id_j])
    return acc.stats()


SUBGROUPS = ("sharing_one", "sharing_two", "chemically_similar")


@dataclass
class SplitPairReport:
    split: str
    n_systems: int
    n_pairs: int
    rmse_total: float | None
    subgroup_counts: dict[str, int]
    subgroup_rmse: dict[str, float | None]
    subgroup_secr: dict[str, float | None]
    propagation: PropagationStats | None


def split_pair_stats(records: Sequence[PredictionRecord],
                     within_split: bool = True) -> list[SplitPairReport]:
    """Streaming pair statistics per split: counts, RMSEs, SECR, moments.

    Vectorizes over the trailing partners of each anchor record, so memory
    stays O(n) while covering all n*(n-1)/2 pairs exactly.
    """
    reports = []
    groups = _split_groups(records, within_split)
    for group in groups:
        split = records[group[0]].split if within_split else "all"
        n = len(group)
        errors = np.array([records[i].error for i in group])
        smiles_codes = _codes([records[i].adsorbate_smiles for i in group])
        bulk_codes = _codes([records[i].bulk_formula for i in group])

        total = _MomentAccumulator()
        subs = {name: _MomentAccumulator() for name in SUBGROUPS}
        for a in range(n - 1):
            ej = errors[a + 1:]
            total.add_arrays(float(errors[a]), ej)
            same_ads = smiles_codes[a + 1:] == smiles_codes[a]
            same_bulk = bulk_codes[a + 1:] == bulk_codes[a]
            masks = {
                "sharing_one": same_ads ^ same_bulk,
                "sharing_two": same_ads & same_bulk,
                "chemically_similar": same_ads | same_bulk,
            }
            for name, mask in masks.items():
                if mask.any():
                    subs[name].add_arrays(float(errors[a]), ej[mask])

        rmse_total = total.rmse if total.n else None
        counts = {name: acc.n for name, acc in subs.items()}
        rmses = {name: (acc.rmse if acc.n else None) for name, acc in subs.items()}
        secrs = {}
        for name, acc in subs.items():
            if acc.n == 0 or not total.n or total.rmse == 0.0:
                secrs[name] = None
            else:
                secrs[name] = 100.0 * (1.0 - acc.rmse / total.rmse)
        reports.append(SplitPairReport(
            split=split,
            n_systems=n,
            n_pairs=total.n,
            rmse_total=rmse_total,
            subgroup_counts=counts,
            subgroup_rmse=rmses,
            subgroup_secr=secrs,
            propagation=total.stats() if total.n else None,
        ))
    return reports


def _codes(values: list[str]) -> np.ndarray:
    _, codes = np.unique(np.asarray(values, dtype=object), return_inverse=True)
    return codes


def export_parity(records: Sequence[PredictionRecord],
                  out_dir: str | Path) -> list[Path]:
    """Per-split (label, prediction) tables with a summary-MAE comment."""
    if not records:
        raise ValueError("no prediction records")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for split in SPLITS:
        rows = [r for r in records if r.split == split]
        if not rows:
            continue
        mae = sum(abs(r.error) for r in rows) / len(rows)
        path = out_dir / f"parity_{split}.tsv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# split={split} n={len(rows)} mae={mae!r}\n")
            fh.write("label\tprediction\n")
            for r in rows:
                fh.write(f"{r.label!r}\t{r.prediction!r}\n")
        written.append(path)
    return written


def format_pairs_report(reports: list[SplitPairReport]) -> str:
    """Stable plain-text report (bytes reproduce given identical inputs)."""
    lines = ["split\tsystems\tpairs\trmse_total\tsubgroup\tcount\trmse\tsecr_pct"]
    for rep in reports:
        base = f"{rep.split}\t{rep.n_systems}\t{rep.n_pairs}\t{_fmt(rep.rmse_total)}"
        lines.append(base + "\ttotal\t" + str(rep.n_pairs) + "\t"
                     + _fmt(rep.rmse_total) + "\t" + _fmt(0.0 if rep.n_pairs else None))
        for name in SUBGROUPS:
            lines.append(base + f"\t{name}\t{rep.subgroup_counts[name]}\t"
                         f"{_fmt(rep.subgroup_rmse[name])}\t{_fmt(rep.subgroup_secr[name])}")
    lines.append("")
    lines.append("split\tvar_pair\tvar_i_plus_var_j\ttwo_cov\tresidual")
    for rep in reports:
        if rep.propagation is None:
            continue
        p = rep.propagation
        lines.append(f"{rep.split}\t{p.var_pair!r}\t{p.independent_sum!r}\t"
                     f"{2.0 * p.cov!r}\t{p.residual!r}")
    return "\n".join(lines) + "\n"


def _fmt(x: float | None) -> str:
    return "undefined" if x is None else repr(x)
