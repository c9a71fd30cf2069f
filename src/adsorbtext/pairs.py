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

The report path visits no pair: the n_g*(n_g-1)/2 pairs of a group of
n_g records have squared errors summing to n_g * sum (e - mean)^2, so
adsorbate, bulk and (adsorbate, bulk) group sums give every count and
RMSE, and rank weights give the moments of the ordered pairs (i, j>i).
Groups come from the integer codes through a table, without a sort, so
a split of n records takes O(n) for codes below n; wider keys, such as
(adsorbate, bulk) codes, are sorted, O(n log n).
generate_pairs and secr visit each pair and are the reference for tests,
as is the pair-visiting error propagation in tests/reference_ops.py.
"""

from __future__ import annotations

import itertools
import math
from array import array
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


def sharing_one(pair: PairRecord) -> bool:
    return pair.shares_adsorbate != pair.shares_bulk


def sharing_two(pair: PairRecord) -> bool:
    return pair.shares_adsorbate and pair.shares_bulk


def chemically_similar(pair: PairRecord) -> bool:
    return pair.shares_adsorbate or pair.shares_bulk


_HEADER = ["system_id", "split", "adsorbate_smiles", "bulk_formula", "label", "prediction"]


def write_predictions(records: Iterable[PredictionRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(_HEADER) + "\n")
        for r in records:
            fh.write(f"{r.system_id}\t{r.split}\t{r.adsorbate_smiles}\t"
                     f"{r.bulk_formula}\t{r.label!r}\t{r.prediction!r}\n")


def _prediction_rows(path: str | Path) -> Iterator[tuple[list[str], float, float]]:
    """Checked (columns, label, prediction) of each line of a predictions file."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if header != _HEADER:
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
            yield parts, label, prediction


def read_predictions(path: str | Path) -> list[PredictionRecord]:
    return [PredictionRecord(*parts[:4], label, prediction)
            for parts, label, prediction in _prediction_rows(path)]


class PredictionColumns(NamedTuple):
    """Records in order; codes number a column's strings by first appearance."""
    split_names: list[str]  # split_names[c] is the name of split code c
    split: np.ndarray
    adsorbate: np.ndarray
    bulk: np.ndarray
    label: np.ndarray       # eV
    prediction: np.ndarray  # eV
    error: np.ndarray       # prediction - label, eV


def record_columns(records: Iterable[PredictionRecord]) -> PredictionColumns:
    """Prediction records held in memory as columns."""
    splits, adsorbates, bulks = {}, {}, {}
    split, adsorbate, bulk, label, prediction = (array(t) for t in "qqqdd")
    for r in records:
        split.append(splits.setdefault(r.split, len(splits)))
        adsorbate.append(adsorbates.setdefault(r.adsorbate_smiles, len(adsorbates)))
        bulk.append(bulks.setdefault(r.bulk_formula, len(bulks)))
        label.append(r.label)
        prediction.append(r.prediction)
    columns = [np.array(c) for c in (split, adsorbate, bulk, label, prediction)]
    return PredictionColumns(list(splits), *columns, columns[4] - columns[3])


_CHUNK_CHARS = 1 << 16  # characters read_prediction_columns parses at a time


def read_prediction_columns(path: str | Path) -> PredictionColumns:
    """read_predictions as columns, with its checks but no object per record.

    The records are parsed in chunks of whole lines, each split once into
    its fields with a newline field closing every line, so one slice per
    column; all of a chunk's newlines falling in every 7th field checks
    every line's column count. Each string column maps its strings to the
    row of their first appearance in the file; ranking those rows gives
    the codes. A chunk that fails a check
    hands the file to the line parser, which raises its message for the
    first bad line.
    """
    firsts = ({}, {}, {})  # split, adsorbate, bulk: string -> row of first appearance
    chunks = [[np.empty(0, np.int64)] * 3 + [np.empty(0, np.float64)] * 2]  # dtypes, no rows
    rows = 0
    try:
        with open(path, "r", encoding="utf-8") as fh:
            if fh.readline().rstrip("\n").split("\t") != _HEADER:
                raise ValueError(f"{path}: unexpected predictions header")
            while text := fh.read(_CHUNK_CHARS):
                text += fh.readline()
                if not text.endswith("\n"):
                    text += "\n"
                fields = text.replace("\n", "\t\n\t").split("\t")
                n = len(fields) // 7
                # with n lines of 6 columns, the n newlines are every 7th field
                if (len(fields) != 7 * n + 1 or text.count("\n") != n
                        or fields[6::7].count("\n") != n):
                    raise ValueError(f"{path}: expected 6 columns")
                codes = [np.fromiter(map(first.setdefault, fields[c::7], itertools.count(rows)),
                                     np.int64, n) for c, first in zip((1, 2, 3), firsts)]
                values = [np.fromiter(map(float, fields[c::7]), np.float64, n) for c in (4, 5)]
                if not all(np.isfinite(v).all() for v in values):
                    raise ValueError(f"{path}: label and prediction must be finite numbers")
                chunks.append(codes + values)
                rows += n
    except ValueError:
        for _ in _prediction_rows(path):  # raises naming the first bad line
            pass
        raise
    columns = [np.concatenate(parts) for parts in zip(*chunks)]
    code_of_row = np.empty(rows, np.int64)
    for c, first in enumerate(firsts):
        code_of_row[np.fromiter(first.values(), np.int64, len(first))] = np.arange(len(first))
        columns[c] = code_of_row[columns[c]]
    return PredictionColumns(list(firsts[0]), *columns, columns[4] - columns[3])


def _mae(errors: np.ndarray) -> float:
    # Python's sum in record order: the reports' digits do not depend on
    # numpy's pairwise summation
    return sum(np.abs(errors).tolist()) / len(errors)


def _splits(columns: PredictionColumns) -> Iterator[tuple[str, np.ndarray]]:
    """(split, its record indices in order) for each split of SPLITS present."""
    for name in SPLITS:
        if name in columns.split_names:
            yield name, np.flatnonzero(columns.split == columns.split_names.index(name))


def mae_by_split(columns: PredictionColumns) -> list[tuple[str, float, int]]:
    """(split, MAE, count) rows in split order, with a trailing total row."""
    if not len(columns.error):
        raise ValueError("no prediction records")
    rows = [(name, _mae(columns.error[idx]), len(idx))
            for name, idx in _splits(columns)]
    rows.append(("total", _mae(columns.error), len(columns.error)))
    return rows


def generate_pairs(records: Sequence[PredictionRecord],
                   within_split: bool = True) -> Iterator[PairRecord]:
    """All unordered pairs (n*(n-1)/2 per split) in record order, streamed."""
    ids = [r.system_id for r in records]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate system ids in prediction records")
    groups: dict[str, list[PredictionRecord]] = {}
    for r in records:
        groups.setdefault(r.split if within_split else "all", []).append(r)
    for group in groups.values():
        for a, ri in enumerate(group):
            for rj in group[a + 1:]:
                yield PairRecord(ri.system_id, rj.system_id, ri.label - rj.label,
                                 ri.prediction - rj.prediction, ri.error - rj.error,
                                 ri.adsorbate_smiles == rj.adsorbate_smiles,
                                 ri.bulk_formula == rj.bulk_formula)


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
        n_total, sq_total = n_total + 1, sq_total + sq
        if selector(pair):
            n_sub, sq_sub = n_sub + 1, sq_sub + sq
    if n_total == 0:
        raise ValueError("empty pair set")
    if n_sub == 0 or sq_total == 0.0:
        return None
    return 100.0 * (1.0 - math.sqrt(sq_sub / n_sub) / math.sqrt(sq_total / n_total))


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
    return column_pair_stats(record_columns(records), within_split)


def column_pair_stats(columns: PredictionColumns,
                      within_split: bool = True) -> list[SplitPairReport]:
    """Counts, RMSEs, SECRs and moments over the pairs (i, j>i) of each split
    in order of first appearance, or of all records as split "all"."""
    if not len(columns.error):
        raise ValueError("no prediction records")
    split = columns.split if within_split else np.zeros_like(columns.split)
    names = columns.split_names if within_split else ["all"]
    order = np.argsort(split, kind="stable")
    return [_split_report(name, columns.error[idx], columns.adsorbate[idx], columns.bulk[idx])
            for name, idx in zip(names, np.split(order, np.cumsum(np.bincount(split))[:-1]))]


class _Groups(NamedTuple):
    index: np.ndarray  # group of each value
    first: np.ndarray  # index of the first value of each group
    size: np.ndarray
    mean: np.ndarray
    sq: np.ndarray     # sum of squared deviations from the mean


def _groups(x: np.ndarray, keys: np.ndarray) -> _Groups:
    """Sums of x by non-negative integer key, in key order. Each group is
    shifted by its first value before averaging, so a group of equal
    values sums to exactly zero.

    Keys below the number of values are ranked without a sort: the keys
    present are marked in a table and numbered in table order. Wider keys
    are ranked by np.unique: on the pairs_oc20 inputs, whose (adsorbate,
    bulk) key spans 9-34 values per record, a table for it was no faster
    than np.unique and took 5 bytes per slot, while a table of at most one
    slot per value stays smaller than np.unique's own buffers.
    """
    n_keys = int(keys.max()) + 1
    if n_keys <= len(keys):
        marked = np.zeros(n_keys, bool)
        marked[keys] = True
        present = np.flatnonzero(marked)
        rank = np.empty(n_keys, np.int32)
        rank[present] = np.arange(len(present))
        index = rank[keys].astype(np.intp)
    else:
        index = np.unique(keys, return_inverse=True)[1]
    size = np.bincount(index)
    first = np.full(len(size), len(keys))
    np.minimum.at(first, index, np.arange(len(keys)))
    shifted = x - x[first][index]
    offset = np.bincount(index, weights=shifted) / size
    sq = np.bincount(index, weights=(shifted - offset[index]) ** 2)
    return _Groups(index, first, size, x[first] + offset, sq)


def _cross_sq(parent: _Groups, child: _Groups) -> float:
    """Sum of (x_a - x_b)^2 over pairs in one parent group but different
    child groups: sum (n_p - n_h) sq_h + n_p n_h (mean_h - mean_p)^2 over
    the children h. No term is negative, so nothing cancels."""
    p = parent.index[child.first]
    n_p = parent.size[p]
    return float(((n_p - child.size) * child.sq
                  + n_p * child.size * (child.mean - parent.mean[p]) ** 2).sum())


def _split_report(split: str, errors: np.ndarray, adsorbate: np.ndarray,
                  bulk: np.ndarray) -> SplitPairReport:
    n, n_pairs = len(errors), pair_count(len(errors))
    whole, ads, blk = (_groups(errors, keys) for keys in (np.zeros(n, int), adsorbate, bulk))
    both = _groups(errors, ads.index * len(blk.size) + blk.index)
    sq_total = n * float(whole.sq.sum())
    n_ads, n_blk, n_two = (int(pair_count(g.size).sum()) for g in (ads, blk, both))
    sq_one = _cross_sq(ads, both) + _cross_sq(blk, both)
    sq_two = float((both.size * both.sq).sum())
    sums = {"sharing_one": (n_ads + n_blk - 2 * n_two, sq_one),
            "sharing_two": (n_two, sq_two),
            "chemically_similar": (n_ads + n_blk - n_two, sq_one + sq_two)}
    rmse_total = math.sqrt(sq_total / n_pairs) if n_pairs else None
    # a subgroup of every pair is the total, with a SECR of exactly 0
    rmses = {name: math.sqrt((sq_total if count == n_pairs else sq) / count) if count else None
             for name, (count, sq) in sums.items()}
    propagation = None
    if n_pairs:
        # the pair (a, b), a < b, has x_a on its i side and x_b on its j side,
        # so x_k is on the i side of n-1-k pairs and on the j side of k pairs;
        # shifting by the first error keeps a constant split exactly zero
        x = errors - errors[0]
        w_j = np.arange(n)
        w_i = n - 1 - w_j
        mean_i, mean_j = float((w_i * x).sum()) / n_pairs, float((w_j * x).sum()) / n_pairs
        u, v = x - mean_i, x - mean_j
        u_before = np.concatenate(([0.0], np.cumsum(u)[:-1]))  # sum of u_a over a < b
        propagation = PropagationStats(
            n_pairs, sq_total / n_pairs - (mean_i - mean_j) ** 2,
            float((w_i * u * u).sum()) / n_pairs, float((w_j * v * v).sum()) / n_pairs,
            float((u_before * v).sum()) / n_pairs)
    secrs = {name: 100.0 * (1.0 - rmse / rmse_total) if rmse is not None and rmse_total
             else None for name, rmse in rmses.items()}
    counts = {name: count for name, (count, _) in sums.items()}
    return SplitPairReport(split, n, n_pairs, rmse_total, counts, rmses, secrs, propagation)


def export_parity(columns: PredictionColumns, out_dir: str | Path) -> list[Path]:
    """Per-split (label, prediction) tables with a summary-MAE comment."""
    if not len(columns.error):
        raise ValueError("no prediction records")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for split, idx in _splits(columns):
        path = out_dir / f"parity_{split}.tsv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# split={split} n={len(idx)} mae={_mae(columns.error[idx])!r}\n")
            fh.write("label\tprediction\n")
            for y, p in zip(columns.label[idx].tolist(), columns.prediction[idx].tolist()):
                fh.write(f"{y!r}\t{p!r}\n")
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
