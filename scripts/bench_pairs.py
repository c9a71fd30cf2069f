"""Layer timings of `pairs` at the size of the benchmark's `pairs_oc20` workload.

Run from the repository root with single-threaded BLAS:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/bench_pairs.py --label after

It writes the predictions file of `perfbench/workloads.py`'s `pairs_oc20`
workload (four OC20-size splits, 99,854 records) for `--seed` into a
temporary directory, then times REPEATS (default 15) rounds of the three
layers `pairs` runs: `read_prediction_columns` on the file,
`column_pair_stats` within splits and across them, and
`format_pairs_report` on the within-split statistics. For each it records
every round's seconds, the median and the quartiles. A last untimed round
runs under `tracemalloc` for the traced peak of each layer, and a sha256 of
both reports lets two entries show byte-identical output. None of these
layers runs in training, so criterion 10's validation MAE is not recorded.

The result goes into `--out` (default BENCH_pairs.json) under `--label`,
keeping the other labels already in the file: running the script once with
PYTHONPATH at another checkout's `src` and `--label before`, and once here
with `--label after`, puts both sides in one file. The input generator is
always this checkout's `perfbench`, so both sides read the same bytes. The
entry's `environment` is a run manifest's (`cli.run_environment`, with the
CPU count and the BLAS kernel), so the other checkout's package needs it;
against one without it, run that checkout's own copy of the script from
its root with `--out` at this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.append(str(ROOT))  # perfbench, after the adsorbtext on PYTHONPATH

from adsorbtext import pairs  # noqa: E402
from adsorbtext.cli import run_environment  # noqa: E402
from perfbench.workloads import PairsOC20, file_digest  # noqa: E402


def summary(seconds: list[float]) -> dict:
    q1, median, q3 = np.percentile(seconds, [25, 50, 75])
    return {"median_s": round(float(median), 5), "q1_s": round(float(q1), 5),
            "q3_s": round(float(q3), 5), "seconds": [round(s, 5) for s in seconds]}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="key of this run in the output file")
    parser.add_argument("--out", type=Path, default=Path("BENCH_pairs.json"))
    parser.add_argument("--seed", type=int, default=0, help="seed of the pairs_oc20 inputs")
    parser.add_argument("--repeats", type=int, default=15)
    args = parser.parse_args(argv)
    if args.repeats < 10:
        parser.error("--repeats must be at least 10")

    with tempfile.TemporaryDirectory() as tmp:
        workload = PairsOC20(Path(tmp), args.seed)
        workload.setup()
        state: dict = {}  # each layer's result, for the next layer
        steps = {
            "read": lambda: state.update(columns=pairs.read_prediction_columns(workload.pred)),
            "stats_within": lambda: state.update(
                within=pairs.column_pair_stats(state["columns"])),
            "stats_across": lambda: state.update(
                across=pairs.column_pair_stats(state["columns"], within_split=False)),
            "report": lambda: state.update(report=pairs.format_pairs_report(state["within"])),
        }
        names = list(steps)
        seconds: dict[str, list[float]] = {name: [] for name in names}
        for _ in range(args.repeats):
            for name in names:
                tic = time.perf_counter()
                steps[name]()
                seconds[name].append(time.perf_counter() - tic)
        traced = {}
        tracemalloc.start()
        for name in names:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            steps[name]()
            traced[name] = round((tracemalloc.get_traced_memory()[1] - base) / 2 ** 20, 2)
        tracemalloc.stop()
        run = {
            "environment": run_environment(),
            "seed": args.seed,
            "repeats": args.repeats,
            "inputs_sha256": file_digest([workload.pred]),
            "records": int(len(state["columns"].error)),
            "layers": {name: {**summary(seconds[name]), "traced_peak_mb": traced[name]}
                       for name in names},
            "pipeline_median_s": round(float(np.median(
                [seconds["read"][i] + seconds["stats_within"][i] + seconds["report"][i]
                 for i in range(args.repeats)])), 5),
            "report_sha256": {
                "within": hashlib.sha256(state["report"].encode()).hexdigest(),
                "across": hashlib.sha256(
                    pairs.format_pairs_report(state["across"]).encode()).hexdigest()},
        }

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["config"] = {
        "workload": "pairs_oc20", "split_sizes": PairsOC20.SPLIT_SIZES, "adsorbates": PairsOC20.ADSORBATES,
        "bulks": PairsOC20.BULKS,
        "sigma_eV": {"adsorbate": PairsOC20.SIGMA_ADS, "bulk": PairsOC20.SIGMA_BULK,
                     "noise": PairsOC20.SIGMA_NOISE, "label": PairsOC20.SIGMA_LABEL},
        "criterion_10": "not applicable: the timed layers run no training code",
    }
    doc.setdefault("runs", {})[args.label] = run
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"{args.label}: " + ", ".join(
        f"{name} {run['layers'][name]['median_s'] * 1e3:.1f} ms" for name in names)
        + f"; pipeline {run['pipeline_median_s'] * 1e3:.1f} ms")


if __name__ == "__main__":
    main()
