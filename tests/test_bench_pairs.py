"""scripts/bench_pairs.py: its record count, environment and report hashes."""

import importlib.util
import json
from pathlib import Path

from adsorbtext.cli import run_environment

ROOT = Path(__file__).resolve().parent.parent


def test_bench_pairs_times_the_workload_size_and_hashes_its_reports(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    out = tmp_path / "bench.json"
    bench.main(["--label", "test", "--repeats", "10", "--out", str(out)])
    doc = json.loads(out.read_text())
    run = doc["runs"]["test"]
    assert doc["config"]["workload"] == "pairs_oc20"
    assert run["records"] == 99_854 and run["seed"] == 0 and run["repeats"] == 10
    assert run["environment"] == run_environment()
    assert all(len(layer["seconds"]) == 10 for layer in run["layers"].values())
    # within splits: the sha256 of the pairs_oc20 workload's pairs_report.tsv at seed 0
    assert run["report_sha256"] == {
        "within": "6aea5b48124b871b24693ed8abc6f5b97e933b8f37696ae37045b57d36c1441d",
        "across": "a340570d284ffb888f6cc10cc8728906f07d30d51a0131176c211f47449f8ac7"}
