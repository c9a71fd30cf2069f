"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload finetune_s4 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout: it imports the program from `src/`.
The inputs are made five times (setup_s is the median), then whole
rounds of the workload's stages run until the next one would end after
--seconds; every run makes at least one. With --trace 1 the run makes one
untraced and one traced round instead and reports the per-layer metrics;
the trace itself goes to perfbench/out/<workload>/trace.json. The last
line of the output is a JSON object with correct, attempted, failed and
metrics. `--workload all` runs every workload, each in its own process.
"""

import os

# Single-threaded numerics on a machine with few, shared cores; set
# before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("finetune_s4", "pretrain_desc", "pairs_oc20")
SETUP_REPEATS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    code = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        code |= subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
    return code


def print_metric(name: str, value: float, unit: str) -> None:
    print(f"  {name:<46} {value:>14.6g} {unit}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "adsorbtext" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'adsorbtext'} not found; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.trace import Tracer, unit_of
    from perfbench.workloads import WORKLOADS, file_digest

    out = ROOT / "perfbench" / "out" / args.workload
    workload = WORKLOADS[args.workload](out, args.seed)
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")

    setup_times, digests = [], set()
    for _ in range(SETUP_REPEATS):
        tic = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - tic)
        digests.add(file_digest(workload.input_files()))
    print(f"inputs sha256 {' '.join(sorted(digests))} "
          f"({' '.join(p.name for p in workload.input_files())})")

    rounds = []
    if args.trace:
        rounds.append(workload.run_round())
        with Tracer(f"{workload.name}/seed{args.seed}") as tracer:
            rounds.append(workload.run_round())
    else:
        start = time.perf_counter()
        while True:
            tic = time.perf_counter()
            rounds.append(workload.run_round())
            now = time.perf_counter()
            if now - start + (now - tic) > args.seconds:
                break

    for i, stages in enumerate(rounds, 1):
        label = " (traced)" if args.trace and i == 2 else ""
        print(f"round {i}{label}: " + "  ".join(
            f"{s.metric} {s.rate:.6g} {s.unit}" + ("" if s.ok else " FAILED")
            for s in stages))
    results = []
    try:
        results = workload.check_outputs()
    except Exception as exc:  # an unreadable output fails the check, not the run
        print(f"check error: {type(exc).__name__}: {exc}")
    correct = bool(results) and all(c.ok for c in results) and len(digests) == 1
    for c in results:
        print(f"check {c.name}: {'ok' if c.ok else 'FAILED'} ({c.detail})")
    if len(digests) != 1:
        print("check inputs: FAILED (setup made different inputs from one seed)")

    attempted = sum(len(stages) for stages in rounds)
    failed = sum(not s.ok for stages in rounds for s in stages)
    if args.trace:
        overhead = sum(s.seconds for s in rounds[1]) - sum(s.seconds for s in rounds[0])
        metrics = tracer.metrics(workload.pretrain_epochs, overhead)
        tracer.write(out / "trace.json")
        if tracer.missing:
            print(f"not traced, absent from the program: {', '.join(tracer.missing)}")
        print(f"per-layer metrics of the traced round ({len(tracer.spans)} spans):")
        for name, value in metrics.items():
            print_metric(name, value, unit_of(name))
        report = {name: {"value": value, "unit": unit_of(name)}
                  for name, value in metrics.items()}
    else:
        lead = [s for stages in rounds for s in stages if s.metric == workload.lead]
        e2e = {
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "throughput_per_s": (statistics.median(s.rate for s in lead), "1/s"),
            "pipeline_s": (statistics.median(sum(s.seconds for s in stages)
                                             for stages in rounds), "s"),
        }
        print(f"stage medians over {len(rounds)} round(s):")
        for metric in dict.fromkeys(s.metric for s in rounds[0]):
            stage = [s for stages in rounds for s in stages if s.metric == metric]
            print_metric(metric, statistics.median(s.rate for s in stage), stage[0].unit)
        print(f"end-to-end (throughput_per_s is {workload.lead}):")
        for name, (value, unit) in e2e.items():
            print_metric(name, value, unit)
        report = {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()}
    print(f"operations attempted {attempted} failed {failed}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
