"""Run-to-run spread of the end-to-end metrics on this host.

Usage, from the root of a checkout:

    python3 perfbench/spread.py [--seeds 1-10] [--out FILE]

Runs the benchmark once per seed and workload, one run at a time, for the
run_seconds that BENCHMARK.json sets, and reports for each metric the median
of its values and the distance between their first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median.  It does
the same for the uncorrected timings of each run's metadata, which show the
spread that the contention correction (calibration.py) takes out.  With
``--out`` the summary is written as JSON (the committed baseline.json was
made this way).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def one_run(workload: str, seed: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(RUN_SECONDS), "--trace", "0"],
        capture_output=True, text=True, timeout=600, cwd=HERE.parent, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["meta"] = json.loads(lines[-2])["meta"]
    result["wall_s"] = time.perf_counter() - t0
    return result


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range FIRST-LAST")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    first, last = (int(s) for s in args.seeds.split("-"))

    summary = {"seeds": args.seeds, "seconds": RUN_SECONDS, "workloads": {}}
    for workload in workloads.WORKLOADS:
        runs = [one_run(workload, seed) for seed in range(first, last + 1)]
        summary["host"] = {k: runs[0]["meta"][k] for k in ("python", "nproc", "cpu", "git_commit")}
        metrics = {
            name: summarise([r["metrics"][name]["value"] for r in runs])
            for name in runs[0]["metrics"]
        }
        uncorrected = {
            name: summarise([r["meta"]["uncorrected"][name] for r in runs])
            for name in runs[0]["meta"]["uncorrected"]
        }
        summary["workloads"][workload] = {
            "all_correct": all(r["correct"] for r in runs),
            "wall_s": [r["wall_s"] for r in runs],
            "metrics": metrics,
            "uncorrected": uncorrected,
        }
        for label, group in (("", metrics), ("uncorrected ", uncorrected)):
            for name, s in group.items():
                print(f"{workload:16s} {label}{name:12s} median {s['median']:.6g}  "
                      f"spread {s['spread']:.4f}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
