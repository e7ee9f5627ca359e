"""Run the benchmark on seeds 1-10 and report each metric's spread.

    python3 bench/spread.py --workload hulls

Runs the ten seeds one after another (never in parallel), each for the
run_seconds of BENCHMARK.json, and prints, for every end-to-end metric,
the median and the distance between the first and third quartiles
(statistics.quantiles, n=4) as a share of the median, plus the share of
failed operations.  Raw result lines are appended to
bench/out/spread-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SEEDS = range(1, 11)
SECONDS = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    args = p.parse_args()
    log = BENCH / "out" / f"spread-{args.workload}.jsonl"
    log.parent.mkdir(exist_ok=True)
    runs = []
    for seed in SEEDS:
        out = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload",
                              args.workload, "--seed", str(seed), "--seconds",
                              str(SECONDS), "--trace", "0"],
                             cwd=BENCH.parent, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        runs.append(result)
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(result) + "\n")
        print(seed, result["correct"], result["attempted"], result["failed"],
              {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
    print(f"{'metric':14s} {'median':>10s} {'IQR/median':>10s}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        print(f"{name:14s} {med:10.4f} {(q3 - q1) / med:10.3f}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print("failed shares:", sorted(shares), "all correct:", all(r["correct"] for r in runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
