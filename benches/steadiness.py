#!/usr/bin/env python3
"""Run several sets of benchmark runs and print each set's spread.

    python3 benches/steadiness.py --sets 2 --runs 10

Each set runs every workload of BENCHMARK.json once per seed, one run at a
time, for its `run_seconds`; set `s` uses seeds `1 + s * runs` to
`(s + 1) * runs`. For each workload and end-to-end metric it prints, per
set, the median, the first and third quartiles (`statistics.quantiles(n=4)`)
and the quartile spread as a share of the median, then the shift of each
later set's median from the first set's, against the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int) -> tuple[dict, str]:
    """One run's result line and its printed row digest."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "benches" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = out.stdout.strip().splitlines()
    digest = next(line.split()[1] for line in lines if line.startswith("rows_sha256 "))
    return json.loads(lines[-1]), digest


def summarize(records: list[dict], sets: int) -> None:
    for workload in [w["name"] for w in SPEC["workloads"]]:
        print(f"== {workload}")
        mine = [r for r in records if r["workload"] == workload]
        shares = sorted({r["result"]["failed"] / r["result"]["attempted"] for r in mine})
        print(f"   failed share(s): {shares}; correct: {all(r['result']['correct'] for r in mine)}")
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            cells, medians = [], []
            for s in range(sets):
                values = [r["result"]["metrics"][name]["value"] for r in mine if r["set"] == s]
                q1, _, q3 = statistics.quantiles(values, n=4)
                med = statistics.median(values)
                medians.append(med)
                cells.append(
                    f"set{s} n={len(values)} med {med:.4g} q1 {q1:.4g} q3 {q3:.4g} "
                    f"iqr {(q3 - q1) / med:.3f}"
                )
            shift = "".join(f" shift {m / medians[0] - 1:+.3f}" for m in medians[1:])
            print(f"   {name:<20} bound {metric['bound']:<5} " + " | ".join(cells) + shift)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10, help="runs (seeds) per set and workload")
    args = parser.parse_args(argv)

    records = []
    for s in range(args.sets):
        for i in range(args.runs):
            seed = 1 + s * args.runs + i
            for workload in [w["name"] for w in SPEC["workloads"]]:
                result, digest = run_once(workload, seed)
                records.append({"set": s, "workload": workload, "result": result})
                print(f"set {s} seed {seed} {workload}: {json.dumps(result)} rows_sha256 {digest}",
                      file=sys.stderr)
    summarize(records, args.sets)
    return 0


if __name__ == "__main__":
    sys.exit(main())
