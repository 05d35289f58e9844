#!/usr/bin/env python3
"""Run one workload on several seeds and report each metric's spread.

    python3 bench/spread.py --workload cat-wide --seeds 1-10 --seconds 20 --out set1.json

For every metric it prints the median of the per-seed values, the first and
third quartiles (statistics.quantiles(values, n=4)) and their distance as a
share of the median. Runs are made one after another, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / abs(med) if med else None}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="a-b or a,b,c")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write per-seed results and spreads here (JSON)")
    args = parser.parse_args()

    results = {}
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, RUN, "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"seed {seed}: exit {proc.returncode}")
            return 1
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        if not last["correct"]:
            print(f"seed {seed}: output checks failed ({last['failed']}/{last['attempted']})")
        results[seed] = last

    names = list(next(iter(results.values()))["metrics"])
    table = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in results.values()]
        table[name] = spread(values) if len(values) > 1 else {"median": values[0]}
        s = table[name]
        share = s.get("iqr_share")
        print(f"{name:36s} median {s['median']:14.6g}  iqr/median "
              + (f"{share:.3f}" if share is not None else "-"))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
                       "runs": results, "spread": table}, fh, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
