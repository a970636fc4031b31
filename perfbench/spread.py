#!/usr/bin/env python3
"""Run the benchmark over several seeds and report how far each metric spreads.

    python3 perfbench/spread.py --seeds 5
    python3 perfbench/spread.py --seeds 10 --first-seed 11 --out perfbench/baseline/seed.json

For every workload of ``BENCHMARK.json`` it runs ``run.py`` once per seed
(``--first-seed`` on), one run at a time, with the file's ``run_seconds``.
The spread of a metric is the distance between the first and third quartile
of its values, as ``statistics.quantiles(values, n=4)`` gives them, as a
share of their median.  An end-to-end metric is steady when its spread is
below a third of its bound.  With ``--out`` it also makes one traced run per
workload and writes every result, the summary and the environment to that
file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import environment

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("inf")


def run_once(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=600, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", help="also write every run's result and the summary here")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    summary, runs, steady = {}, {}, True
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        results = [
            run_once(workload, seed, 0)
            for seed in range(args.first_seed, args.first_seed + args.seeds)
        ]
        runs[workload] = results
        summary[workload] = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results]
            s = spread(values)
            ok = s < bound / 3
            steady &= ok and all(r["correct"] for r in results)
            summary[workload][metric] = {
                "median": statistics.median(values), "spread": s, "bound": bound, "values": values,
            }
            print(f"{workload:14} {metric:20} median {statistics.median(values):12.5f} "
                  f"spread {s:7.4f} bound {bound:5.3f} {'ok' if ok else 'WIDE'}", flush=True)
    if args.out:
        traced = {w: run_once(w, args.first_seed, 1) for w in runs}
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(
                {"seconds": BENCHMARK["run_seconds"], "env": environment(args.first_seed),
                 "summary": summary, "runs": runs, "traced": traced},
                f, indent=1,
            )
            f.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
