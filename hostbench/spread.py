#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

Run from the repository root:

    python3 hostbench/spread.py --workload serve-mixed --seeds 1-10

Runs ``run.py`` once per seed, one run at a time, and prints each metric's
median and inter-quartile distance as a share of the median (the figure
BENCHMARK.json's bounds are judged against), with the wall-clock twin of
``results_per_cpu_s`` beside it for comparison. The twin is read from the
line ``run.py`` prints for it: the result object on the last line carries
only the gated metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from hbench.measure import quartile_spread  # noqa: E402

WALL_TWIN = "results_per_wall_s (not gated):"


def seed_list(text: str):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                          timeout=300)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{done.stdout[-2000:]}"
                           f"\n{done.stderr[-2000:]}")
    values = {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()}
    for line in lines:
        if WALL_TWIN in line:
            values["(wall) results_per_wall_s"] = float(line.split(WALL_TWIN)[1])
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=json.loads(
        (HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in json.loads(
        (HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]}
    for workload in args.workload:
        runs = []
        for seed in args.seeds:
            runs.append(one_run(workload, seed, args.seconds))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v:.5g}" for k, v in runs[-1].items()), flush=True)
        print(f"\n{workload}: {len(runs)} runs")
        print(f"  {'metric':<28} {'median':>12} {'spread':>8} {'bound':>6}")
        for name in runs[0]:
            values = [run[name] for run in runs]
            spread = quartile_spread(values) if len(values) >= 2 else 0.0
            bound = bounds.get(name)
            print(f"  {name:<28} {statistics.median(values):>12.5g} "
                  f"{spread:>8.2%} {'' if bound is None else f'{bound:.2f}':>6}")
        print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
