#!/usr/bin/env python3
"""Host-cost benchmark of the Salus simulator (see README.md beside this file).

Run from the repository root:

    python3 hostbench/run.py --workload fig10-cold --seed 7 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("fig10-cold", "serve-mixed")
#: ``setup_s`` is the median of this many set-ups: the run's own plus
#: set-up-only runs of this script in child processes.
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--setup-only", action="store_true",
                        help="do the set-up, print its CPU seconds and stop")
    return parser.parse_args(argv)


def probe_setup(args) -> float:
    """CPU seconds of one more set-up, done in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "1", "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr[-4000:]}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def main(argv=None) -> int:
    args = parse_args(argv)
    # Turn SIGTERM into an exception so the finally block below still stops
    # the server child and removes the scratch directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"hostbench: no simulator sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from hbench.measure import tree_cpu_s
    from hbench.provenance import provenance
    from hbench.workloads import END_TO_END_UNITS, PER_LAYER_UNITS, WORKLOADS

    work_root = HERE / "work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    workload = WORKLOADS[args.workload](ROOT, work, args.seed)
    try:
        workload.setup()
        setup_cpu = tree_cpu_s(workload.live_pids())
        if args.setup_only:
            print(json.dumps({"setup_s": setup_cpu}))
            return 0
        if args.trace:
            outcome = workload.run_traced(args.seconds)
        else:
            outcome = workload.run(args.seconds)
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)

    if not args.trace:
        setups = [setup_cpu] + [probe_setup(args) for _ in range(SETUP_REPEATS - 1)]
        outcome.metrics["setup_s"] = statistics.median(setups)
        outcome.notes.append(
            "setup CPU s: " + ", ".join(f"{s:.4f}" for s in setups) + " (median reported)"
        )
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    if set(units) != set(outcome.metrics):
        raise RuntimeError(
            f"metric set mismatch: {sorted(set(units) ^ set(outcome.metrics))}"
        )

    print(f"hostbench {args.workload} seed {args.seed} "
          f"{'traced' if args.trace else 'untraced'}")
    print("provenance: " + json.dumps(provenance(ROOT), sort_keys=True))
    for note in outcome.notes:
        print(f"  {note}")
    if not args.trace:
        print(f"  results_per_wall_s (not gated): {outcome.results_per_wall_s:.6g}")
    for name, unit in units.items():
        print(f"  {name:<40} {outcome.metrics[name]:>16.6g} {unit}")
    for problem in outcome.problems[:20]:
        print(f"CHECK FAILED: {problem}")
    correct = not outcome.problems and outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
