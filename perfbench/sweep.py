"""Run a set of benchmark runs and report how steady each metric is.

Usage (from the root of a checkout)::

    python3 perfbench/sweep.py --out perfbench/out/parent --seeds 1-10
    python3 perfbench/sweep.py --out perfbench/out/parent --seeds 1-5 \\
        --workloads drill --seconds 15

Runs ``perfbench/run.py`` once per (seed, workload), one at a time,
with ``--trace 0`` unless ``--trace 1`` is given, and keeps each run's
record in ``--out``.  Then, per workload and end-to-end metric, prints
the median, the interquartile range as a share of the median, and the
metric's bound from BENCHMARK.json; a spread above a third of the bound
is flagged.  Each run's host steal share (the machine's CPU time the
hypervisor gave to other guests during the run, from ``/proc/stat``) is
printed beside it.  ``perfbench/compare.py`` compares two such
directories.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from stats import quartiles, relative_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def cpu_ticks() -> Optional[Tuple[int, int]]:
    """(steal, total) CPU ticks of the machine, from ``/proc/stat``."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            ticks = [int(field) for field in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks)


def seed_list(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += list(range(int(low), int(high or low) + 1))
    return seeds


def main(argv: List[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(prog="perfbench-sweep", description=__doc__)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument(
        "--workloads",
        default=",".join(w["name"] for w in spec["workloads"]),
    )
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    out = Path(args.out).resolve()
    workloads = args.workloads.split(",")
    results: Dict[str, List[dict]] = {name: [] for name in workloads}
    steals: Dict[str, List[float]] = {name: [] for name in workloads}
    tails: Dict[str, List[int]] = {name: [] for name in workloads}
    for seed in seed_list(args.seeds):
        for workload in workloads:
            before = cpu_ticks()
            started = time.monotonic()
            done = subprocess.run(
                [
                    sys.executable, str(HERE / "run.py"),
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", f"{args.seconds:g}",
                    "--trace", str(args.trace), "--out", str(out),
                ],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            took = time.monotonic() - started
            after = cpu_ticks()
            if done.returncode != 0:
                print(done.stdout[-2000:], done.stderr[-2000:], sep="\n")
                print(f"{workload} seed {seed}: exit {done.returncode}")
                return 1
            results[workload].append(json.loads(done.stdout.splitlines()[-1]))
            steal = 0.0
            if before and after and after[1] > before[1]:
                steal = (after[0] - before[0]) / (after[1] - before[1])
            steals[workload].append(steal)
            record = out / f"{workload}-seed{seed}-trace{args.trace}.json"
            beyond = json.loads(record.read_text())["metrics"]
            tails[workload].append(int(beyond["op_samples_beyond_p95"][0]))
            print(
                f"{workload} seed {seed}: {took:.1f}s wall, "
                f"host steal {steal:.3f}",
                flush=True,
            )

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    print(f"\n{'workload':<10} {'metric':<34} {'median':>12} {'spread':>8} {'bound':>6}")
    steady = True
    for workload, runs in results.items():
        names = runs[0]["metrics"] if runs else {}
        for name in names:
            values = [run["metrics"][name]["value"] for run in runs]
            q2 = quartiles(values)[1]
            spread = relative_spread(values)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound / 3:
                flag, steady = "  > bound/3", False
            print(
                f"{workload:<10} {name:<34} {q2:>12.5g} {spread:>8.3f} "
                f"{bound if bound is not None else '':>6}{flag}"
            )
        if runs:
            attempted = sum(run["attempted"] for run in runs)
            failed = sum(run["failed"] for run in runs)
            print(
                f"{workload:<10} host steal max {max(steals[workload]):.3f}; "
                f"fewest samples beyond p95 {min(tails[workload])}; "
                f"operations attempted {attempted}, failed {failed}"
            )
    return 0 if steady else 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
