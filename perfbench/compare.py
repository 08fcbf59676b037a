"""Compare two run sets: a parent commit against a change.

Usage (from the root of a checkout)::

    python3 perfbench/compare.py perfbench/out/parent perfbench/out/change

Each directory holds the ``*.json`` records ``perfbench/run.py --out``
(or ``perfbench/sweep.py --out``) wrote for untraced runs.  Runs are
paired by (workload, seed).  One row per (metric, workload) shows each
side's median and quartiles, the share of pairs the change won, and a
verdict:

- ``gain``: the change won at least 9 of 10 pairs (ties count for
  neither) and the medians differ, in the better direction, by more
  than the parent's interquartile range;
- ``regression``: the change's median is worse than the parent's by
  more than the metric's bound;
- ``unresolved``: the parent's spread (IQR over median) is wider than
  the bound, unless every change run beats every parent run;
- ``same`` otherwise.

Bounds and directions come from BENCHMARK.json; the workload-specific
names each run also records (``query_p95_ms``, ``write_p95_ms``, ...)
take the bound of the end-to-end metric they specialise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

from stats import quartiles, relative_spread

ROOT = Path(__file__).resolve().parent.parent

#: Workload-specific metric -> the end-to-end metric whose bound and
#: direction it takes.
SPECIALISES = {
    "build_s": "op_p50_ms",
    "query_p50_ms": "op_p50_ms",
    "query_p95_ms": "op_p95_ms",
    "query_qps": "ops_per_s",
    "write_p50_ms": "op_p50_ms",
    "write_p95_ms": "op_p95_ms",
}
#: Any rise in the error rate is a regression.
EXACT = {"error_rate": ("lower", 0.0)}


def load(directory: str) -> Dict[Tuple[str, int], Dict[str, float]]:
    """(workload, seed) -> metric values of every untraced record."""
    runs: Dict[Tuple[str, int], Dict[str, float]] = {}
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace"):
            continue
        values = {name: pair[0] for name, pair in record["metrics"].items()}
        values.update(
            {name: pair[0] for name, pair in record["end_to_end"].items()}
        )
        runs[(record["workload"], record["seed"])] = values
    return runs


def rules() -> Dict[str, Tuple[str, float]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    for name, general in SPECIALISES.items():
        out[name] = out[general]
    out.update(EXACT)
    return out


def verdict(
    parent: List[float], change: List[float], better: str, bound: float
) -> Tuple[str, float]:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    share = wins / len(parent)
    p1, p2, p3 = quartiles(parent)
    _, c2, _ = quartiles(change)
    if sign * (c2 - p2) > 0 and share >= 0.9 and abs(c2 - p2) > p3 - p1:
        return "gain", share
    if sign * (c2 - p2) < 0 and abs(c2 - p2) > bound * abs(p2):
        return "regression", share
    spread = relative_spread(parent)
    dominates = (
        min(change) > max(parent) if better == "higher"
        else max(change) < min(parent)
    )
    if spread > bound and not dominates:
        return "unresolved", share
    return "same", share


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = load(argv[0]), load(argv[1])
    pairs = sorted(set(parent) & set(change))
    if not pairs:
        print("compare: no (workload, seed) present in both run sets",
              file=sys.stderr)
        return 2
    known = rules()
    print(
        f"{'workload':<10} {'metric':<14} {'parent q1/med/q3':>30} "
        f"{'change q1/med/q3':>30} {'wins':>6}  verdict"
    )
    regressed = False
    for workload in sorted({w for w, _ in pairs}):
        seeds = [s for w, s in pairs if w == workload]
        names = sorted(set(parent[(workload, seeds[0])]) & set(known))
        for name in names:
            old = [parent[(workload, s)][name] for s in seeds]
            new = [change[(workload, s)][name] for s in seeds]
            better, bound = known[name]
            outcome, share = verdict(old, new, better, bound)
            regressed |= outcome == "regression"
            print(
                f"{workload:<10} {name:<14} "
                f"{'/'.join(f'{v:.4g}' for v in quartiles(old)):>30} "
                f"{'/'.join(f'{v:.4g}' for v in quartiles(new)):>30} "
                f"{share:>6.0%}  {outcome}"
            )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
