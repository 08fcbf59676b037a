"""One wall-clock benchmark for the X^3 stack.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload build --seed 1 --seconds 12 --trace 0

Workloads (see perfbench/README.md): ``build`` (XML text to a full cube),
``dashboard`` (hot HTTP reads), ``drill`` (cold HTTP reads) and
``ingest`` (cluster reads beside an open-loop writer).  ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` alternates untraced and
traced phases and prints the per-layer ledger.  Every answer is checked
against serial NAIVE; a wrong or failed operation makes the run exit 1.
The last line of standard output is one JSON object.  A full record
(and, for traced runs, the spans) goes to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and make sure
    ``repro`` comes from it; exit 2 when it does not."""
    source = ROOT / "src"
    sys.path.insert(0, str(source))
    try:
        import repro
    except ImportError as error:
        sys.exit(f"perfbench: cannot import repro from {source}: {error}")
    origin = Path(repro.__file__).resolve()
    if source.resolve() not in origin.parents:
        sys.exit(f"perfbench: repro comes from {origin}, not {source}")


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out",
        default=str(HERE / "out"),
        help="directory for the run record and spans (default perfbench/out)",
    )
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    import_program()
    import report
    from ledger import Ledger
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(
            f"perfbench: unknown workload {args.workload!r}; "
            f"expected one of {sorted(WORKLOADS)}"
        )
    if args.seconds <= 0:
        sys.exit("perfbench: --seconds must be positive")
    ledger = Ledger()
    outcome = WORKLOADS[args.workload](
        args.seed, args.seconds, bool(args.trace), ledger
    )
    record = report.summarize(args.workload, outcome, ledger)
    record.update(seed=args.seed, seconds=args.seconds, trace=args.trace)

    os.makedirs(args.out, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        ledger.write_jsonl(os.path.join(args.out, stem + ".spans.jsonl"))
    with open(os.path.join(args.out, stem + ".json"), "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)

    for line in report.table(record):
        print(line)
    for error in record["errors"]:
        print(f"error: {error}", file=sys.stderr)
    chosen = record["per_layer"] if args.trace else record["end_to_end"]
    print(
        json.dumps(
            {
                "correct": record["failed"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in chosen.items()
                },
            }
        )
    )
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
