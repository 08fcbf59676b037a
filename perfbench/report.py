"""Turn a workload's samples and spans into named metrics."""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Tuple

import ledger as spans_mod
from stats import median, percentile

#: The end-to-end metrics every workload reports (``--trace 0``).  The
#: timed operation is one XML-to-cube build on ``build`` and one client
#: read on the serving workloads.
END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

TIERS = ("cache", "view", "rollup", "incremental", "recompute")

#: Per-layer counts and ratios, with the unit that names their base.
COUNTS = (
    ("columnar.encodes", "count/op"),
    ("algorithms.calls", "count/op"),
    ("algorithms.rows_x_points", "row_points/call"),
    *((f"serve.tier_{tier}", "share") for tier in TIERS),
    ("serve.evictions", "count/op"),
    ("serve.singleflight_joins", "count/op"),
    ("cluster.stale_retries", "count/op"),
    ("cluster.rejects", "count/op"),
    ("server.response_bytes", "B/response"),
    ("server.admission_rejected", "share"),
    ("loadgen.write_late_p95_ms", "ms"),
    ("trace.overhead_op_p50", "ratio"),
    ("ledger.coverage_gap", "ratio"),
)


def per_layer_names() -> List[Tuple[str, str]]:
    """Every ``--trace 1`` metric, in report order."""
    out = []
    for metric, _ in spans_mod.SELF_TIMES:
        out += [(f"{metric}.p50", "s"), (f"{metric}.p95", "s")]
    out += [
        ("cluster.shard_query_max_s.p50", "s"),
        ("cluster.shard_query_max_s.p95", "s"),
    ]
    return out + list(COUNTS)


def summarize(workload: str, outcome, ledger) -> Dict[str, Any]:
    samples = outcome.samples
    peak_rss_mb = outcome.peak_rss_mb
    primary = "build" if workload == "build" else "read"
    failures = [s.error for s in samples if s.error]
    calm = [s.seconds for s in samples if s.kind == primary and not s.traced]
    traced = [s.seconds for s in samples if s.kind == primary and s.traced]
    writes = [s.seconds for s in samples if s.kind == "write" and not s.traced]
    elapsed = outcome.phase_seconds[False]
    setup = median(outcome.setup_seconds)
    p95 = percentile(calm, 0.95)

    end_to_end = {
        "setup_s": setup,
        "op_p50_ms": median(calm) * 1e3,
        "op_p95_ms": p95 * 1e3,
        "ops_per_s": len(calm) / elapsed if elapsed else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }
    metrics: Dict[str, Tuple[float, str]] = {
        "setup_s": (setup, "s"),
        "op_samples_beyond_p95": (sum(1 for v in calm if v > p95), "count"),
        "error_rate": (len(failures) / max(1, len(samples)), "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    if primary == "build":
        metrics["build_s"] = (median(calm), "s")
        metrics["build_samples"] = (len(calm), "count")
    else:
        metrics["query_p50_ms"] = (end_to_end["op_p50_ms"], "ms")
        metrics["query_p95_ms"] = (end_to_end["op_p95_ms"], "ms")
        metrics["query_qps"] = (end_to_end["ops_per_s"], "1/s")
        metrics["query_samples"] = (len(calm), "count")
    if writes:
        metrics["write_p50_ms"] = (median(writes) * 1e3, "ms")
        metrics["write_p95_ms"] = (percentile(writes, 0.95) * 1e3, "ms")
        metrics["write_samples"] = (len(writes), "count")

    record: Dict[str, Any] = {
        "workload": workload,
        "attempted": len(samples),
        "failed": len(failures),
        "errors": [f"{n}x {e}" for e, n in Counter(failures).most_common(5)],
        "end_to_end": {
            name: (end_to_end[name], unit) for name, unit in END_TO_END
        },
        "metrics": metrics,
        "setup_runs_s": outcome.setup_seconds,
        "facts": outcome.facts,
    }
    if traced:
        record.update(ledger_figures(outcome, ledger, primary, calm, traced))
    else:
        record["per_layer"] = {}
    return record


def ledger_figures(outcome, ledger, primary: str, calm, traced) -> Dict[str, Any]:
    spans = ledger.spans
    table = spans_mod.layer_table(spans)
    traced_ops = [s for s in outcome.samples if s.traced]
    ops = max(1, len(traced_ops))
    values: Dict[str, float] = {}
    for metric, name in spans_mod.SELF_TIMES:
        row = table.get(name, {"p50_s": 0.0, "p95_s": 0.0})
        values[f"{metric}.p50"] = row["p50_s"]
        values[f"{metric}.p95"] = row["p95_s"]
    slowest = spans_mod.shard_max(spans)
    values["cluster.shard_query_max_s.p50"] = percentile(slowest, 0.50)
    values["cluster.shard_query_max_s.p95"] = percentile(slowest, 0.95)

    encodes = table.get("columnar.encode", {}).get("spans", 0)
    calls = table.get("algorithms.run", {}).get("spans", 0)
    scanned, scans = spans_mod.attr_totals(spans, "algorithms.run", "rows_x_points")
    tiers = spans_mod.tier_counts(spans)
    reads = max(1, sum(tiers.values()))
    sent, responses = spans_mod.attr_totals(spans, "server.encode", "bytes")
    handled = table.get("server.handle", {}).get("spans", 0)
    counters = outcome.counters
    late = [s.late for s in traced_ops if s.kind == "write"]
    values.update({
        "columnar.encodes": encodes / ops,
        "algorithms.calls": calls / ops,
        "algorithms.rows_x_points": scanned / scans if scans else 0.0,
        **{f"serve.tier_{t}": tiers.get(t, 0) / reads for t in TIERS},
        "serve.evictions": counters.get("evictions", 0.0) / ops,
        "serve.singleflight_joins": counters.get("singleflight_joins", 0.0) / ops,
        "cluster.stale_retries": counters.get("stale_retries", 0.0) / ops,
        "cluster.rejects": counters.get("rejects", 0.0) / ops,
        "server.response_bytes": sent / responses if responses else 0.0,
        "server.admission_rejected": (
            counters.get("admission_rejected", 0.0) / handled if handled else 0.0
        ),
        "loadgen.write_late_p95_ms": percentile(late, 0.95) * 1e3,
        "trace.overhead_op_p50": median(traced) / median(calm) if calm else 0.0,
    })
    # Self times of every layer a traced operation crossed, added up and
    # set against the operation's own latency: the coverage is 1 when
    # every part of it is attributed to a layer, below 1 when some of it
    # is not, above 1 where spans overlap in time.  The gated figure is
    # its distance from 1.
    roots = {s.sid: s for s in spans if s.name == f"client.{primary}"}
    own = spans_mod.self_times(spans)
    owner = {root.req for root in roots.values()}
    attributed = sum(own[s.sid] for s in spans if s.req in owner)
    latency = sum(root.end - root.start for root in roots.values())
    coverage = attributed / latency if latency else 0.0
    values["ledger.coverage_gap"] = abs(coverage - 1.0)
    units = dict(per_layer_names())
    return {
        "per_layer": {name: (values[name], units[name]) for name, _ in per_layer_names()},
        "layers": table,
        "counts": {
            "traced_ops": len(traced_ops),
            "encodes": encodes,
            "algorithm_calls": calls,
            "tiers": tiers,
            "responses": responses,
            "http_requests": handled,
            "writes": len(late),
            "ledger_coverage": coverage,
            **counters,
        },
    }


def table(record: Dict[str, Any]) -> List[str]:
    """The human-readable report printed before the JSON line."""
    lines = [
        f"perfbench {record['workload']} seed {record['seed']} "
        f"seconds {record['seconds']:g} trace {record['trace']}",
        "  sizes: " + ", ".join(f"{k}={v}" for k, v in record["facts"].items()),
    ]
    for name, (value, unit) in sorted(record["metrics"].items()):
        lines.append(f"  {name:<34} {value:>14.6g} {unit}")
    for name, (value, unit) in record["per_layer"].items():
        lines.append(f"  {name:<34} {value:>14.6g} {unit}")
    lines.append(
        f"  attempted {record['attempted']}, failed {record['failed']}"
    )
    return lines
