"""The four workloads: inputs, set-up, timed load, and the oracle.

Every workload makes its inputs from the seed, sets the program up
several times (``setup_s`` is the median), computes its
correctness reference once outside the timed region, then runs timed
phases.  Most set-ups run before the timed phases and the rest after
them, so their median samples the machine's speed across the whole run.
Each client checks an answer right after timing it and keeps only the
verdict, so the benchmark holds no response bodies.  An untraced run is
one phase of ``seconds``; a traced run alternates untraced and traced
phases of ``seconds / 4`` each, so the tracing overhead is a ratio taken
within one process.  Load comes from this process: at most two client
threads, each with one persistent connection.
"""

from __future__ import annotations

import gc
import http.client
import itertools
import json
import random
import resource
import statistics
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import repro.core.cube as cube
import repro.core.extract as extract
import repro.xmlmodel.parser as xml_parser
from repro.cluster.coordinator import ClusterCoordinator
from repro.core.bindings import FactTable
from repro.core.cube import ExecutionOptions
from repro.core.incremental import split_rows
from repro.core.properties import PropertyOracle
from repro.datagen.treebank import (
    TreebankConfig,
    generate_treebank,
    treebank_query,
)
from repro.errors import X3Error
from repro.serve.server import CubeServer
from repro.server.http import X3Api, X3HttpServer
from repro.server.model import CubeCatalog, LogicalCube
from repro.xmlmodel.serializer import serialize

import traffic
from ledger import Ledger

#: Set-ups timed before and after the timed phases: at least this many,
#: and until they have taken at least this many seconds, so a short
#: set-up (``build`` takes about 0.4 s) is timed several times.
SETUPS_BEFORE, SETUPS_AFTER = (2, 2.0), (1, 1.0)

#: JSON read mix of the dashboard and ingest readers (op, weight).
DASHBOARD_MIX = (
    ("aggregate", 4.0),
    ("drilldown", 2.0),
    ("slice", 1.5),
    ("dice", 1.0),
    ("cell", 1.5),
)
#: Aggregate-heavy: with uniform points, about 4% of reads go to the
#: finest cuboid, which is larger than the cache and always recomputed,
#: and about a quarter to the recompute rung in all.  So p95 falls in the
#: upper part of the recompute reads, not among the few finest ones,
#: whose latency scatters most.
DRILL_MIX = (("aggregate", 3.0), ("drilldown", 1.0))

#: Plan blocks drawn per run; the plan is cycled when a run outlasts it.
PLAN_BLOCKS = 8


@dataclass
class Sample:
    """One timed operation."""

    kind: str  #: build | read | write
    seconds: float
    traced: bool
    error: str = ""
    late: float = 0.0  #: open-loop writes: start minus due time
    request: Optional[traffic.Request] = None  #: reads only
    size: int = 0  #: response bytes
    #: ingest reads: (reported version vector, answer fingerprint), kept
    #: until the write log tells which rows the answer must match
    answer: Optional[Tuple[Tuple[int, ...], str]] = None


@dataclass
class Outcome:
    """What a workload hands back to the reporter."""

    samples: List[Sample]
    setup_seconds: List[float]
    phase_seconds: Dict[bool, float]
    peak_rss_mb: float
    counters: Dict[str, float] = field(default_factory=dict)
    facts: Dict[str, Any] = field(default_factory=dict)


def treebank(n_facts: int, n_axes: int, regime: bool, seed: int) -> TreebankConfig:
    """Dense Treebank input; ``regime`` sets both coverage and
    disjointness."""
    return TreebankConfig(
        n_facts=n_facts,
        n_axes=n_axes,
        density="dense",
        coverage=regime,
        disjoint=regime,
        seed=seed,
    )


def naive(table: FactTable, points=None) -> Dict[Any, Dict]:
    """The serial NAIVE reference cube (the correctness oracle)."""
    options = ExecutionOptions(algorithm="NAIVE", engine="serial")
    if points is not None:
        options = options.replace(points=tuple(points))
    return cube.compute_cube(table, options).cuboids


def timed_setups(
    make: Callable[[], Any],
    close: Callable[[Any], None],
    repeats: Tuple[int, float] = SETUPS_BEFORE,
):
    """Run ``make`` ``repeats[0]`` times and for ``repeats[1]`` seconds,
    whichever is more; keep the last system.

    The previous system is closed, dropped and collected before each
    set-up, so only one exists at a time and no set-up pays for
    collecting another's garbage.
    """
    count, budget = repeats
    seconds: List[float] = []
    system = None
    while len(seconds) < count or sum(seconds) < budget:
        if system is not None:
            close(system)
            system = None
        gc.collect()
        started = time.perf_counter()
        system = make()
        seconds.append(time.perf_counter() - started)
    return system, seconds


def later_setups(
    make: Callable[[], Any], close: Callable[[Any], None]
) -> List[float]:
    """The :data:`SETUPS_AFTER` set-ups timed after the timed phases,
    once the kept system is closed; their systems are closed at once."""
    system, seconds = timed_setups(make, close, SETUPS_AFTER)
    close(system)
    return seconds


def phases(seconds: float, trace: bool) -> List[Tuple[float, bool]]:
    if not trace:
        return [(seconds, False)]
    return [(seconds / 4, traced) for traced in (False, True, False, True)]


def run_phases(
    seconds: float,
    trace: bool,
    ledger: Ledger,
    phase: Callable[[float, bool], None],
    counters: Callable[[], Dict[str, float]],
) -> Tuple[Dict[bool, float], Dict[str, float]]:
    """Run every phase; returns wall seconds per traced flag and the
    counter deltas over the traced phases."""
    elapsed = {False: 0.0, True: 0.0}
    traced_deltas: Dict[str, float] = {}
    for duration, traced in phases(seconds, trace):
        before = counters()
        if traced:
            ledger.install()
        started = time.perf_counter()
        try:
            phase(duration, traced)
        finally:
            ledger.uninstall()
        elapsed[traced] += time.perf_counter() - started
        if traced:
            after = counters()
            for name, value in after.items():
                traced_deltas[name] = (
                    traced_deltas.get(name, 0.0) + value - before[name]
                )
    return elapsed, traced_deltas


def peak_rss_mb() -> float:
    """Peak resident memory so far; taken when the timed phases end, so
    the set-ups and the correctness check that follow do not count."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# build: XML text -> fact table -> full cube, single-threaded
# ----------------------------------------------------------------------
BUILD_FACTS = 2000


def run_build(seed: int, seconds: float, trace: bool, ledger: Ledger) -> Outcome:
    config = treebank(BUILD_FACTS, 4, False, seed)
    query = treebank_query(config)

    def make() -> Tuple[str, FactTable]:
        """The XML input, and the table the NAIVE reference is built on."""
        text = serialize(generate_treebank(config))
        return text, extract.extract_fact_table(xml_parser.parse(text), query)

    (text, table), setups = timed_setups(make, lambda _: None)
    reference = naive(table)
    samples: List[Sample] = []
    req_ids = itertools.count(1)

    def phase(duration: float, traced: bool) -> None:
        deadline = time.perf_counter() + duration
        while time.perf_counter() < deadline:
            with ledger.root("client.build", next(req_ids)):
                started = time.perf_counter()
                document = xml_parser.parse(text)
                built = extract.extract_fact_table(document, query)
                oracle = PropertyOracle.from_flags(built.lattice, False, False)
                result = cube.compute_cube(
                    built, ExecutionOptions(algorithm="AUTO", oracle=oracle)
                )
                took = time.perf_counter() - started
            error = "" if result.cuboids == reference else (
                f"{result.algorithm} cube differs from NAIVE"
            )
            samples.append(Sample("build", took, traced, error))

    elapsed, deltas = run_phases(seconds, trace, ledger, phase, dict)
    rss = peak_rss_mb()
    setups += later_setups(make, lambda _: None)
    return Outcome(
        samples,
        setups,
        elapsed,
        rss,
        deltas,
        facts={
            "facts": len(table.rows),
            "points": table.lattice.size(),
            "cells": sum(len(c) for c in reference.values()),
            "xml_bytes": len(text),
        },
    )


# ----------------------------------------------------------------------
# the HTTP front door shared by the serving workloads
# ----------------------------------------------------------------------
@dataclass
class Front:
    backend: Any
    api: X3Api
    http: X3HttpServer

    def close(self) -> None:
        self.http.close()
        closer = getattr(self.backend, "close", None)
        if callable(closer):
            closer()


def serve_front(backend: Any, table: FactTable) -> Front:
    catalog = CubeCatalog()
    catalog.register(
        LogicalCube.from_lattice(
            traffic.CUBE,
            table.lattice,
            measure=table.aggregate.function.upper(),
        ),
        backend,
    )
    api = X3Api(catalog)
    return Front(backend, api, X3HttpServer(api).start())


@dataclass
class Load:
    """One shared request plan for every client, and what they saw.

    The clients take the plan's requests in turn from one cursor, so
    together they send whole plan blocks in order.
    """

    plan: List[traffic.Request]
    clients: int
    cursor: Iterator[int] = field(default_factory=itertools.count)
    req_ids: Iterator[int] = field(default_factory=lambda: itertools.count(1))
    reads: List[Sample] = field(default_factory=list)

    def next_request(self) -> traffic.Request:
        return self.plan[next(self.cursor) % len(self.plan)]


#: Checks one answer: (request, HTTP status, body) -> (error or '',
#: what to keep for a later check, if anything).
Judge = Callable[[traffic.Request, int, bytes], Tuple[str, Any]]


def read_loop(
    front: Front, load: Load, deadline: float, ledger: Ledger, traced: bool,
    judge: Judge, out: List[Sample],
) -> None:
    """One closed-loop client on one persistent connection.  Each answer
    is judged right after it is timed, and only the verdict is kept."""
    host, port = front.http.host, front.http.port
    connection = http.client.HTTPConnection(host, port, timeout=60)
    try:
        while time.perf_counter() < deadline:
            request = load.next_request()
            content = "text/plain" if request.text else "application/json"
            with ledger.root("client.read", next(load.req_ids)) as span:
                headers = {"Content-Type": content, **ledger.header(span)}
                started = time.perf_counter()
                try:
                    connection.request(
                        "POST", request.path, request.body, headers
                    )
                    reply = connection.getresponse()
                    payload, status = reply.read(), reply.status
                except (OSError, http.client.HTTPException) as error:
                    connection.close()
                    connection = http.client.HTTPConnection(
                        host, port, timeout=60
                    )
                    payload, status = str(error).encode(), 0
                took = time.perf_counter() - started
            try:
                error, kept = judge(request, status, payload)
            except (ValueError, KeyError, TypeError) as failure:
                error, kept = f"unreadable answer: {failure!r}", None
            out.append(Sample(
                "read", took, traced, error,
                request=request, size=len(payload), answer=kept,
            ))
    finally:
        connection.close()


def run_clients(
    front: Front,
    load: Load,
    duration: float,
    ledger: Ledger,
    traced: bool,
    judge: Judge,
    writer: Optional[Callable[[float], None]] = None,
) -> None:
    """Run the load's clients, and the writer if any, for ``duration``."""
    deadline = time.perf_counter() + duration
    own: List[List[Sample]] = [[] for _ in range(load.clients)]
    threads = [
        threading.Thread(
            target=read_loop,
            args=(front, load, deadline, ledger, traced, judge, own[index]),
            name=f"bench-client-{index}",
        )
        for index in range(load.clients)
    ]
    if writer is not None:
        threads.append(
            threading.Thread(target=writer, args=(deadline,), name="bench-writer")
        )
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for samples in own:
        load.reads.extend(samples)


def http_error(status: int, payload: bytes) -> str:
    return f"HTTP {status}: {payload[:200]!r}"


def judge_against(lattice, reference: Dict[Any, Dict]) -> Judge:
    """Check each answer against a fixed reference cube."""

    def judge(request: traffic.Request, status: int, payload: bytes):
        if status != 200:
            return http_error(status, payload), None
        decoded = json.loads(payload)
        cuboid = reference[request.target]
        return traffic.check(lattice, request, decoded, cuboid) or "", None

    return judge


def serve_counters(front: Front) -> Dict[str, float]:
    stats = front.backend.stats()
    return {
        "evictions": stats.cache["evictions"],
        "singleflight_joins": stats.singleflight_shared,
        "admission_rejected": front.api.admission.stats()["rejected"],
    }


def run_reads(
    seed: int,
    seconds: float,
    trace: bool,
    ledger: Ledger,
    config: TreebankConfig,
    cache_cells: int,
    warm: bool,
    mix,
    zipf: bool,
    lang_share: float,
    warmup: float,
    clients: int,
) -> Outcome:
    """Closed-loop HTTP clients against one :class:`CubeServer`, after
    ``warmup`` seconds of the same traffic that are not timed."""
    document = generate_treebank(config)
    query = treebank_query(config)

    def make() -> Front:
        table = extract.extract_fact_table(document, query)
        server = CubeServer(
            table, PropertyOracle.from_data(table), cache_cells=cache_cells
        )
        if warm:
            server.warm()
        return serve_front(server, table)

    front, setups = timed_setups(make, Front.close)
    try:
        reference_table = front.backend.table
        lattice = reference_table.lattice
        reference = naive(reference_table)
        judge = judge_against(lattice, reference)
        load = Load(
            traffic.plan(
                reference_table, random.Random(f"{seed}:plans"), PLAN_BLOCKS,
                mix, zipf, lang_share,
            ),
            clients=clients,
        )
        if warmup:
            run_clients(front, load, warmup, ledger, False, judge)
            load.reads.clear()
        elapsed, deltas = run_phases(
            seconds,
            trace,
            ledger,
            lambda duration, traced: run_clients(
                front, load, duration, ledger, traced, judge
            ),
            lambda: serve_counters(front),
        )
        rss = peak_rss_mb()
    finally:
        front.close()
    setups += later_setups(make, Front.close)
    bytes_sent = [sample.size for sample in load.reads]
    return Outcome(
        load.reads,
        setups,
        elapsed,
        rss,
        deltas,
        facts={
            "facts": len(reference_table.rows),
            "points": lattice.size(),
            "cells": sum(len(c) for c in reference.values()),
            "cache_cells": cache_cells,
            "clients": clients,
            "loop": "closed",
            "text_share": sum(s.request.text for s in load.reads)
            / max(1, len(load.reads)),
            "mean_response_bytes": statistics.fmean(bytes_sent)
            if bytes_sent else 0.0,
        },
    )


def run_dashboard(seed: int, seconds: float, trace: bool, ledger: Ledger) -> Outcome:
    return run_reads(
        seed, seconds, trace, ledger,
        treebank(3000, 4, False, seed),
        cache_cells=13122, warm=True, mix=DASHBOARD_MIX, zipf=True,
        lang_share=0.2, warmup=0.0, clients=2,
    )


def run_drill(seed: int, seconds: float, trace: bool, ledger: Ledger) -> Outcome:
    # One client: with two, both often recompute at once and share one
    # interpreter, so the tail measured how their recomputes overlapped
    # and swung with the host's load far more than the recompute itself.
    return run_reads(
        seed, seconds, trace, ledger,
        treebank(10000, 6, True, seed),
        cache_cells=3050, warm=False, mix=DRILL_MIX, zipf=False,
        lang_share=0.0, warmup=1.0, clients=1,
    )


# ----------------------------------------------------------------------
# ingest: a sharded cluster with one reader and one open-loop writer
# ----------------------------------------------------------------------
INGEST_FACTS = 6000
WRITE_RATE = 20.0  #: writes per second
WRITE_BATCH = 10  #: facts per write
SHARDS, REPLICAS = 4, 2
REPLICA_CACHE_CELLS = 4096  #: the x3-server default budget


def write_schedule(delta, rng: random.Random) -> Iterator[Tuple[str, list]]:
    """Insert the delta batches in a seeded order; every fourth write
    deletes the oldest batch still in the table, which goes back to the
    end of the insert queue."""
    batches = [
        delta[start:start + WRITE_BATCH]
        for start in range(0, len(delta), WRITE_BATCH)
    ]
    rng.shuffle(batches)
    waiting, live = deque(batches), deque()
    for index in itertools.count():
        if (index % 4 == 3 and live) or not waiting:
            batch = live.popleft()
            waiting.append(batch)
            yield "delete", batch
        else:
            batch = waiting.popleft()
            live.append(batch)
            yield "insert", batch


def run_ingest(seed: int, seconds: float, trace: bool, ledger: Ledger) -> Outcome:
    config = treebank(INGEST_FACTS, 4, False, seed)
    document = generate_treebank(config)
    query = treebank_query(config)
    tables: List[FactTable] = []

    def make() -> Front:
        table = extract.extract_fact_table(document, query)
        tables[:] = [table]
        initial, _ = split_rows(table, 0.5)
        coordinator = ClusterCoordinator(
            FactTable(table.lattice, list(initial), table.aggregate),
            SHARDS,
            REPLICAS,
            oracle=PropertyOracle.from_data(table),
            cache_cells=REPLICA_CACHE_CELLS,
            hedge_deadline_seconds=None,
        )
        return serve_front(coordinator, table)

    front, setups = timed_setups(make, Front.close)
    full = tables.pop()
    initial_rows, delta_rows = split_rows(full, 0.5)
    coordinator: ClusterCoordinator = front.backend
    load = Load(
        traffic.plan(
            full, random.Random(f"{seed}:plans"), PLAN_BLOCKS,
            DASHBOARD_MIX, True, 0.0,
        ),
        clients=1,
    )
    schedule = write_schedule(list(delta_rows), random.Random(f"{seed}:writes"))
    writes: List[Tuple[str, list, Tuple[int, ...]]] = []
    written: List[Sample] = []

    def writer(deadline: float, traced: bool) -> None:
        """Open loop: write ``index`` is due at ``index / WRITE_RATE``
        and is timed from then, however late it starts."""
        started = time.perf_counter()
        for index in itertools.count():
            due = started + index / WRITE_RATE
            if due >= deadline:
                return
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            op, batch = next(schedule)
            begun = time.perf_counter()
            error = ""
            with ledger.root("client.write", next(load.req_ids)):
                try:
                    if op == "insert":
                        vector = coordinator.insert(batch)
                    else:
                        vector = coordinator.delete(batch)
                    writes.append((op, batch, vector.versions))
                except X3Error as failure:
                    error = f"{op} failed: {failure}"
            done = time.perf_counter()
            written.append(
                Sample("write", done - due, traced, error, late=begun - due)
            )
            if error:
                return

    lattice = full.lattice

    def judge(request: traffic.Request, status: int, payload: bytes):
        """Check the served point now; keep the reported version and a
        fingerprint of the answer for :func:`check_ingest`."""
        if status != 200:
            return http_error(status, payload), None
        decoded = json.loads(payload)
        wrong_point = traffic.check_point(lattice, request, decoded)
        if wrong_point:
            return wrong_point, None
        return "", (
            tuple(decoded["version"]),
            traffic.fingerprint(traffic.answer(decoded, request)),
        )

    def counters() -> Dict[str, float]:
        stats = coordinator.stats()
        out = {
            "evictions": 0.0,
            "singleflight_joins": 0.0,
            "stale_retries": stats.stale_retries,
            "rejects": stats.rejects,
            "admission_rejected": front.api.admission.stats()["rejected"],
        }
        for shard in coordinator.shards:
            for replica in shard:
                served = replica.server.stats()
                out["evictions"] += served.cache["evictions"]
                out["singleflight_joins"] += served.singleflight_shared
        return out

    try:
        elapsed, deltas = run_phases(
            seconds,
            trace,
            ledger,
            lambda duration, traced: run_clients(
                front, load, duration, ledger, traced, judge,
                writer=lambda deadline: writer(deadline, traced),
            ),
            counters,
        )
        rss = peak_rss_mb()
    finally:
        front.close()
    setups += later_setups(make, Front.close)
    check_ingest(full, initial_rows, writes, load.reads)
    return Outcome(
        load.reads + written,
        setups,
        elapsed,
        rss,
        deltas,
        facts={
            "facts": len(full.rows),
            "initial_facts": len(initial_rows),
            "points": full.lattice.size(),
            "shards": SHARDS,
            "replicas": REPLICAS,
            "replica_cache_cells": REPLICA_CACHE_CELLS,
            "write_rate_per_s": WRITE_RATE,
            "write_batch": WRITE_BATCH,
            "writes": len(writes),
        },
    )


def check_ingest(full, initial_rows, writes, reads: List[Sample]) -> None:
    """Judge each read against NAIVE over the rows the table held at the
    version vector the answer reports."""
    lattice = full.lattice
    after = {(0,) * SHARDS: 0}
    for index, (_, _, vector) in enumerate(writes, start=1):
        after[vector] = index
    answered: List[Tuple[Sample, str, int]] = []
    wanted: Dict[int, set] = {}
    for sample in reads:
        if sample.error:
            continue
        vector, digest = sample.answer
        version = after.get(vector)
        if version is None:
            sample.error = f"answer at unknown version {list(vector)}"
            continue
        answered.append((sample, digest, version))
        wanted.setdefault(version, set()).add(sample.request.target)
    truth: Dict[Tuple[int, Any], Dict] = {}
    rows = {row.fact_id: row for row in initial_rows}
    applied = 0
    for version in sorted(wanted):
        for op, batch, _ in writes[applied:version]:
            for row in batch:
                if op == "insert":
                    rows[row.fact_id] = row
                else:
                    del rows[row.fact_id]
        applied = version
        table = FactTable(lattice, list(rows.values()), full.aggregate)
        for point, cuboid in naive(table, sorted(wanted[version])).items():
            truth[(version, point)] = cuboid
    for sample, digest, version in answered:
        request = sample.request
        cuboid = truth[(version, request.target)]
        want = traffic.expected(lattice, request, cuboid)
        if traffic.fingerprint(want) != digest:
            sample.error = (
                f"wrong {request.op} answer at "
                f"{lattice.describe(request.target)}, version {version}"
            )


WORKLOADS = {
    "build": run_build,
    "dashboard": run_dashboard,
    "drill": run_drill,
    "ingest": run_ingest,
}
