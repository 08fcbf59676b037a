"""The traced run's span recorder and per-layer ledger.

Spans are recorded from the benchmark's own code: :meth:`Ledger.install`
replaces each layer's public entry point, at the place its caller looks
it up, with a wrapper that opens a span around the call, and
:meth:`Ledger.uninstall` puts the originals back.  Nothing in the
program changes, and an untraced phase runs the original functions.

Each span has a name, start, end, parent and request id.  Parents come
from a per-thread stack.  Two hand-offs cross threads: a client sends
its request id and span id in the ``X-Bench-Request`` header, which the
``X3Api.handle`` wrapper reads on the server thread, and the cluster's
scatter pool carries the caller's span through the program's own
``trace_store.capture``/``resume`` pair.  Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from stats import percentile

REQUEST_HEADER = "X-Bench-Request"


class Span:
    __slots__ = ("sid", "parent", "req", "name", "start", "end", "attrs")

    def __init__(
        self, sid: int, parent: Optional[int], req: Optional[int], name: str
    ) -> None:
        self.sid = sid
        self.parent = parent
        self.req = req
        self.name = name
        self.start = time.perf_counter()
        self.end = self.start
        self.attrs: Dict[str, Any] = {}

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.sid,
            "parent": self.parent,
            "req": self.req,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            **self.attrs,
        }


class _Handoff:
    """A program trace binding plus the ledger span that captured it."""

    __slots__ = ("inner", "span")

    def __init__(self, inner: Any, span: Optional[Span]) -> None:
        self.inner = inner
        self.span = span


AttrsFn = Callable[[tuple, dict, Any], Dict[str, Any]]


class Ledger:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._originals: List[Tuple[Any, str, Any]] = []

    @property
    def active(self) -> bool:
        return bool(self._originals)

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(
        self,
        name: str,
        req: Optional[int] = None,
        parent: Optional[Span] = None,
    ) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        if req is None and parent is not None:
            req = parent.req
        span = Span(
            next(self._ids), parent.sid if parent else None, req, name
        )
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    @contextmanager
    def root(self, name: str, req: int) -> Iterator[Optional[Span]]:
        """A request's root span on the calling thread; yields ``None``
        (and records nothing) while the wrappers are not installed."""
        if not self.active:
            yield None
            return
        span = self._open(name, req=req)
        try:
            yield span
        finally:
            self._close(span)

    @staticmethod
    def header(span: Optional[Span]) -> Dict[str, str]:
        if span is None:
            return {}
        return {REQUEST_HEADER: f"{span.req}:{span.sid}"}

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        attrs: Optional[AttrsFn] = None,
    ) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``owner`` is the module or class the caller looks the name up
        on.  A classmethod stays a classmethod: its bound form is
        wrapped and exposed as a staticmethod.
        """
        raw = owner.__dict__[attr]
        target = getattr(owner, attr)
        ledger = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = ledger._open(name)
            try:
                result = target(*args, **kwargs)
                if attrs is not None:
                    span.attrs.update(attrs(args, kwargs, result))
                return result
            finally:
                ledger._close(span)

        if isinstance(raw, classmethod):
            self._patch(owner, attr, staticmethod(wrapper))
        else:
            self._patch(owner, attr, wrapper)

    def _wrap_handle(self, api_cls: Any) -> None:
        """``X3Api.handle``: join the client's span named in the header."""
        target = api_cls.handle
        ledger = self

        def handle(self_, method, path, body=None, headers=None):
            parent: Optional[Span] = None
            req: Optional[int] = None
            value = (headers or {}).get(REQUEST_HEADER)
            if value:
                req_text, sid_text = value.split(":")
                req = int(req_text)
                parent = Span(int(sid_text), None, req, "client")
            span = ledger._open("server.handle", req=req, parent=parent)
            try:
                return target(self_, method, path, body, headers)
            finally:
                ledger._close(span)

        self._patch(api_cls, "handle", handle)

    def _wrap_handoff(self, module: Any) -> None:
        """Carry the current span across the cluster's scatter pool."""
        capture, resume = module.capture, module.resume
        ledger = self

        def capture_wrapper() -> _Handoff:
            stack = ledger._stack()
            return _Handoff(capture(), stack[-1] if stack else None)

        @contextmanager
        def resume_wrapper(handle: Any) -> Iterator[None]:
            if not isinstance(handle, _Handoff):
                with resume(handle):
                    yield
                return
            stack = ledger._stack()
            if handle.span is not None:
                stack.append(handle.span)
            try:
                with resume(handle.inner):
                    yield
            finally:
                if handle.span is not None and stack and stack[-1] is handle.span:
                    stack.pop()

        self._patch(module, "capture", capture_wrapper)
        self._patch(module, "resume", resume_wrapper)

    def install(self) -> None:
        """Wrap every layer entry point the ledger reports on."""
        if self.active:
            return
        import repro.cluster.coordinator as coordinator
        import repro.cluster.shard as shard
        import repro.core.algorithms.auto as auto
        import repro.core.algorithms.base as algorithms
        import repro.core.columnar as columnar
        import repro.core.cube as cube
        import repro.core.engine.merge as engine_merge
        import repro.core.extract as extract
        import repro.lang.compiler as compiler
        import repro.lang.parser as lang_parser
        import repro.obs.trace_store as trace_store
        import repro.serve.server as serve
        import repro.server.http as http
        import repro.xmlmodel.parser as xml_parser

        wrap = self.wrap
        wrap(xml_parser, "parse", "xmlmodel.parse")
        wrap(extract, "extract_fact_table", "extract.facts")
        wrap(auto, "recommend_for_table", "advisor.plan")
        wrap(columnar.ColumnarFactTable, "from_table", "columnar.encode")
        # AUTO's own run() only plans and delegates: its time stays in
        # engine.compute, and the kernel is the delegate's inherited run().
        wrap(algorithms.CubeAlgorithm, "run", "algorithms.run", _scan_size)
        wrap(cube, "compute_cube", "engine.compute")
        wrap(serve, "compute_cube", "engine.compute")
        wrap(engine_merge, "merge_disjoint", "engine.merge")
        wrap(serve.CubeServer, "query", "serve.query", _result_tier)
        wrap(serve.CubeServer, "cuboid_versioned", "serve.query")
        wrap(serve.CubeServer, "insert", "serve.write")
        wrap(serve.CubeServer, "delete", "serve.write")
        wrap(coordinator.ClusterCoordinator, "query", "cluster.query")
        wrap(coordinator.ClusterCoordinator, "insert", "cluster.write")
        wrap(coordinator.ClusterCoordinator, "delete", "cluster.write")
        wrap(coordinator, "merge_states", "cluster.merge")
        wrap(shard.ShardReplica, "read_states", "cluster.shard", _result_tier)
        wrap(http.ApiResponse, "json", "server.encode", _body_bytes)
        wrap(compiler, "tokenize", "lang.parse")
        wrap(lang_parser.Parser, "statement", "lang.parse")
        wrap(lang_parser, "parse_statement", "lang.parse")
        wrap(compiler, "compile_text", "lang.compile")
        self._wrap_handle(http.X3Api)
        self._wrap_handoff(trace_store)

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def write_jsonl(self, path: str) -> int:
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                handle.write(json.dumps(span.to_dict()) + "\n")
        return len(self.spans)


def _scan_size(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    """Rows x lattice points one algorithm call scanned."""
    table = args[1] if len(args) > 1 else kwargs["table"]
    points = kwargs.get("points", args[4] if len(args) > 4 else None)
    count = len(points) if points is not None else table.lattice.size()
    return {"rows_x_points": len(table.rows) * count}


def _result_tier(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    return {"tier": result.tier}


def _body_bytes(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    return {"bytes": len(result.body.encode("utf-8"))}


# ----------------------------------------------------------------------
# derived per-layer figures
# ----------------------------------------------------------------------
#: Per-layer self-time metric -> the span name it sums per request.
SELF_TIMES = (
    ("xmlmodel.parse_s", "xmlmodel.parse"),
    ("extract.facts_s", "extract.facts"),
    ("advisor.plan_s", "advisor.plan"),
    ("columnar.encode_s", "columnar.encode"),
    ("algorithms.kernel_s", "algorithms.run"),
    ("engine.compute_s", "engine.compute"),
    ("engine.merge_s", "engine.merge"),
    ("serve.query_s", "serve.query"),
    ("serve.write_s", "serve.write"),
    ("cluster.query_s", "cluster.query"),
    ("cluster.merge_s", "cluster.merge"),
    ("cluster.write_s", "cluster.write"),
    ("server.transport_s", "client.read"),
    ("server.handle_s", "server.handle"),
    ("server.encode_s", "server.encode"),
    ("lang.parse_s", "lang.parse"),
    ("lang.compile_s", "lang.compile"),
)


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the part its children cover."""
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.sid, ()), key=lambda c: c.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.sid] = span.end - span.start - covered
    return out


def layer_table(spans: List[Span]) -> Dict[str, Dict[str, Any]]:
    """Per span name: p50/p95 of self time summed per request, with the
    number of requests and spans behind them."""
    own = self_times(spans)
    per_request: Dict[str, Dict[int, float]] = defaultdict(
        lambda: defaultdict(float)
    )
    calls: Dict[str, int] = defaultdict(int)
    for span in spans:
        if span.req is None:
            continue
        per_request[span.name][span.req] += own[span.sid]
        calls[span.name] += 1
    table: Dict[str, Dict[str, Any]] = {}
    for name, by_request in per_request.items():
        values = list(by_request.values())
        table[name] = {
            "p50_s": percentile(values, 0.50),
            "p95_s": percentile(values, 0.95),
            "requests": len(values),
            "spans": calls[name],
        }
    return table


def shard_max(spans: List[Span]) -> List[float]:
    """Per cluster read, the duration of its slowest shard read."""
    slowest: Dict[int, float] = {}
    for span in spans:
        if span.name == "cluster.shard" and span.req is not None:
            duration = span.end - span.start
            slowest[span.req] = max(slowest.get(span.req, 0.0), duration)
    return list(slowest.values())


def attr_totals(spans: List[Span], name: str, key: str) -> Tuple[float, int]:
    """Sum of one attribute over a span name, and the span count."""
    total, count = 0.0, 0
    for span in spans:
        if span.name == name and key in span.attrs:
            total += span.attrs[key]
            count += 1
    return total, count


def tier_counts(spans: List[Span]) -> Dict[str, int]:
    counts: Dict[str, int] = defaultdict(int)
    for span in spans:
        if span.name in ("serve.query", "cluster.shard") and "tier" in span.attrs:
            counts[span.attrs["tier"]] += 1
    return dict(counts)
