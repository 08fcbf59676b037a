"""The benchmark's own request generator and answer oracle.

Every operand is drawn from values that occur in the fact table: slice
values and dice sets come from rows that take part in the target
cuboid, and cell keys are group keys such a row contributes to, so a
transformed read returns real groups to encode.  A share of requests is
sent as X^3QL text to ``POST /api/v1/query`` instead of JSON.

The expected answer of a request is computed here, from a reference
cuboid the caller computed with serial NAIVE, without the program's own
slice/dice/drilldown code.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.bindings import FactTable
from repro.core.lattice import CubeLattice, LatticePoint

#: Catalog name of the served cube.
CUBE = "x3"

Cuboid = Dict[Tuple[str, ...], float]


@dataclass(frozen=True)
class Request:
    """One read: what is sent, and what it must be answered from."""

    op: str  #: aggregate | drilldown | slice | dice | cell
    target: LatticePoint  #: the cuboid the answer is taken from
    axis: int = -1  #: axis position of a slice
    value: str = ""  #: slice value
    filters: Tuple[Tuple[int, Tuple[str, ...]], ...] = ()  #: dice
    key: Tuple[str, ...] = ()  #: cell key
    path: str = ""
    body: bytes = b""
    text: bool = False  #: sent as X^3QL


def popularity(
    lattice: CubeLattice, zipf: bool
) -> Tuple[List[LatticePoint], List[float]]:
    """Points with their draw weights: uniform, or Zipf over the points
    ranked finest first (dashboards read detailed cuboids most).  The
    ranking does not depend on the seed, so every seed reads cuboids of
    the same sizes equally often."""
    points = lattice.topo_finer_first()
    if not zipf:
        return points, [1.0] * len(points)
    return points, [1.0 / (rank + 1) for rank in range(len(points))]


#: Requests per plan block.  A block holds every point and every op in
#: its expected proportion, so a run's mix does not depend on luck.
BLOCK = 256


def _apportion(weights: Sequence[float], total: int) -> List[int]:
    """Largest-remainder integer shares of ``total``."""
    exact = [w * total / sum(weights) for w in weights]
    counts = [int(x) for x in exact]
    order = sorted(range(len(exact)), key=lambda i: counts[i] - exact[i])
    for i in order[: total - sum(counts)]:
        counts[i] += 1
    return counts


def _interleave(items: Sequence[str], counts: Sequence[int]) -> List[str]:
    """Each item ``counts[i]`` times, spread evenly along the sequence."""
    slots = [
        ((k + 0.5) / count, i)
        for i, count in enumerate(counts)
        for k in range(count)
    ]
    return [items[i] for _, i in sorted(slots)]


def plan(
    table: FactTable,
    rng: random.Random,
    blocks: int,
    op_weights: Sequence[Tuple[str, float]],
    zipf: bool,
    lang_share: float,
) -> List[Request]:
    """``blocks`` shuffled blocks of :data:`BLOCK` requests.

    Points get their share of each block by popularity.  The op sequence
    is interleaved along the points, so each point gets a spread of ops.
    An op a point cannot take (drilldown at the finest point, slice at
    the apex) falls back to an aggregate.
    """
    lattice = table.lattice
    points, weights = popularity(lattice, zipf)
    occurrences = [
        point
        for point, count in zip(points, _apportion(weights, BLOCK))
        for _ in range(count)
    ]
    ops = _interleave(
        [op for op, _ in op_weights],
        _apportion([weight for _, weight in op_weights], BLOCK),
    )
    texts = round(lang_share * BLOCK)
    out: List[Request] = []
    for _ in range(blocks):
        block = [
            (point, _draw(table, rng, point, op) or Request("aggregate", point))
            for point, op in zip(occurrences, ops)
        ]
        as_text = set(rng.sample(range(BLOCK), texts))
        wired = []
        for index, (point, request) in enumerate(block):
            wire = _lang_wire if index in as_text else _json_wire
            path, body = wire(lattice, point, request)
            wired.append(replace(
                request, path=path, body=body, text=index in as_text
            ))
        rng.shuffle(wired)
        out.extend(wired)
    return out


def _participant(table: FactTable, rng: random.Random, point: LatticePoint):
    for _ in range(64):
        row = rng.choice(table.rows)
        if table.participates(row, point):
            return row
    return None


def _draw(
    table: FactTable, rng: random.Random, point: LatticePoint, op: str
) -> Optional[Request]:
    lattice = table.lattice
    kept = lattice.kept_axes(point)
    if op == "aggregate":
        return Request(op, point)
    if op == "drilldown":
        finer = lattice.predecessors(point)
        axes = sorted({
            pos for f in finer for pos in range(len(point)) if f[pos] != point[pos]
        })
        if not axes:
            return None
        axis = rng.choice(axes)
        target = min(f for f in finer if f[axis] != point[axis])
        return Request(op, target, axis=axis)
    if not kept:
        return None
    row = _participant(table, rng, point)
    if row is None:
        return None
    if op == "cell":
        key = rng.choice(table.key_combinations(row, point))
        return Request(op, point, key=key)
    if op == "slice":
        axis = rng.choice(kept)
        value = rng.choice(row.values_under(axis, point[axis]))
        return Request(op, point, axis=axis, value=value)
    # dice: one or two kept axes, each with the values of two rows
    other = _participant(table, rng, point) or row
    chosen = sorted(rng.sample(kept, min(len(kept), rng.choice((1, 2)))))
    filters = tuple(
        (
            axis,
            tuple(sorted(
                {rng.choice(row.values_under(axis, point[axis])),
                 rng.choice(other.values_under(axis, point[axis]))}
            )),
        )
        for axis in chosen
    )
    return Request(op, point, filters=filters)


def _json_wire(
    lattice: CubeLattice, point: LatticePoint, request: Request
) -> Tuple[str, bytes]:
    axes = lattice.axes
    body: Dict[str, Any] = {"point": lattice.describe(point)}
    if request.op == "drilldown":
        body["axis"] = axes[request.axis].name
    elif request.op == "slice":
        body["axis"] = axes[request.axis].name
        body["value"] = request.value
    elif request.op == "dice":
        body["filters"] = {
            axes[axis].name: list(values) for axis, values in request.filters
        }
    elif request.op == "cell":
        body["key"] = list(request.key)
    path = f"/api/v1/cubes/{CUBE}/{request.op}"
    return path, json.dumps(body).encode("utf-8")


def _quote(value: str) -> str:
    return "'" + value + "'"


def _lang_wire(
    lattice: CubeLattice, point: LatticePoint, request: Request
) -> Tuple[str, bytes]:
    def dim(axis: int) -> str:
        return lattice.axes[axis].name.lstrip("$")

    by = ", ".join(
        f"{dim(pos)}:{states.describe(point[pos])}"
        for pos, states in enumerate(lattice.axis_states)
        if not states.is_dropped(point[pos])
    )
    by_clause = f" BY {by}" if by else ""
    if request.op == "aggregate":
        text = f"ROLLUP {CUBE}{by_clause}"
    elif request.op == "drilldown":
        text = f"DRILLDOWN {CUBE} ON {dim(request.axis)}{by_clause}"
    elif request.op == "slice":
        text = (
            f"SLICE {CUBE} ON {dim(request.axis)} = "
            f"{_quote(request.value)}{by_clause}"
        )
    elif request.op == "dice":
        where = " AND ".join(
            f"{dim(axis)} IN ({', '.join(_quote(v) for v in values)})"
            for axis, values in request.filters
        )
        text = f"DICE {CUBE}{by_clause} WHERE {where}"
    else:
        key = ", ".join(_quote(part) for part in request.key)
        text = f"CELL {CUBE} KEY ({key}){by_clause}"
    return "/api/v1/query", text.encode("utf-8")


# ----------------------------------------------------------------------
# the oracle
# ----------------------------------------------------------------------
def expected(
    lattice: CubeLattice, request: Request, cuboid: Cuboid
) -> Any:
    """The answer ``request`` must get when its cuboid is ``cuboid``."""
    if request.op == "cell":
        return cuboid.get(request.key)
    if request.op == "slice":
        index = lattice.kept_axes(request.target).index(request.axis)
        return {
            key[:index] + key[index + 1:]: value
            for key, value in cuboid.items()
            if key[index] == request.value
        }
    if request.op == "dice":
        kept = lattice.kept_axes(request.target)
        tests = [
            (kept.index(axis), set(values)) for axis, values in request.filters
        ]
        return {
            key: value
            for key, value in cuboid.items()
            if all(key[index] in allowed for index, allowed in tests)
        }
    return dict(cuboid)


def answer(decoded: Dict[str, Any], request: Request) -> Any:
    """The payload of a decoded 200 response, in :func:`expected`'s
    shape."""
    if request.op == "cell":
        return decoded["value"]
    return {
        tuple(group["key"]): group["value"] for group in decoded["groups"]
    }


def check_point(
    lattice: CubeLattice, request: Request, decoded: Dict[str, Any]
) -> Optional[str]:
    """``None`` when the response was served from the requested point."""
    served = lattice.describe(request.target)
    if decoded.get("point") != served:
        return f"served {decoded.get('point')!r}, expected {served!r}"
    return None


def check(
    lattice: CubeLattice,
    request: Request,
    decoded: Dict[str, Any],
    cuboid: Cuboid,
) -> Optional[str]:
    """``None`` when the response is right, else what is wrong."""
    wrong_point = check_point(lattice, request, decoded)
    if wrong_point:
        return wrong_point
    if answer(decoded, request) != expected(lattice, request, cuboid):
        return f"wrong {request.op} answer at {lattice.describe(request.target)}"
    return None


def _number(value: Any) -> Optional[float]:
    return None if value is None else float(value)


def fingerprint(value: Any) -> str:
    """A digest of an answer in :func:`expected`'s shape.  Two answers
    that compare equal get the same digest, so an answer can be kept as
    its digest until its expected value is known."""
    if isinstance(value, dict):
        canonical: Any = sorted((key, _number(v)) for key, v in value.items())
    else:
        canonical = _number(value)
    return hashlib.blake2b(repr(canonical).encode("utf-8")).hexdigest()
