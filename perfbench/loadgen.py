"""Open-loop, seeded load generator for ``repro serve``.

Requests are sent on a precomputed Poisson schedule regardless of how
fast responses come back (independent users, not callers waiting on
each other), over a fixed number of pipelined connections to the
server's unix socket. Each request's latency runs from when it was
*due*, so a generator or server stall is charged to every request it
delays, and the generator's own lateness is recorded beside it.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from helpers import Sample

#: Stream reader limit: stats and lint responses can be large.
_LINE_LIMIT = 16 * 1024 * 1024


@dataclass
class Request:
    """One scheduled request: due offset (s), op, params and the key the
    correctness check groups repeated responses by."""

    offset: float
    op: str
    params: Dict[str, Any]
    key: str
    kind: str
    sample: Sample = field(default_factory=lambda: Sample(due=0.0))
    response: Optional[Dict[str, Any]] = None


def zipf_cdf(n: int, s: float) -> List[float]:
    weights = [1.0 / (rank ** s) for rank in range(1, n + 1)]
    total = sum(weights)
    acc, cdf = 0.0, []
    for w in weights:
        acc += w / total
        cdf.append(acc)
    cdf[-1] = 1.0
    return cdf


def poisson_offsets(rng: random.Random, rate: float, count: int) -> List[float]:
    """``count`` arrival offsets of a Poisson process at ``rate``/s."""
    t, out = 0.0, []
    for _ in range(count):
        t += rng.expovariate(rate)
        out.append(t)
    return out


def pick(rng: random.Random, cdf: Sequence[float]) -> int:
    return bisect.bisect_left(cdf, rng.random())


async def _connect(path: str):
    return await asyncio.open_unix_connection(path, limit=_LINE_LIMIT)


async def request_once(
    path: str, op: str, params: Optional[Dict[str, Any]] = None,
    timeout: float = 120.0,
) -> Dict[str, Any]:
    """One request on a fresh connection; returns the decoded response."""
    reader, writer = await _connect(path)
    try:
        payload = {"id": 0, "op": op}
        if params:
            payload["params"] = params
        writer.write(json.dumps(payload).encode() + b"\n")
        await writer.drain()
        line = await asyncio.wait_for(reader.readline(), timeout)
        return json.loads(line)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def _fast_header(line: bytes) -> Tuple[Optional[int], bool]:
    """``(id, ok)`` of a response line without decoding it all: the
    server writes keys sorted, so a success starts ``{"id": N, "ok":
    true``. Anything else falls back to a full decode."""
    if line.startswith(b'{"id": '):
        head, sep, rest = line[7:40].partition(b", ")
        if sep and head.isdigit():
            return int(head), rest.startswith(b'"ok": true')
    message = json.loads(line)
    rid = message.get("id")
    return (rid if isinstance(rid, int) else None), bool(message.get("ok"))


async def drive(
    path: str,
    requests: Sequence[Request],
    connections: int,
    drain_timeout: float = 120.0,
) -> None:
    """Send ``requests`` on their schedule and wait for every response.

    Fills each request's :class:`Sample` (``due``/``sent``/``done`` on
    the loop clock) and ``response``. A request still unanswered after
    ``drain_timeout`` keeps ``done=None`` and counts as failed. Request
    lines are encoded before the phase starts and responses decoded
    after it ends, so the generator spends its time on the schedule.
    """
    loop = asyncio.get_running_loop()
    conns = [await _connect(path) for _ in range(max(1, connections))]
    lines = [
        json.dumps({"id": i, "op": r.op, "params": r.params}).encode()
        + b"\n"
        for i, r in enumerate(requests)
    ]
    raw: Dict[int, bytes] = {}
    remaining = len(requests)
    all_done = loop.create_future()

    async def read(reader: asyncio.StreamReader) -> None:
        nonlocal remaining
        while True:
            line = await reader.readline()
            if not line:
                return
            now = loop.time()
            rid, ok = _fast_header(line)
            if rid is None or not 0 <= rid < len(requests) or rid in raw:
                continue
            raw[rid] = line
            requests[rid].sample.done = now
            requests[rid].sample.ok = ok
            remaining -= 1
            if remaining == 0 and not all_done.done():
                all_done.set_result(None)

    readers = [loop.create_task(read(r)) for r, _ in conns]
    try:
        start = loop.time() + 0.05
        for req in requests:
            req.sample = Sample(due=start + req.offset)
        for i, req in enumerate(requests):
            delay = req.sample.due - loop.time()
            if delay > 0.0005:
                await asyncio.sleep(delay)
            writer = conns[i % len(conns)][1]
            req.sample.sent = loop.time()
            writer.write(lines[i])
            if writer.transport.get_write_buffer_size() > 1 << 16:
                await writer.drain()
        if requests:
            await asyncio.wait([all_done], timeout=drain_timeout)
    finally:
        for _, writer in conns:
            writer.close()
        for task in readers:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
        for _, writer in conns:
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
    for rid, line in raw.items():
        requests[rid].response = json.loads(line)


def phase_requests(
    rng: random.Random, rate: float, kinds: Sequence[str], make
) -> List[Request]:
    """A Poisson phase at ``rate``/s with one arrival per entry of
    ``kinds`` (shuffled here, so the mix is exact and its order seeded);
    ``make(kind, rng)`` yields ``(op, params, key)`` for each arrival."""
    kinds = list(kinds)
    rng.shuffle(kinds)
    out = []
    for offset, kind in zip(poisson_offsets(rng, rate, len(kinds)), kinds):
        op, params, key = make(kind, rng)
        out.append(Request(offset, op, params, key, kind))
    return out
