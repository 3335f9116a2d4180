"""HTTP load generation over keep-alive connections.

Two loops drive a server:

* :func:`closed_loop` — each connection sends its next request as soon
  as the previous answer arrives, so the server sets the pace; its
  request count over its elapsed time is the throughput.
* :func:`open_loop` — requests fall due on a fixed schedule whatever the
  server does.  Each latency is timed from the request's *due* time, so
  a server stall is charged to every request that queued behind it.
  How late the generator itself put each request on the queue is kept
  apart (``late``), so a run where the client stalled can be told from
  one where the server did.

Both loops take ``connect``, a coroutine function returning an object
with ``async get(path) -> (status, body)`` and ``close()``;
:class:`Connection` is the real one, tests pass fakes.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass, field

#: an answer that takes longer than this counts as failed
REQUEST_TIMEOUT_S = 30.0

#: the open-loop generator sleeps until this close to a due time, then
#: yields to the event loop until it is reached: the loop's timers have
#: millisecond resolution, which would add up to 1 ms to every latency
SPIN_S = 0.002


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-quantile of ``values`` (``0 < q <= 1``)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


class Connection:
    """One HTTP/1.1 keep-alive connection that reconnects after errors."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader = None
        self._writer = None

    async def get(self, path: str) -> tuple[int, bytes]:
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )
        self._writer.write(
            f"GET {path} HTTP/1.1\r\nHost: {self.host}\r\n\r\n".encode("latin-1")
        )
        reader = self._reader
        status_line = await reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        return status, await reader.readexactly(length)

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
        self._reader = self._writer = None


@dataclass
class LoopResult:
    """Per-request outcomes of one loop, indexed like its ``paths``.

    ``status`` is ``None`` for a request that got no answer.  ``latency``
    runs from the due time (open loop) or the send time (closed loop) to
    the end of the answer; ``service`` always from the send time.
    """

    paths: list[str]
    status: list = field(default_factory=list)
    bodies: list = field(default_factory=list)
    latency: list = field(default_factory=list)
    service: list = field(default_factory=list)
    late: list = field(default_factory=list)
    elapsed: float = 0.0

    def __post_init__(self) -> None:
        n = len(self.paths)
        self.status = [None] * n
        self.bodies = [None] * n
        self.latency = [0.0] * n
        self.service = [0.0] * n
        self.late = [0.0] * n


async def _send(conn, result: LoopResult, index: int, start: float) -> None:
    sent = time.perf_counter()
    try:
        status, body = await asyncio.wait_for(
            conn.get(result.paths[index]), REQUEST_TIMEOUT_S
        )
    except (OSError, ValueError, IndexError, EOFError, asyncio.TimeoutError,
            asyncio.IncompleteReadError):
        conn.close()
        status, body = None, None
    done = time.perf_counter()
    result.status[index] = status
    result.bodies[index] = body
    result.latency[index] = done - start
    result.service[index] = done - sent


async def closed_loop(connect, paths: list[str], connections: int = 2) -> LoopResult:
    """Send ``paths`` over ``connections`` connections, each request as
    soon as its connection is free."""
    result = LoopResult(list(paths))
    conns = [await connect() for _ in range(connections)]
    cursor = iter(range(len(paths)))

    async def worker(conn) -> None:
        for index in cursor:
            await _send(conn, result, index, time.perf_counter())

    start = time.perf_counter()
    try:
        await asyncio.gather(*(worker(c) for c in conns))
    finally:
        result.elapsed = time.perf_counter() - start
        for conn in conns:
            conn.close()
    return result


async def open_loop(
    connect, paths: list[str], rate: float, connections: int = 2
) -> LoopResult:
    """Send ``paths[i]`` due at ``i / rate`` seconds after the start,
    over ``connections`` connections; a request due while every
    connection is busy waits its turn, and that wait is part of its
    latency."""
    result = LoopResult(list(paths))
    conns = [await connect() for _ in range(connections)]
    queue: asyncio.Queue = asyncio.Queue()
    start = time.perf_counter() + 0.005

    async def generator() -> None:
        for index in range(len(paths)):
            due = start + index / rate
            delay = due - time.perf_counter()
            if delay > SPIN_S:
                await asyncio.sleep(delay - SPIN_S)
            while time.perf_counter() < due:
                await asyncio.sleep(0)  # answers are read between spins
            result.late[index] = time.perf_counter() - due
            queue.put_nowait((index, due))
        for _ in conns:
            queue.put_nowait(None)

    async def worker(conn) -> None:
        while (item := await queue.get()) is not None:
            index, due = item
            await _send(conn, result, index, due)

    try:
        await asyncio.gather(generator(), *(worker(c) for c in conns))
    finally:
        result.elapsed = time.perf_counter() - start
        for conn in conns:
            conn.close()
    return result
