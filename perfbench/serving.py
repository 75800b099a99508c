"""Serving phases: the stdlib ``DecisionServer`` and its client, one process.

Client and server share one asyncio loop in the benchmark process, so no
load generator competes with the server for the host's second core. A
:class:`DecisionService` is a single-use engine fed in event-time order:
each phase starts a fresh one and feeds it the workload's arrival stream
from the beginning, possibly in several chunks, each through a fresh
server and connection on the same service.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field

from repro.carbon import TraceProvider
from repro.service import DecisionServer, DecisionService

from perfbench.workloads import Inputs

#: Upper bound on any one serving phase; a hung server fails the run.
PHASE_TIMEOUT_S = 120.0


@dataclass
class Requests:
    """Per-phase accounting of ``/decide`` requests."""

    sent: int = 0
    ok: int = 0
    refused: int = 0
    errored: int = 0
    #: Decision payloads of the answered requests, in arrival order.
    decisions: list[dict] = field(default_factory=list)
    #: Client-observed round trip of each answered request (s).
    laps: list[float] = field(default_factory=list)
    #: Open loop only: how late each request left against its schedule (s).
    late: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    errors: list[str] = field(default_factory=list)

    def merge_into(self, total: dict[str, int]) -> None:
        for key in ("sent", "ok", "refused", "errored"):
            total[key] = total.get(key, 0) + getattr(self, key)

    def absorb(self, chunk: "Requests") -> None:
        """Add a later chunk of the same phase."""
        for key in ("sent", "ok", "refused", "errored", "wall_s"):
            setattr(self, key, getattr(self, key) + getattr(chunk, key))
        for key in ("decisions", "laps", "late", "errors"):
            getattr(self, key).extend(getattr(chunk, key))


def new_service(inputs: Inputs) -> DecisionService:
    return DecisionService(
        TraceProvider(inputs.ci_trace),
        pair=inputs.pair,
        config=inputs.config,
        sim_config=inputs.sim_config,
        functions=inputs.profiles,
    )


def _request_bytes(payload: object) -> bytes:
    body = json.dumps(payload).encode("utf-8")
    head = (
        "POST /decide HTTP/1.1\r\nHost: perfbench\r\n"
        f"Content-Length: {len(body)}\r\nConnection: keep-alive\r\n\r\n"
    )
    return head.encode("latin-1") + body


async def _read_response(reader: asyncio.StreamReader) -> tuple[int, bytes]:
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("server closed the connection")
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        key, _, value = line.decode("latin-1").partition(":")
        if key.strip().lower() == "content-length":
            length = int(value.strip())
    return status, await reader.readexactly(length)


def _account(req: Requests, status: int, raw: bytes) -> bool:
    if status == 200:
        req.ok += 1
        req.decisions.extend(json.loads(raw)["decisions"])
        return True
    if 400 <= status < 500 or status == 503:
        req.refused += 1
    else:
        req.errored += 1
    req.errors.append(f"HTTP {status}: {raw[:200]!r}")
    return False


async def _serve(service: DecisionService, client) -> Requests:
    """Run ``client(reader, writer, req)`` against a fresh server."""
    server = DecisionServer(service, port=0)
    await server.start()
    req = Requests()
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        try:
            start = time.perf_counter()
            await client(reader, writer, req)
            req.wall_s = time.perf_counter() - start
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
    except (ConnectionError, OSError, asyncio.IncompleteReadError) as exc:
        req.errored += req.sent - req.ok - req.refused - req.errored
        req.errors.append(f"{type(exc).__name__}: {exc}")
    finally:
        await server.stop(checkpoint=False)
    return req


def _run(coro) -> Requests:
    return asyncio.run(asyncio.wait_for(coro, PHASE_TIMEOUT_S))


def closed_loop(
    service: DecisionService, arrivals: list[tuple[float, str]], batch: int
) -> Requests:
    """One waiting client on one keep-alive connection.

    With ``batch == 1`` each request carries one bare arrival object;
    otherwise the stream goes out in fixed-size ``{"arrivals": [...]}``
    batches. The next request leaves when the previous answer is in.
    """

    async def client(reader, writer, req: Requests) -> None:
        clock = time.perf_counter
        for lo in range(0, len(arrivals), batch):
            chunk = arrivals[lo : lo + batch]
            if batch == 1:
                payload: object = {"t_s": chunk[0][0], "function": chunk[0][1]}
            else:
                payload = {"arrivals": [{"t_s": t, "function": f} for t, f in chunk]}
            start = clock()
            writer.write(_request_bytes(payload))
            req.sent += 1
            status, raw = await _read_response(reader)
            lap = clock() - start
            if _account(req, status, raw):
                req.laps.append(lap)
            else:
                return  # the service state is undefined past a refusal

    return _run(_serve(service, client))


def open_loop(
    service: DecisionService, arrivals: list[tuple[float, str]], rate_per_s: float
) -> Requests:
    """Requests leave on a fixed schedule, whether or not answers are in.

    Requests are pipelined on one keep-alive connection (the server
    answers them in order). Each latency runs from the request's due
    time, so a stall also charges the requests queued behind it; ``late``
    records how far behind its schedule the generator sent each request.
    """

    async def client(reader, writer, req: Requests) -> None:
        clock = time.perf_counter
        due: list[float] = []

        async def send() -> None:
            t0 = clock()
            for k, (t, f) in enumerate(arrivals):
                at = t0 + k / rate_per_s
                wait = at - clock()
                if wait > 0.0:
                    await asyncio.sleep(wait)
                due.append(at)
                req.late.append(clock() - at)
                writer.write(_request_bytes({"t_s": t, "function": f}))
                req.sent += 1

        sender = asyncio.create_task(send())
        try:
            for k in range(len(arrivals)):
                status, raw = await _read_response(reader)
                done = clock()
                if _account(req, status, raw):
                    req.laps.append(done - due[k])
                else:
                    break
        finally:
            sender.cancel()
            try:
                await sender
            except asyncio.CancelledError:
                pass

    return _run(_serve(service, client))
