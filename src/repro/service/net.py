"""A minimal TCP front for :class:`ConsensusService` (production mode).

Wire protocol: newline-delimited JSON, one request per line::

    {"op": "submit", "session": "s1", "seq": 0, "cmd": "set x 1"}
    {"op": "read"}
    {"op": "stats"}

Replies mirror the request with ``"ok": true/false`` plus payload.  The
front is deliberately thin — all semantics (batching, certification,
leases, backpressure) live in :class:`ConsensusService`; this module only
frames bytes.  Under test the service is exercised directly on a logical
loop and this module stays out of the picture.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict

from repro.service.service import Backpressure, ConsensusService, Unavailable


async def _handle_request(
    service: ConsensusService, request: Dict[str, Any]
) -> Dict[str, Any]:
    op = request.get("op")
    if op == "submit":
        session = request.get("session")
        seq = request.get("seq")
        if session is None or seq is None or "cmd" not in request:
            return {
                "ok": False,
                "error": "bad request",
                "detail": "submit requires session, seq and cmd",
            }
        try:
            seq = int(seq)
        except (TypeError, ValueError):
            return {
                "ok": False,
                "error": "bad request",
                "detail": "seq must be an integer",
            }
        try:
            # The service keys tables by session and by command batch; a
            # JSON array or object here would kill its batcher task.
            hash((session, request["cmd"]))
        except TypeError:
            return {
                "ok": False,
                "error": "bad request",
                "detail": "session and cmd must be JSON scalars",
            }
        try:
            reply = await service.submit(session, seq, request["cmd"])
        except Backpressure as exc:
            return {"ok": False, "error": "backpressure", "detail": str(exc)}
        status, slot, index = reply
        return {"ok": True, "status": status, "slot": slot, "index": index}
    if op == "read":
        try:
            view = await service.read()
        except Unavailable as exc:
            return {"ok": False, "error": "unavailable", "detail": str(exc)}
        return {"ok": True, "commands": [list(c) for c in view]}
    if op == "stats":
        return {
            "ok": True,
            "stats": dict(service.stats),
            "certified_slots": service.certified_slots,
            "inflight": service.inflight(),
        }
    return {"ok": False, "error": f"unknown op {op!r}"}


async def _client_connected(
    service: ConsensusService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    try:
        while True:
            line = await reader.readline()
            if not line:
                break
            try:
                request = json.loads(line)
            except ValueError:
                response = {"ok": False, "error": "bad json"}
            else:
                if isinstance(request, dict):
                    response = await _handle_request(service, request)
                else:
                    response = {"ok": False, "error": "bad request"}
            writer.write(json.dumps(response).encode() + b"\n")
            await writer.drain()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def serve_tcp(
    service: ConsensusService, host: str = "127.0.0.1", port: int = 7707
):
    """Start the TCP front; returns the listening ``asyncio.Server``."""

    async def on_connect(reader, writer):
        await _client_connected(service, reader, writer)

    return await asyncio.start_server(on_connect, host, port)
