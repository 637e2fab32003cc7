"""Stdlib HTTP control surface for the live control plane.

A deliberately small HTTP/1.1 server on ``asyncio.start_server`` — no
framework, no keep-alive, JSON in/out — that speaks only to the service
layer (:class:`~repro.controlplane.service.LiveControlPlane`), never to
phases or the simulator directly.

Routes
------
``GET /status``
    The session's JSON progress digest (loop summary, rolling gauges,
    sweep jobs).
``GET /scenarios``
    The registered scenario catalog.
``GET /metrics``
    Prometheus text exposition (``pcs_*`` gauges/counters).
``GET /sweeps`` / ``POST /sweeps`` / ``POST /sweeps/<id>/stop``
    List, start, and cooperatively cancel background sweep grids.
``POST /policy``
    Swap the active routing policy between windows
    (``{"policy": "RI-95"}``, ``policy_from_name`` grammar).
``POST /shutdown``
    Clean shutdown of the whole service.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, Optional, Set, Tuple

from repro.errors import ConfigurationError, ControlPlaneError

__all__ = ["start_http_server"]

#: Largest accepted request body; a control surface has no business
#: receiving more.
MAX_BODY_BYTES = 1 << 20

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
}


def _response(
    status: int, body: bytes, content_type: str
) -> bytes:
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n"
        f"\r\n"
    )
    return head.encode("ascii") + body


def _json_response(status: int, payload: object) -> bytes:
    body = (json.dumps(payload, indent=2) + "\n").encode("utf-8")
    return _response(status, body, "application/json; charset=utf-8")


def _text_response(status: int, text: str) -> bytes:
    return _response(
        status, text.encode("utf-8"), "text/plain; version=0.0.4; charset=utf-8"
    )


def _error(status: int, message: str) -> bytes:
    return _json_response(status, {"error": message})


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, bytes]]:
    """Parse one request; returns ``(method, path, body)`` or ``None``
    on a connection closed before a full request line."""
    try:
        request_line = await reader.readline()
    except (ConnectionError, asyncio.IncompleteReadError):
        return None
    if not request_line:
        return None
    parts = request_line.decode("latin-1").split()
    if len(parts) < 2:
        raise ControlPlaneError(
            f"malformed request line {request_line!r}"
        )
    method, path = parts[0].upper(), parts[1]
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    if length > MAX_BODY_BYTES:
        raise ControlPlaneError(f"request body too large ({length} bytes)")
    body = await reader.readexactly(length) if length else b""
    return method, path, body


def _route(plane, method: str, path: str, body: bytes) -> bytes:
    """Dispatch one parsed request against the service layer."""
    path = path.split("?", 1)[0].rstrip("/") or "/"
    if path == "/status":
        if method != "GET":
            return _error(405, "use GET /status")
        return _json_response(200, plane.status_payload())
    if path == "/metrics":
        if method != "GET":
            return _error(405, "use GET /metrics")
        return _text_response(200, plane.metrics_text())
    if path == "/scenarios":
        if method != "GET":
            return _error(405, "use GET /scenarios")
        from repro.scenarios import all_scenarios

        catalog = [
            {
                "name": spec.name,
                "description": spec.description,
                "tags": list(spec.tags),
            }
            for spec in all_scenarios()
        ]
        return _json_response(200, {"scenarios": catalog})
    if path == "/sweeps":
        if method == "GET":
            return _json_response(200, {"sweeps": plane.sweeps.summary()})
        if method == "POST":
            try:
                request = json.loads(body.decode("utf-8")) if body else {}
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                return _error(400, f"body is not valid JSON: {exc}")
            try:
                return _json_response(200, plane.sweeps.start(request))
            except ConfigurationError as exc:
                return _error(400, str(exc))
        return _error(405, "use GET or POST /sweeps")
    if path.startswith("/sweeps/") and path.endswith("/stop"):
        if method != "POST":
            return _error(405, "use POST /sweeps/<id>/stop")
        job_id = path[len("/sweeps/") : -len("/stop")]
        try:
            return _json_response(200, plane.sweeps.stop(job_id))
        except KeyError:
            return _error(404, f"no such sweep {job_id!r}")
    if path == "/policy":
        if method != "POST":
            return _error(405, "use POST /policy")
        try:
            request = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return _error(400, f"body is not valid JSON: {exc}")
        if not isinstance(request, dict) or "policy" not in request:
            return _error(
                400, 'body must be a JSON object like {"policy": "RI-95"}'
            )
        try:
            return _json_response(
                200, plane.switch_policy(str(request["policy"]))
            )
        except (ConfigurationError, ControlPlaneError) as exc:
            return _error(400, str(exc))
    if path == "/shutdown":
        if method != "POST":
            return _error(405, "use POST /shutdown")
        plane.request_shutdown()
        return _json_response(200, {"ok": True, "status": "shutting down"})
    return _error(
        404,
        f"no route {path!r} (have /status, /scenarios, /metrics, "
        f"/sweeps, /policy, /shutdown)",
    )


async def start_http_server(
    plane, host: str, port: int, in_flight: Set[asyncio.Task]
) -> asyncio.base_events.Server:
    """Bind the control surface and return the (not yet awaited)
    server; the caller owns its lifetime.

    Each connection's handler task is in ``in_flight`` until it has
    closed its connection, so the caller can let handlers finish after
    closing the server.
    """

    async def handle(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        in_flight.add(task)
        task.add_done_callback(in_flight.discard)
        try:
            parsed = await _read_request(reader)
            if parsed is None:
                return
            method, path, body = parsed
            try:
                # Handlers take the plane lock, which a computing
                # window can hold for a while — route in a worker
                # thread so a slow window never stalls the event loop
                # (and /shutdown stays responsive).
                response = await asyncio.to_thread(
                    _route, plane, method, path, body
                )
            except Exception as exc:  # noqa: BLE001 - must answer 500
                response = _error(500, f"{type(exc).__name__}: {exc}")
            writer.write(response)
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except ControlPlaneError as exc:
            try:
                writer.write(_error(400, str(exc)))
                await writer.drain()
            except ConnectionError:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except ConnectionError:
                pass

    return await asyncio.start_server(handle, host=host, port=port)
