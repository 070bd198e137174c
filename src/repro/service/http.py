"""Stdlib HTTP/1.1 front-end over the query engine (asyncio streams).

No web framework: a long-lived ``asyncio.start_server`` loop parses
minimal HTTP/1.1 requests (request line, headers, ``Content-Length``
body) and maps four routes onto the engine::

    POST /query    one (scheme, N, M, B, r, model) cell
    POST /sweep    one scheme over a bus-count vector
    GET  /healthz  liveness + engine occupancy
    GET  /metrics  Prometheus text dump of the active telemetry registry

Success responses are the engine's JSON envelopes; every failure —
malformed JSON, oversized bodies, invalid parameters, shed requests,
expired deadlines, tripped breakers, shutdown — is a structured JSON
error envelope from :func:`repro.service.protocol.error_envelope` with
the matching status code (400/413/429/503/504), never a traceback.
Shed and breaker-open responses additionally carry a ``Retry-After``
header with the deterministic hint rounded up to whole seconds.

Requests may carry an ``X-Repro-Deadline-Ms`` header: the remaining
end-to-end budget in milliseconds.  It is parsed into a
:class:`~repro.resilience.deadline.Deadline` at ingress and threaded
through the engine; expiry anywhere along the path returns a structured
504 naming the site that observed it.

Framing rules.  A request head is the request line and header lines,
each ending in CRLF, closed by an empty CRLF line; it is read with one
``readuntil`` and split in one pass.  The rules that decide where one
request ends and the next begins are strict, because a guess there lets
two parties disagree about the byte stream:

* the whole head, request line included, is at most 16 KiB
  (``_MAX_HEADER_BYTES``); the stream reader's limit is the same cap;
* a body is framed by exactly one ``Content-Length`` whose value is
  1*DIGIT — a repeated header (equal or not), a sign, an underscore,
  a list or an empty value is rejected;
* any ``Transfer-Encoding`` header is rejected (no chunked bodies);
* a bare LF ending any head line is rejected with a 400, never served:
  at once when a CRLF head end follows it, otherwise when the client
  ends its stream or 16 KiB pass without a CRLF head end.

Each framing rejection is a structured 400 and closes the connection,
since the rest of the stream can no longer be framed.  A head or body
cut short by the client ends in a quiet close with no response.

The per-request path on a keep-alive connection is: one ``readuntil``
for the head, one ``readexactly`` for the body, ``json.loads``,
:meth:`~repro.service.engine.QueryEngine.execute_payload`, and one
``write`` of pre-formatted head bytes plus the engine's encoded
envelope.  ``drain()`` is awaited only when the transport could not
hand every byte to the kernel at once.
"""

from __future__ import annotations

import asyncio
import json
import math

from repro.exceptions import (
    AdmissionError,
    BreakerOpenError,
    ConfigurationError,
    QueryTooLargeError,
    ServiceStoppingError,
)
from repro.obs.metrics import get_registry
from repro.obs.exporters import prometheus_text
from repro.resilience import chaos
from repro.resilience.deadline import (
    DEADLINE_HEADER,
    Deadline,
    parse_deadline_header,
)
from repro.service.engine import QueryEngine
from repro.service.protocol import error_envelope

__all__ = ["BandwidthService"]

_MAX_HEADER_BYTES = 16 * 1024

_HEAD_END = b"\r\n\r\n"
_HEAD_TOO_LARGE = f"request head exceeds {_MAX_HEADER_BYTES} bytes"
_BARE_LF = "request head uses bare LF line endings; CRLF is required"

_DEADLINE_HEADER_LOWER = DEADLINE_HEADER.lower()


class _BadRequest(ConfigurationError):
    """Framing-level rejection (malformed request line or headers)."""


async def _read_request(
    reader: asyncio.StreamReader, max_body: int
) -> tuple[str, str, bytes, bool, Deadline | None]:
    """Parse one request; returns ``(method, path, body, close, deadline)``.

    Raises :class:`EOFError` when the stream ends before a full request
    (a bare-LF head at end of stream is a :class:`_BadRequest`).  The
    deadline starts ticking the moment the ``X-Repro-Deadline-Ms``
    header is parsed — header time counts against the budget.
    """
    try:
        head = await reader.readuntil(_HEAD_END)
    except asyncio.IncompleteReadError as exc:
        if b"\n\n" in exc.partial or b"\n\r\n" in exc.partial:
            raise _BadRequest(_BARE_LF) from None
        raise
    except asyncio.LimitOverrunError:
        raise _BadRequest(_HEAD_TOO_LARGE) from None
    if len(head) > _MAX_HEADER_BYTES:
        raise _BadRequest(_HEAD_TOO_LARGE)
    if head.count(b"\n") != head.count(b"\r\n"):
        raise _BadRequest(_BARE_LF)
    request_line, *lines = head[:-4].decode("latin-1").split("\r\n")
    try:
        method, path, _version = request_line.strip().split(" ", 2)
    except ValueError:
        raise _BadRequest("malformed HTTP request line") from None

    content_length: int | None = None
    close = False
    deadline: Deadline | None = None
    for line in lines:
        name, _, value = line.partition(":")
        name = name.strip().lower()
        if name == "content-length":
            if content_length is not None:
                raise _BadRequest("repeated Content-Length header")
            value = value.strip()
            try:
                # ``int()`` alone would also take a sign, underscores
                # and non-ASCII digits; the grammar is 1*DIGIT.  It
                # raises on more digits than it converts.
                if not (value.isascii() and value.isdigit()):
                    raise ValueError
                content_length = int(value)
            except ValueError:
                raise _BadRequest(
                    f"bad Content-Length: {value[:32]!r}"
                ) from None
        elif name == "transfer-encoding":
            raise _BadRequest(
                "Transfer-Encoding is not supported; frame the body "
                "with Content-Length"
            )
        elif name == "connection":
            close = value.strip().lower() == "close"
        elif name == _DEADLINE_HEADER_LOWER:
            deadline = parse_deadline_header(value)
    if not content_length:
        return method, path, b"", close, deadline
    if content_length > max_body:
        raise QueryTooLargeError(
            f"request body of {content_length} bytes exceeds the "
            f"{max_body}-byte limit"
        )
    body = await reader.readexactly(content_length)
    return method, path, body, close, deadline


class BandwidthService:
    """Bind a :class:`~repro.service.engine.QueryEngine` to a TCP port."""

    def __init__(
        self, engine: QueryEngine, host: str = "127.0.0.1", port: int = 0
    ):
        self.engine = engine
        self._host = host
        self._port = port
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.Task] = set()

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` after :meth:`start`)."""
        if self._server is not None:
            return self._server.sockets[0].getsockname()[1]
        return self._port

    async def start(self) -> int:
        """Start accepting connections; returns the bound port."""
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port,
            limit=_MAX_HEADER_BYTES,
        )
        return self.port

    async def stop(self, grace_seconds: float = 1.0) -> None:
        """Graceful shutdown: drain, complete every waiter, tear down.

        Ordering matters: (1) stop accepting connections, (2) begin
        engine shutdown — every in-flight coalesced waiter and queued
        batch submission is *completed* with a structured 503
        (:class:`~repro.exceptions.ServiceStoppingError`), never left
        pending — then (3) give connection handlers ``grace_seconds``
        to write those envelopes out before cancelling stragglers
        (idle keep-alive connections blocked in ``readline``).
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.engine.begin_shutdown()
        if self._connections:
            done, pending = await asyncio.wait(
                tuple(self._connections), timeout=grace_seconds
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        self._connections.clear()
        self.engine.close()

    async def serve_forever(self) -> None:
        """Block serving requests until cancelled."""
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            while True:
                try:
                    method, path, body, close, deadline = await _read_request(
                        reader, self.engine.limits.max_body_bytes
                    )
                except (EOFError, ConnectionError):
                    # EOFError covers asyncio.IncompleteReadError: a
                    # head or body cut short closes without an answer.
                    break
                except Exception as exc:
                    await self._send_error(writer, exc)
                    break
                try:
                    status, payload, headers = await self._dispatch(
                        method, path, body, deadline
                    )
                except Exception as exc:
                    get_registry().increment(
                        "service.http.errors", type=type(exc).__name__
                    )
                    status, envelope = error_envelope(exc)
                    headers = _retry_headers(exc)
                    payload = json.dumps(envelope).encode()
                await _write_response(writer, status, payload, headers)
                if close:  # client sent Connection: close
                    break
        except asyncio.CancelledError:
            # Server shutdown: finishing quietly (rather than staying in a
            # cancelled state) keeps asyncio's stream done-callback from
            # logging a spurious CancelledError for every idle keep-alive.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _dispatch(
        self,
        method: str,
        path: str,
        body: bytes,
        deadline: Deadline | None = None,
    ) -> tuple[int, bytes, dict[str, str]]:
        registry = get_registry()
        registry.increment("service.http.requests", path=path)
        await chaos.ainject("service.http")
        if path == "/healthz" and method == "GET":
            health = {
                "ok": True,
                "status": (
                    "stopping" if self.engine.stopping else "serving"
                ),
                "inflight": self.engine.inflight_count,
                "queue_depth": self.engine.queue_depth,
                "cached_results": self.engine.cache_size,
            }
            return 200, json.dumps(health).encode(), {}
        if path == "/metrics" and method == "GET":
            text = prometheus_text(registry)
            return 200, text.encode(), {"Content-Type": "text/plain"}
        if path in ("/query", "/sweep"):
            if method != "POST":
                raise _BadRequest(f"{path} requires POST, got {method}")
            if self.engine.stopping:
                raise ServiceStoppingError(
                    "service is shutting down; not accepting new queries"
                )
            try:
                payload = json.loads(body)
            except (ValueError, RecursionError) as exc:
                # ValueError: JSONDecodeError, or bytes that are not
                # UTF-8/16/32; RecursionError: nesting past the limit.
                raise ConfigurationError(
                    f"request body is not valid JSON: {exc}"
                ) from exc
            response = await self.engine.execute_payload(
                payload, sweep=(path == "/sweep"), deadline=deadline
            )
            # Hot repeats reuse the engine's encoded-bytes LRU instead
            # of rebuilding the envelope and re-serializing it.
            return 200, self.engine.encoded_payload(response), {}
        envelope = {
            "ok": False,
            "error": {
                "status": 404,
                "type": "NotFound",
                "message": f"no route for {method} {path}",
            },
        }
        return 404, json.dumps(envelope).encode(), {}

    async def _send_error(
        self, writer: asyncio.StreamWriter, exc: BaseException
    ) -> None:
        status, envelope = error_envelope(exc)
        await _write_response(
            writer, status, json.dumps(envelope).encode(), _retry_headers(exc)
        )


#: ``HTTP/1.1 <status> <reason>\r\n`` for every status the service sends.
_STATUS_LINES = {
    status: f"HTTP/1.1 {status} {reason}\r\n".encode("latin-1")
    for status, reason in {
        200: "OK",
        400: "Bad Request",
        404: "Not Found",
        413: "Payload Too Large",
        429: "Too Many Requests",
        500: "Internal Server Error",
        503: "Service Unavailable",
        504: "Gateway Timeout",
    }.items()
}


def _retry_headers(exc: BaseException) -> dict[str, str]:
    if isinstance(exc, (AdmissionError, BreakerOpenError)):
        return {"Retry-After": str(math.ceil(exc.retry_after_seconds))}
    return {}


async def _write_response(
    writer: asyncio.StreamWriter,
    status: int,
    payload: bytes,
    headers: dict[str, str],
) -> None:
    head = _STATUS_LINES[status] + b"Content-Length: %d\r\n" % len(payload)
    if not any(name.lower() == "content-type" for name in headers):
        head += b"Content-Type: application/json\r\n"
    for name, value in headers.items():
        head += f"{name}: {value}\r\n".encode("latin-1")
    writer.write(head + b"\r\n" + payload)
    # The transport sends at once what the kernel takes; only a backlog
    # left in its buffer is worth waiting on.
    if writer.transport.get_write_buffer_size():
        try:
            await writer.drain()
        except ConnectionError:
            pass
