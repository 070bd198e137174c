"""The stdlib HTTP front-end over a real loopback socket.

Every test starts a :class:`~repro.service.http.BandwidthService` on an
ephemeral port, speaks raw HTTP/1.1 over ``asyncio.open_connection``,
and asserts on the full response — status line, headers and the JSON
envelope.  The negative-path tests pin the contract that *no* failure
mode ever emits a traceback: malformed framing, malformed JSON, invalid
parameters, oversized bodies and shed requests all come back as
structured envelopes.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.service import (
    AdmissionController,
    BandwidthService,
    QueryEngine,
    ServiceLimits,
    TokenBucket,
)


async def _roundtrip(port, raw: bytes, keep_reader=None):
    """Send one raw request; return ``(status, headers, body_bytes)``."""
    if keep_reader is None:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
    else:
        reader, writer = keep_reader
    writer.write(raw)
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    status = int(status_line.split(" ")[1])
    headers = {}
    for line in header_lines:
        if ":" in line:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
    body = await reader.readexactly(int(headers.get("content-length", 0)))
    if keep_reader is None:
        writer.close()
    return status, headers, body


def _post(path: str, payload, raw_body: bytes | None = None) -> bytes:
    body = raw_body if raw_body is not None else json.dumps(payload).encode()
    return (
        f"POST {path} HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode() + body


def _serve(test, engine: QueryEngine | None = None):
    """Run ``await test(port)`` against a live service, then tear down."""

    async def main():
        service = BandwidthService(engine or QueryEngine())
        port = await service.start()
        try:
            return await test(port)
        finally:
            await service.stop()

    return asyncio.run(main())


def test_query_roundtrip():
    async def scenario(port):
        return await _roundtrip(port, _post("/query", {
            "scheme": "full", "N": 16, "M": 16, "B": 8, "r": 0.5,
        }))

    status, headers, body = _serve(scenario)
    envelope = json.loads(body)
    assert status == 200
    assert headers["content-type"] == "application/json"
    assert envelope["ok"] is True
    assert envelope["source"] == "computed"
    assert envelope["result"]["B"] == 8
    assert isinstance(envelope["result"]["bandwidth"], float)


def test_sweep_roundtrip_with_audited_skips():
    async def scenario(port):
        return await _roundtrip(port, _post("/sweep", {
            "scheme": "kclass", "N": 16, "M": 16, "B": [2, 4, 20],
        }))

    status, _, body = _serve(scenario)
    envelope = json.loads(body)
    assert status == 200
    assert sorted(envelope["result"]["values"]) == ["2", "4"]
    (skipped,) = envelope["result"]["skipped"]
    assert skipped["B"] == 20
    assert skipped["reason_code"] == "bus_count_exceeds_modules"


def test_healthz_reports_engine_occupancy():
    async def scenario(port):
        return await _roundtrip(port, b"GET /healthz HTTP/1.1\r\n\r\n")

    status, _, body = _serve(scenario)
    health = json.loads(body)
    assert status == 200
    assert health["ok"] is True
    assert health["inflight"] == 0
    assert health["queue_depth"] == 0


def test_metrics_exports_service_series():
    async def scenario(port):
        await _roundtrip(port, _post("/query", {
            "scheme": "full", "N": 8, "B": 4,
        }))
        return await _roundtrip(port, b"GET /metrics HTTP/1.1\r\n\r\n")

    from repro.obs import telemetry

    async def run(port):
        return await scenario(port)

    engine = QueryEngine()

    async def main():
        service = BandwidthService(engine)
        port = await service.start()
        try:
            return await run(port)
        finally:
            await service.stop()

    with telemetry():
        status, headers, body = asyncio.run(main())
    text = body.decode()
    assert status == 200
    assert headers["content-type"] == "text/plain"
    assert 'service_requests{kind="query"} 1' in text
    assert 'service_http_requests{path="/query"} 1' in text


def test_keepalive_serves_multiple_requests_per_connection():
    async def scenario(port):
        reader_writer = await asyncio.open_connection("127.0.0.1", port)
        first = await _roundtrip(port, _post("/query", {
            "scheme": "full", "N": 16, "B": 8,
        }), keep_reader=reader_writer)
        second = await _roundtrip(port, _post("/query", {
            "scheme": "full", "N": 16, "B": 8,
        }), keep_reader=reader_writer)
        reader_writer[1].close()
        return first, second

    (s1, _, b1), (s2, _, b2) = _serve(scenario)
    assert s1 == s2 == 200
    one, two = json.loads(b1), json.loads(b2)
    assert one["source"] == "computed"
    assert two["source"] == "cache"
    assert one["result"]["bandwidth"] == two["result"]["bandwidth"]


# ----------------------------------------------------------------------
# Negative paths: structured envelopes, never a traceback
# ----------------------------------------------------------------------


def _assert_envelope(body: bytes, status: int, exc_type: str):
    text = body.decode()
    assert "Traceback" not in text
    envelope = json.loads(text)
    assert envelope["ok"] is False
    assert envelope["error"]["status"] == status
    assert envelope["error"]["type"] == exc_type
    return envelope


def test_connection_close_header_ends_the_connection():
    """``Connection: close`` lets EOF-reading clients finish promptly."""

    async def scenario(port):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        body = json.dumps({"scheme": "full", "N": 16, "B": 8}).encode()
        writer.write(
            (
                f"POST /query HTTP/1.1\r\nContent-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode() + body
        )
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout=5.0)
        writer.close()
        return raw

    raw = _serve(scenario)
    head, _, payload = raw.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200 OK")
    assert json.loads(payload)["ok"] is True


def test_malformed_json_is_400():
    async def scenario(port):
        return await _roundtrip(
            port, _post("/query", None, raw_body=b"{not json!")
        )

    status, _, body = _serve(scenario)
    assert status == 400
    _assert_envelope(body, 400, "ConfigurationError")


def test_nan_rate_in_raw_json_is_400():
    # Python's json.loads accepts bare NaN: the parser must still reject
    async def scenario(port):
        return await _roundtrip(port, _post(
            "/query", None,
            raw_body=b'{"scheme": "full", "N": 8, "B": 4, "r": NaN}',
        ))

    status, _, body = _serve(scenario)
    assert status == 400
    envelope = _assert_envelope(body, 400, "ConfigurationError")
    assert "finite" in envelope["error"]["message"]


def test_invalid_parameters_are_400():
    async def scenario(port):
        return await _roundtrip(port, _post("/query", {
            "scheme": "full", "N": 0, "B": 4,
        }))

    status, _, body = _serve(scenario)
    assert status == 400
    _assert_envelope(body, 400, "ConfigurationError")


def test_unknown_route_is_404():
    async def scenario(port):
        return await _roundtrip(port, b"GET /nope HTTP/1.1\r\n\r\n")

    status, _, body = _serve(scenario)
    assert status == 404
    envelope = json.loads(body)
    assert envelope["error"]["type"] == "NotFound"


def test_get_on_query_route_is_400():
    async def scenario(port):
        return await _roundtrip(port, b"GET /query HTTP/1.1\r\n\r\n")

    status, _, body = _serve(scenario)
    assert status == 400
    assert b"requires POST" in body


def test_declared_oversized_body_is_413_without_reading_it():
    engine = QueryEngine(limits=ServiceLimits(max_body_bytes=1024))

    async def scenario(port):
        return await _roundtrip(
            port,
            b"POST /query HTTP/1.1\r\nContent-Length: 1048576\r\n\r\n",
        )

    status, _, body = _serve(scenario, engine)
    assert status == 413
    _assert_envelope(body, 413, "QueryTooLargeError")


def test_oversized_sweep_is_413():
    engine = QueryEngine(limits=ServiceLimits(max_sweep_cells=4))

    async def scenario(port):
        return await _roundtrip(port, _post("/sweep", {
            "scheme": "full", "N": 8, "B": [1, 2, 3, 4, 5],
        }))

    status, _, body = _serve(scenario, engine)
    assert status == 413
    _assert_envelope(body, 413, "QueryTooLargeError")


def test_malformed_request_line_is_400():
    async def scenario(port):
        return await _roundtrip(port, b"BANANAS\r\n\r\n")

    status, _, body = _serve(scenario)
    assert status == 400
    assert b"Traceback" not in body


def test_bad_content_length_is_400():
    async def scenario(port):
        return await _roundtrip(
            port, b"POST /query HTTP/1.1\r\nContent-Length: lots\r\n\r\n"
        )

    status, _, body = _serve(scenario)
    assert status == 400
    assert b"Traceback" not in body


def test_shed_request_is_429_with_retry_after_header():
    engine = QueryEngine(
        admission=AdmissionController(TokenBucket(rate_per_second=0.5,
                                                  burst=1))
    )

    async def scenario(port):
        ok = await _roundtrip(port, _post("/query", {
            "scheme": "full", "N": 8, "B": 4,
        }))
        shed = await _roundtrip(port, _post("/query", {
            "scheme": "full", "N": 8, "B": 2,
        }))
        return ok, shed

    (ok_status, _, _), (status, headers, body) = _serve(scenario, engine)
    assert ok_status == 200
    assert status == 429
    envelope = _assert_envelope(body, 429, "AdmissionError")
    assert envelope["error"]["reason"] == "rate"
    assert envelope["error"]["retry_after_s"] > 0.0
    # header hint is the envelope hint rounded up to whole seconds
    assert int(headers["retry-after"]) >= envelope["error"]["retry_after_s"]


def test_parse_failures_do_not_poison_subsequent_requests():
    async def scenario(port):
        bad = await _roundtrip(port, _post("/query", {
            "scheme": "full", "N": 16, "B": "eight",
        }))
        good = await _roundtrip(port, _post("/query", {
            "scheme": "full", "N": 16, "B": 8,
        }))
        return bad, good

    (bad_status, _, _), (good_status, _, good_body) = _serve(scenario)
    assert bad_status == 400
    assert good_status == 200
    assert json.loads(good_body)["ok"] is True


# ----------------------------------------------------------------------
# Framing: one reading of the byte stream, or a 400 and a close
# ----------------------------------------------------------------------


async def _exchange(port, raw: bytes) -> bytes:
    """Send ``raw`` and end the stream; return every byte the server
    sends until it closes."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(raw)
    writer.write_eof()
    await writer.drain()
    received = await asyncio.wait_for(reader.read(), timeout=5.0)
    writer.close()
    return received


def _responses(raw: bytes) -> list[tuple[int, bytes]]:
    """Split a response stream into ``(status, body)`` pairs."""
    responses = []
    while raw:
        head, _, rest = raw.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        length = next(
            int(line.partition(":")[2])
            for line in lines
            if line.lower().startswith("content-length:")
        )
        responses.append((int(lines[0].split(" ")[1]), rest[:length]))
        raw = rest[length:]
    return responses


_CELL = json.dumps({"scheme": "full", "N": 16, "B": 8}).encode()


def _assert_one_framing_400(raw: bytes, needle: str) -> None:
    """Exactly one response, a structured 400 naming ``needle``."""
    ((status, body),) = _responses(raw)
    assert status == 400
    envelope = json.loads(body)
    assert envelope["ok"] is False
    assert envelope["error"]["status"] == 400
    assert needle in envelope["error"]["message"]


def test_repeated_content_length_is_400_and_closes():
    # The last header would frame 68 bytes, the first only 5.
    raw = (
        b"POST /query HTTP/1.1\r\nContent-Length: 5\r\n"
        b"Content-Length: %d\r\n\r\n" % len(_CELL)
    ) + _CELL
    _assert_one_framing_400(
        _serve(lambda port: _exchange(port, raw)), "Content-Length"
    )


def test_signed_content_length_is_400_and_closes():
    raw = (
        b"POST /query HTTP/1.1\r\nContent-Length: +%d\r\n\r\n" % len(_CELL)
    ) + _CELL
    _assert_one_framing_400(
        _serve(lambda port: _exchange(port, raw)), "Content-Length"
    )


def test_underscored_content_length_is_400_and_closes():
    digits = str(len(_CELL))
    assert len(digits) == 2
    raw = (
        b"POST /query HTTP/1.1\r\nContent-Length: %s_%s\r\n\r\n"
        % (digits[0].encode(), digits[1].encode())
    ) + _CELL
    _assert_one_framing_400(
        _serve(lambda port: _exchange(port, raw)), "Content-Length"
    )


def test_transfer_encoding_is_400_and_chunks_are_never_a_request():
    chunk = b"%x\r\n%s\r\n0\r\n\r\n" % (len(_CELL), _CELL)
    raw = (
        b"POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n" + chunk
    )
    _assert_one_framing_400(
        _serve(lambda port: _exchange(port, raw)), "Transfer-Encoding"
    )


def test_request_line_counts_toward_the_head_cap():
    # A 10 KiB request line plus 8 KiB of headers: each is under the
    # 16 KiB cap on its own, the head is not.
    raw = (
        b"GET /healthz HTTP/1.1" + b"X" * (10 * 1024) + b"\r\n"
        b"X-Pad: " + b"p" * (8 * 1024) + b"\r\n\r\n"
    )
    _assert_one_framing_400(
        _serve(lambda port: _exchange(port, raw)), "16384 bytes"
    )


@pytest.mark.parametrize("size, status", [(16 * 1024, 200),
                                          (16 * 1024 + 1, 400)])
def test_head_cap_is_exact(size, status):
    base = b"GET /healthz HTTP/1.1\r\nX-Pad: \r\n\r\n"
    raw = base.replace(b"X-Pad: ", b"X-Pad: " + b"p" * (size - len(base)))
    assert len(raw) == size
    ((answer, body),) = _responses(
        _serve(lambda port: _exchange(port, raw))
    )
    assert answer == status
    assert json.loads(body)["ok"] is (status == 200)


def test_bare_lf_head_is_400_and_never_served():
    """CRLF is required: a bare-LF head is refused, not guessed at."""
    # All bare LF: no CRLF head end ever arrives, so the 400 comes when
    # the client ends its stream.
    raw = b"GET /healthz HTTP/1.1\nHost: x\n\n"
    _assert_one_framing_400(
        _serve(lambda port: _exchange(port, raw)),
        "bare LF",
    )
    # Mixed endings: the CRLF head end arrives, the bare LF is inside.
    raw = b"GET /healthz HTTP/1.1\nHost: x\r\n\r\n"
    _assert_one_framing_400(
        _serve(lambda port: _exchange(port, raw)), "bare LF"
    )


def test_body_that_is_not_utf8_is_400():
    async def scenario(port):
        return await _roundtrip(port, _post(
            "/query", None, raw_body=b'{"scheme": "\xff"}'
        ))

    status, _, body = _serve(scenario)
    assert status == 400
    _assert_envelope(body, 400, "ConfigurationError")


def test_body_nested_past_the_recursion_limit_is_400():
    async def scenario(port):
        return await _roundtrip(port, _post(
            "/query", None, raw_body=b"[" * 100_000
        ))

    status, _, body = _serve(scenario)
    assert status == 400
    _assert_envelope(body, 400, "ConfigurationError")
