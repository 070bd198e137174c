"""Fuzzing the HTTP framing of a live :class:`BandwidthService`.

Every example starts a fresh service on an ephemeral port and drives it
over a real loopback socket.  The properties pin what the one-read head
parser must guarantee whatever bytes arrive, and however TCP cuts them:

* a pipelined stream of valid requests is answered identically, in the
  same order, whether it arrives whole or split at arbitrary bytes;
* a request cut short (in its head or its body) ends in a quiet close,
  with no response for the cut request;
* arbitrary bytes get structured 4xx envelopes or a close — never a
  5xx, never a traceback;
* no connection task outlives its client.
"""

from __future__ import annotations

import asyncio
import json
import socket

from hypothesis import given, strategies as st

from repro.service import BandwidthService, QueryEngine


def _post(path: str, body: bytes) -> bytes:
    return (
        b"POST %s HTTP/1.1\r\nHost: fuzz\r\nContent-Length: %d\r\n\r\n"
        % (path.encode(), len(body))
    ) + body


def _cell(**fields) -> bytes:
    return _post("/query", json.dumps(fields).encode())


#: Valid keep-alive requests; their answers depend only on the order
#: they arrive in (cache sources, /healthz occupancy), so one stream
#: always gets the same bytes back.
VALID = [
    _cell(scheme="full", N=8, B=4),
    _cell(scheme="full", N=8, M=8, B=4, r=1.0),  # same key, other spelling
    _cell(scheme="single", N=8, B=3, r=0.5),
    _cell(scheme="kclass", N=8, B=2, r=0.25, model="hier",
          hierarchy={"clusters": 2}),
    _post("/sweep", json.dumps(
        {"scheme": "partial", "N": 8, "B": [2, 4], "n_groups": 2}
    ).encode()),
    b"GET /healthz HTTP/1.1\r\nHost: fuzz\r\n\r\n",
    b"GET /nope HTTP/1.1\r\n\r\n",  # 404
    _post("/query", b"{not json"),  # 400, connection stays open
    _cell(scheme="full", N=0, B=4),  # 400, connection stays open
]


def _run(scenario):
    """Run ``await scenario(port)`` against a fresh service.

    After the scenario, every connection task must finish on its own
    (the client has closed); only then is the service stopped.
    """

    async def main():
        service = BandwidthService(QueryEngine())
        port = await service.start()
        try:
            result = await scenario(port)
            me = asyncio.current_task()
            for _ in range(400):
                if asyncio.all_tasks() == {me}:
                    break
                await asyncio.sleep(0.005)
            assert asyncio.all_tasks() == {me}, "a connection task outlived its client"
            return result
        finally:
            await service.stop()

    return asyncio.run(main())


async def _send(port, chunks: list[bytes]) -> bytes:
    """Write ``chunks`` one by one, end the stream, read until close."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.get_extra_info("socket").setsockopt(
        socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
    )
    for chunk in chunks:
        writer.write(chunk)
        await writer.drain()
        if len(chunks) > 1:
            await asyncio.sleep(0.001)
    writer.write_eof()
    received = await asyncio.wait_for(reader.read(), timeout=10.0)
    writer.close()
    await writer.wait_closed()
    return received


def _responses(raw: bytes) -> list[tuple[int, dict]]:
    """Parse a response stream into ``(status, envelope)`` pairs.

    Fails on anything that is not a sequence of complete responses
    with JSON bodies.
    """
    responses = []
    while raw:
        head, sep, rest = raw.partition(b"\r\n\r\n")
        assert sep, f"truncated response head: {raw[:80]!r}"
        status_line, *lines = head.decode("latin-1").split("\r\n")
        assert status_line.startswith("HTTP/1.1 ")
        headers = {
            name.strip().lower(): value.strip()
            for name, _, value in (line.partition(":") for line in lines)
        }
        length = int(headers["content-length"])
        body = rest[:length]
        assert len(body) == length, "truncated response body"
        assert b"Traceback" not in body
        responses.append((int(status_line.split(" ")[1]), json.loads(body)))
        raw = rest[length:]
    return responses


def _split(stream: bytes, cuts: set[int]) -> list[bytes]:
    bounds = [0, *sorted(c for c in cuts if 0 < c < len(stream)), len(stream)]
    return [stream[a:b] for a, b in zip(bounds, bounds[1:])]


_REQUESTS = st.lists(st.sampled_from(VALID), min_size=1, max_size=6)


@given(requests=_REQUESTS, cuts=st.sets(st.integers(min_value=1,
                                                     max_value=2000),
                                        max_size=12))
def test_split_pipeline_matches_the_unsplit_stream(requests, cuts):
    stream = b"".join(requests)
    whole = _run(lambda port: _send(port, [stream]))
    split = _run(lambda port: _send(port, _split(stream, cuts)))
    assert split == whole
    answers = _responses(whole)
    assert len(answers) == len(requests)
    assert all(status < 500 for status, _ in answers)


@given(
    prefix=st.lists(st.sampled_from(VALID), max_size=2),
    request=st.sampled_from(VALID),
    data=st.data(),
)
def test_truncated_request_closes_without_an_answer(prefix, request, data):
    cut = data.draw(st.integers(min_value=0, max_value=len(request) - 1))
    stream = b"".join(prefix) + request[:cut]
    answers = _responses(_run(lambda port: _send(port, [stream])))
    # Every complete request is answered; the cut one is not.
    assert len(answers) == len(prefix)


@st.composite
def _mutated(draw):
    """A valid request with a few bytes replaced, inserted or deleted."""
    raw = bytearray(draw(st.sampled_from(VALID)))
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        at = draw(st.integers(min_value=0, max_value=len(raw)))
        edit = draw(st.sampled_from(["replace", "insert", "delete"]))
        byte = draw(st.sampled_from(
            [b"\r", b"\n", b":", b" ", b"0", b"9", b"+", b"\xff", b"\x00"]
        ) | st.binary(min_size=1, max_size=1))
        if edit == "insert":
            raw[at:at] = byte
        elif at < len(raw):
            raw[at:at + 1] = byte if edit == "replace" else b""
    return bytes(raw)


@given(stream=st.one_of(st.binary(max_size=400), _mutated(),
                        st.lists(_mutated(), min_size=2, max_size=3)
                        .map(b"".join)))
def test_arbitrary_bytes_get_a_4xx_or_a_close(stream):
    answers = _responses(_run(lambda port: _send(port, [stream])))
    for status, envelope in answers:
        assert status < 500, envelope
        assert "ok" in envelope
        if status >= 400:
            assert envelope["ok"] is False
            assert envelope["error"]["status"] == status
