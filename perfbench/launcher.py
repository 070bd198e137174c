"""Start ``repro-serve`` with spans around its layers; write them on exit.

Usage: ``python3 perfbench/launcher.py TRACE_FILE [repro-serve args...]``

The launcher wraps public functions of the service's layers, then calls
``repro.service.cli.main`` unchanged.  Every span of one request carries
the request id ``<client port>:<n>``, where ``n`` counts the POST
bodies decoded on that connection; the load generator numbers its own
requests the same way, which joins the two sides.  Only every
``SAMPLE_EVERY``-th request carries spans on the per-request path;
batch flushes, sweep profiles and topology calls are rare and costly,
so every one of them is recorded.  On shutdown (SIGINT)
the spans go to ``TRACE_FILE``, followed by a summary line with the
result-LRU size, the pmf-cache counters and the highest brownout level.
"""

from __future__ import annotations

import asyncio
import contextvars
import importlib
import json
import sys
import types
from pathlib import Path

import harness

harness.require_program()

from repro.core import exact  # noqa: E402
from repro.core.cache import pmf_cache  # noqa: E402
from repro.service import cli, engine, http  # noqa: E402
from repro.service.engine import QueryEngine  # noqa: E402
from repro.topology import generators  # noqa: E402

# ``repro.topology.recognize`` is also the name of a function the
# package re-exports, so fetch the module itself.
recognize = importlib.import_module("repro.topology.recognize")

#: ``[client port, POST bodies decoded]`` of the connection being served.
_CONNECTION: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_connection", default=None
)


def install(tracer: harness.Tracer, engines: list) -> None:
    start_server = asyncio.start_server

    async def numbered_start_server(client_connected_cb, *args, **kwargs):
        async def numbered(reader, writer):
            _CONNECTION.set([writer.get_extra_info("peername")[1], 0])
            await client_connected_cb(reader, writer)

        return await start_server(numbered, *args, **kwargs)

    asyncio.start_server = numbered_start_server

    # http.py decodes request bodies with ``json.loads``: give it a json
    # namespace whose ``loads`` opens the request and times the decode.
    decode = types.SimpleNamespace(loads=json.loads)
    tracer.wrap(decode, "loads", "protocol.decode", sampled=True)

    def loads(raw):
        connection = _CONNECTION.get()
        if connection is not None:
            connection[1] += 1
            sampled = connection[1] % harness.SAMPLE_EVERY == 0
            harness.REQUEST.set(
                f"{connection[0]}:{connection[1]}" if sampled else None
            )
        return decode.loads(raw)

    http.json = types.SimpleNamespace(
        loads=loads, dumps=json.dumps, JSONDecodeError=json.JSONDecodeError
    )

    tracer.wrap(engine, "parse_query", "protocol.parse", sampled=True)
    tracer.wrap(QueryEngine, "execute", "engine.execute", sampled=True,
                attrs=lambda response, args: {"source": response.source})
    tracer.wrap(QueryEngine, "encoded_payload", "engine.encode",
                sampled=True)
    tracer.wrap(engine, "evaluate_cells", "batch.evaluate",
                attrs=lambda result, args: {"cells": len(args[0])})
    tracer.wrap(engine, "scheme_bus_profile", "batch.profile")
    tracer.wrap(generators, "generate_structure", "topology.generate")
    tracer.wrap(recognize, "recognize_cached", "topology.recognize")
    tracer.wrap(exact, "exact_bandwidth", "topology.exact")

    init = QueryEngine.__init__

    def keep(self, *args, **kwargs):
        init(self, *args, **kwargs)
        engines.append(self)

    QueryEngine.__init__ = keep


def main(argv: list[str]) -> int:
    trace_path, serve_args = Path(argv[0]), argv[1:]
    tracer = harness.Tracer()
    engines: list[QueryEngine] = []
    install(tracer, engines)
    try:
        return cli.main(serve_args)
    finally:
        info = pmf_cache.cache_info()
        governor = engines[0].brownout if engines else None
        levels = [move["to"] for move in governor.transitions()] if governor else []
        tracer.write(trace_path, {
            "cache_size": engines[0].cache_size if engines else 0,
            "pmf_hits": info.hits,
            "pmf_misses": info.misses,
            "brownout_level_max": max(levels, default=0),
        })


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
