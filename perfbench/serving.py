"""Workloads ``serve_hot`` and ``serve_cold``: closed-loop HTTP load.

The server is a ``repro-serve`` subprocess with default flags on an
ephemeral port.  The load comes from this process only: two keep-alive
connections in a closed loop, because the real callers (experiment
scripts, notebooks) each wait for their reply.

* ``serve_hot`` draws ``POST /query`` bodies Zipf(s=1.1) from a seeded
  32-query universe shaped like ``benchmarks/bench_service.py``'s, after
  one warm-up pass over the universe: almost every answer comes from
  the result LRU and the encoded-bytes LRU.
* ``serve_cold`` sends only distinct requests: single cells of the five
  paper schemes (N 16..128, off-grid rates, both request models, about
  a tenth with ``classes``/``tenure``), about 10% ``/sweep`` over bus
  vectors, and about 2% ``custom`` generator specs small enough (M <= 12)
  for exact enumeration.  Every request misses the LRU, and past 4096
  distinct keys the LRU evicts.

Check: every answer must be 200/ok and within 1e-9 of the in-process
``analytic_bandwidth`` (plain single cells) or ``scheme_bus_profile``
(sweeps, custom structures, ``classes``/``tenure``), computed outside
the timed phase.
"""

from __future__ import annotations

import asyncio
import collections
import dataclasses
import json
import os
import random
import selectors
import signal
import subprocess
import sys
import time

import harness

harness.require_program()

from repro.analysis.batch import scheme_bus_profile  # noqa: E402
from repro.analysis.evaluate import analytic_bandwidth  # noqa: E402
from repro.service.protocol import build_model, parse_query  # noqa: E402
from repro.topology.factory import build_network  # noqa: E402

CONNECTIONS = 2
TOLERANCE = 1e-9
UNIVERSE_SIZE = 32
ZIPF_EXPONENT = 1.1
COLD_WARMUP = 16
FLOOR_PROBES = 400  # GET /healthz per connection
PAPER_SCHEMES = ("full", "single", "partial", "kclass", "crossbar")
COLD_SIZES = (16, 32, 48, 64, 96, 128)
HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: bench\r\n\r\n"


@dataclasses.dataclass(eq=False)
class Request:
    """One request body, encoded once."""

    path: str
    payload: dict
    raw: bytes = b""

    def __post_init__(self):
        body = json.dumps(self.payload).encode()
        self.raw = (
            f"POST {self.path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode() + body


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


def hot_universe(seed: int) -> list[Request]:
    """Distinct queries a fleet of clients keeps re-asking."""
    rng = random.Random(f"{seed}-universe")
    requests, seen = [], set()
    while len(requests) < UNIVERSE_SIZE:
        scheme = rng.choice(["full", "single", "partial", "kclass"])
        n = rng.choice([32, 64, 128])
        payload = {"scheme": scheme, "N": n, "M": n,
                   "r": rng.choice([0.5, 1.0])}
        if scheme == "partial":
            payload["n_groups"] = 4
            payload["B"] = 4 * rng.randint(1, n // 4)
        else:
            payload["B"] = rng.randint(1, n)
        if rng.random() < 0.3:
            payload["model"] = "hier"
        query = parse_query(payload)
        if query not in seen:
            seen.add(query)
            requests.append(Request("/query", payload))
    return requests


class HotStream:
    """Zipf(s) draws over the universe, rank-weighted ``1/rank**s``."""

    def __init__(self, seed: int):
        self.warmup = hot_universe(seed)
        self._rng = random.Random(f"{seed}-zipf")
        self._weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT
                         for rank in range(UNIVERSE_SIZE)]
        self._batch: list[Request] = []

    def __next__(self) -> Request:
        if not self._batch:
            self._batch = self._rng.choices(
                self.warmup, weights=self._weights, k=4096
            )[::-1]
        return self._batch.pop()


def _bus_count(rng, scheme: str, n: int, payload: dict) -> int:
    if scheme == "partial":
        groups = payload.setdefault("n_groups", rng.choice((2, 4)))
        return groups * rng.randint(1, n // groups)
    return rng.randint(1, n)


#: One block of the cold mix: every block of 50 requests holds this
#: many of each kind, in a seeded order, so that every window of a run
#: sees the same mix (2% custom, 10% sweeps, 8% classes/tenure).
COLD_BLOCK = {"custom": 1, "sweep": 5, "arbitration": 4, "cell": 40}


def cold_request(rng: random.Random, kind: str) -> Request:
    """One cold request of ``kind`` (not yet checked for distinctness)."""
    rate = round(rng.uniform(0.05, 1.0), 6)
    if kind == "custom":
        n = rng.choice((8, 10, 12))
        generator = {"kind": rng.choice(("random_incidence", "waxman")),
                     "seed": rng.randrange(2**31)}
        if generator["kind"] == "random_incidence":
            generator["density"] = round(rng.uniform(0.3, 0.7), 3)
        return Request("/query", {
            "scheme": "custom", "N": n, "M": n, "B": rng.randint(2, 6),
            "r": rate, "model": "unif", "generator": generator,
        })
    scheme = rng.choice(PAPER_SCHEMES)
    n = rng.choice(COLD_SIZES)
    payload = {"scheme": scheme, "N": n, "M": n, "r": rate,
               "model": rng.choice(("unif", "hier"))}
    if kind == "sweep":
        width = rng.randint(8, 16)
        counts: set[int] = set()
        while len(counts) < 2:  # one count would be answered as a cell
            counts |= {_bus_count(rng, scheme, n, payload)
                       for _ in range(width)}
        payload["B"] = sorted(counts)
        return Request("/sweep", payload)
    payload["B"] = _bus_count(rng, scheme, n, payload)
    if kind == "arbitration":
        knob = rng.random()
        if knob < 0.6:
            weight = round(rng.uniform(0.1, 0.9), 4)
            payload["classes"] = [weight, 1.0 - weight]
        if knob >= 0.4:
            payload["tenure"] = round(rng.uniform(1.5, 4.0), 3)
    return Request("/query", payload)


class ColdStream:
    """Distinct cold requests; the first ``COLD_WARMUP`` are the warm-up."""

    def __init__(self, seed: int):
        self._rng = random.Random(f"{seed}-cold")
        self._seen: set[str] = set()
        self._kinds: list[str] = []
        self.warmup = [next(self) for _ in range(COLD_WARMUP)]

    def __next__(self) -> Request:
        if not self._kinds:
            self._kinds = [kind for kind, count in COLD_BLOCK.items()
                           for _ in range(count)]
            self._rng.shuffle(self._kinds)
        kind = self._kinds.pop()
        while True:
            request = cold_request(self._rng, kind)
            key = request.path + json.dumps(request.payload, sort_keys=True)
            if key not in self._seen:
                self._seen.add(key)
                return request


# ----------------------------------------------------------------------
# Output check
# ----------------------------------------------------------------------


def reference_values(request: Request) -> dict[str, float]:
    """Bus count -> bandwidth, computed in process."""
    query = parse_query(request.payload, sweep=request.path == "/sweep")
    model = build_model(query)
    kwargs = dict(query.network_kwargs)
    if request.path == "/query" and query.scheme != "custom" and not (
        {"class_weights", "tenure"} & set(kwargs)
    ):
        network = build_network(query.scheme, query.n_processors,
                                query.n_memories, query.bus_counts[0], **kwargs)
        return {str(query.bus_counts[0]): analytic_bandwidth(network, model)}
    profile = scheme_bus_profile(
        query.scheme, query.n_processors, query.n_memories,
        list(query.bus_counts), model, **kwargs,
    )
    return {str(b): value for b, value in profile.values.items()}


def served_values(request: Request, body: bytes) -> dict[str, float]:
    result = json.loads(body)["result"]
    if request.path == "/sweep":
        return result["values"]
    return {str(result["B"]): result["bandwidth"]}


def check_outcomes(outcomes, references: dict) -> tuple[int, int, list[str]]:
    """``(failed, shed, problems)`` over ``(request, status, body)`` triples.

    ``references`` maps ``id(request)`` to its in-process values and is
    filled on demand.  Identical answers to one request are checked once.
    """
    verdicts: dict[tuple, str | None] = {}
    failed = shed = 0
    problems = []
    for request, status, body in outcomes:
        key = (id(request), status, body)
        if key not in verdicts:
            verdicts[key] = _verdict(request, status, body, references)
            if verdicts[key] is not None and status == 200:
                problems.append(verdicts[key])
        if verdicts[key] is not None:
            failed += 1
            shed += status == 429
    return failed, shed, problems


def _verdict(request, status, body, references) -> str | None:
    """Why this answer is wrong, or ``None`` when it is right."""
    if status != 200:
        return f"HTTP {status} for {request.path} {request.payload}"
    try:
        if not json.loads(body)["ok"]:
            return f"not ok: {body[:200]!r}"
        served = served_values(request, body)
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed answer {body[:200]!r}: {exc!r}"
    if id(request) not in references:
        references[id(request)] = reference_values(request)
    expected = references[id(request)]
    if set(served) != set(expected) or any(
        not abs(served[b] - expected[b]) <= TOLERANCE for b in expected
    ):
        return (f"{request.path} {request.payload}: served {served}, "
                f"expected {expected}")
    return None


# ----------------------------------------------------------------------
# Server and client
# ----------------------------------------------------------------------


class Server:
    """A ``repro-serve`` subprocess; plain, or under the tracing launcher."""

    def __init__(self, name: str, trace_path=None, cpu: int | None = None):
        module = ["-m", "repro.service.cli"]
        if trace_path is not None:
            module = [str(harness.HERE / "launcher.py"), str(trace_path)]
        self._log = open(harness.out_path(f"server-{name}.log"), "wb")
        cpus = os.sched_getaffinity(0) if cpu is None else {cpu}
        with harness.pinned(cpus):
            self.proc = subprocess.Popen(
                [sys.executable, *module, "--port", "0"],
                stdout=subprocess.PIPE, stderr=self._log,
                env=harness.child_env(), cwd=harness.ROOT,
            )
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            ready = selector.select(timeout=120)
        line = self.proc.stdout.readline().decode() if ready else ""
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"repro-serve did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])

    def cpu_seconds(self) -> float:
        """CPU time of every thread of the server so far."""
        total = 0
        task_dir = f"/proc/{self.proc.pid}/task"
        for task in os.listdir(task_dir):
            try:
                with open(f"{task_dir}/{task}/schedstat") as handle:
                    total += int(handle.read().split()[0])
            except FileNotFoundError:  # a thread that just ended
                pass
        return total / 1e9

    def stop(self) -> None:
        """SIGINT (the server's clean shutdown), then wait for the exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


class Connection:
    """One keep-alive HTTP/1.1 connection; numbers its POSTs like the launcher."""

    def __init__(self, reader, writer):
        self._reader, self._writer = reader, writer
        self.port = writer.get_extra_info("sockname")[1]
        self.posts = 0

    @classmethod
    async def open(cls, port: int) -> "Connection":
        return cls(*await asyncio.open_connection("127.0.0.1", port))

    async def send(self, raw: bytes) -> tuple[int, bytes]:
        if raw is not HEALTHZ:
            self.posts += 1
        self._writer.write(raw)
        head = await self._reader.readuntil(b"\r\n\r\n")
        length = int(head.split(b"Content-Length: ", 1)[1].split(b"\r\n", 1)[0])
        return int(head[9:12]), await self._reader.readexactly(length)

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except ConnectionError:
            pass


@dataclasses.dataclass
class Load:
    """What one closed-loop phase saw."""

    latencies: list[float]
    outcomes: list[tuple]
    start: float
    wall: float
    cpu: float
    #: CPU seconds of the server over the phase, when it was asked for.
    server_cpu: float = 0.0


async def closed_loop(connections, stream, seconds: float, tracer=None,
                      server: "Server | None" = None) -> Load:
    """Each connection sends its next request when its reply arrives."""
    latencies, outcomes = [], []
    deadline = time.perf_counter() + seconds

    async def drive(connection):
        while time.perf_counter() < deadline:
            request = next(stream)
            start = time.perf_counter()
            status, body = await connection.send(request.raw)
            end = time.perf_counter()
            latencies.append(end - start)
            outcomes.append((request, status, body))
            if tracer is not None and (
                connection.posts % harness.SAMPLE_EVERY == 0
            ):
                harness.REQUEST.set(f"{connection.port}:{connection.posts}")
                tracer.record("client.request", start, end)

    server_cpu = server.cpu_seconds() if server is not None else 0.0
    cpu, start = time.process_time(), time.perf_counter()
    await asyncio.gather(*(drive(c) for c in connections))
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu
    if server is not None:
        server_cpu = server.cpu_seconds() - server_cpu
    return Load(latencies, outcomes, start, wall, cpu, server_cpu)


async def start_ready(name: str, warmup, trace_path=None, cpu=None):
    """Launch (on core ``cpu``), wait for ``/healthz``, run the warm-up pass.

    Returns ``(server, connections, seconds, warm-up outcomes)``.
    """
    start = time.perf_counter()
    server = Server(name, trace_path, cpu)
    try:
        connections = [await Connection.open(server.port)
                       for _ in range(CONNECTIONS)]
        status, _ = await connections[0].send(HEALTHZ)
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")
        outcomes = []
        for request in warmup:
            status, body = await connections[0].send(request.raw)
            outcomes.append((request, status, body))
    except BaseException:
        server.stop()
        raise
    return server, connections, time.perf_counter() - start, outcomes


async def shut(server: Server, connections) -> None:
    for connection in connections:
        await connection.close()
    server.stop()


async def floor_latencies(connections) -> list[float]:
    """``GET /healthz`` round trips on the same connections, same loop shape."""
    samples = []

    async def probe(connection):
        for _ in range(FLOOR_PROBES):
            start = time.perf_counter()
            await connection.send(HEALTHZ)
            samples.append(time.perf_counter() - start)

    await asyncio.gather(*(probe(c) for c in connections))
    return samples


# ----------------------------------------------------------------------
# The workloads
# ----------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run ``serve_hot`` or ``serve_cold``; see :func:`run.main`.

    Serving has no smoke size: a short ``seconds`` is small enough.
    """
    make_stream = HotStream if workload == "serve_hot" else ColdStream
    runner = _run_traced if trace else _run_plain
    return asyncio.run(runner(workload, make_stream, seed, seconds))


async def _run_plain(workload, make_stream, seed, seconds) -> dict:
    """Client on the first core, server on the second, both sampled.

    Each window's latencies and throughput are scaled by the speed of
    the two cores over it, weighted by the CPU seconds the client and
    the server spent in it.  The run reports the window at the lower
    quartile, counted from the fast side (see :func:`harness.fast_quartile`).
    """
    cpus = harness.bench_cpus()
    client_cpu, server_cpu = cpus[0], cpus[-1]
    setups, outcomes = [], []
    with harness.CoreSpeed(cpus) as speed, harness.pinned({client_cpu}):
        for attempt in range(harness.SETUP_REPEATS):
            stream = make_stream(seed)
            start = time.perf_counter()
            server, connections, setup, warm = await start_ready(
                workload, stream.warmup, cpu=server_cpu
            )
            setups.append((start, start + setup, setup))
            outcomes += warm
            if attempt < harness.SETUP_REPEATS - 1:
                await shut(server, connections)
        try:
            windows = [
                await closed_loop(connections, stream,
                                  seconds / harness.WINDOWS, server=server)
                for _ in range(harness.WINDOWS)
            ]
        finally:
            await shut(server, connections)
    for window in windows:
        outcomes += window.outcomes
    failed, _, problems = check_outcomes(outcomes, {})
    scaled = [
        (w, speed.slowdown(w.start, w.start + w.wall,
                           {client_cpu: w.cpu, server_cpu: w.server_cpu}))
        for w in windows
    ]
    speed.report(workload, (f for _, f in scaled))
    metrics = {
        # The server's start-up dominates a set-up, on the server's core.
        "setup_s": speed.scaled_setup(setups, server_cpu),
        "latency_p50_us": harness.fast_quartile(
            harness.percentile(w.latencies, 0.50) / f for w, f in scaled) * 1e6,
        "latency_p99_us": harness.fast_quartile(
            harness.percentile(w.latencies, 0.99) / f for w, f in scaled) * 1e6,
        "throughput_per_s": harness.fast_quartile(
            (len(w.latencies) / w.wall * f for w, f in scaled), "higher"),
        # Every server has exited and been waited for, so the children's
        # peak is the largest server's.
        "peak_rss_mb": harness.peak_rss_mib(include_self=False),
    }
    attempted = sum(len(w.outcomes) for w in windows)
    return _result(workload, attempted, failed, problems, metrics)


async def _run_traced(workload, make_stream, seed, seconds) -> dict:
    """Alternate windows between a plain and a traced server.

    Both get the same request stream.  Alternating cancels the drift of
    a shared machine out of the traced-vs-plain comparison.
    """
    trace_path = harness.out_path(f"server-trace-{workload}-{seed}.jsonl")
    tracer = harness.Tracer()
    plain_stream, traced_stream = make_stream(seed), make_stream(seed)
    plain_server, plain_conns, _, outcomes = await start_ready(
        workload, plain_stream.warmup
    )
    try:
        traced_server, traced_conns, _, warm = await start_ready(
            f"{workload}-traced", traced_stream.warmup, trace_path
        )
    except BaseException:
        await shut(plain_server, plain_conns)
        raise
    outcomes += warm
    plain, traced = [], []
    measured_from = time.perf_counter()
    try:
        for _ in range(harness.WINDOWS // 2):
            plain.append(await closed_loop(
                plain_conns, plain_stream, seconds / harness.WINDOWS))
            traced.append(await closed_loop(
                traced_conns, traced_stream, seconds / harness.WINDOWS,
                tracer))
        floor = await floor_latencies(plain_conns)
    finally:
        await shut(plain_server, plain_conns)
        await shut(traced_server, traced_conns)
    tracer.write(harness.out_path(f"trace-{workload}-{seed}.jsonl"))

    for window in plain + traced:
        outcomes += window.outcomes
    failed, shed, problems = check_outcomes(outcomes, {})
    server_spans, summary = harness.read_trace(trace_path)
    traced_outcomes = [o for w in traced for o in w.outcomes]
    sources = answer_sources(traced_outcomes)
    computed_ever = (answer_sources(warm)["computed"]
                     + sources["computed"])
    metrics = layer_metrics(tracer, server_spans, measured_from)
    answered = sum(sources.values())
    metrics.update({
        f"engine.frac.{source}": sources[source] / answered
        for source in ("cache", "computed", "coalesced")
    })
    metrics.update({
        "engine.lru_evictions": max(
            0, computed_ever - summary["summary"]["cache_size"]),
        "core.pmf_hit_ratio": summary["summary"]["pmf_hits"] / max(
            1, summary["summary"]["pmf_hits"]
            + summary["summary"]["pmf_misses"]),
        "resilience.brownout_level_max":
            summary["summary"]["brownout_level_max"],
    })
    requests = sum(len(w.latencies) for w in plain)
    metrics.update({
        "client.self_us": sum(w.cpu for w in plain) / requests * 1e6,
        "http.floor_us": harness.percentile(floor, 0.50) * 1e6,
        "resilience.shed": shed,
        "trace.overhead_pct": harness.overhead_pct(
            [harness.mean(w.latencies) for w in plain],
            [harness.mean(w.latencies) for w in traced],
        ),
    })
    attempted = requests + sum(len(w.latencies) for w in traced)
    return _result(workload, attempted, failed, problems, metrics)


TOP_LEVEL = ("protocol.decode", "protocol.parse", "engine.execute",
             "engine.encode")


def answer_sources(outcomes) -> collections.Counter:
    """How many answers each engine tier gave (the envelope's ``source``)."""
    distinct = collections.Counter(
        body for _, status, body in outcomes if status == 200
    )
    sources: collections.Counter = collections.Counter()
    for body, count in distinct.items():
        sources[json.loads(body).get("source")] += count
    return sources


def layer_metrics(tracer, server_spans: list[dict], measured_from: float) -> dict:
    """Per-layer figures of the traced windows.

    Per-request spans (sampled) join the client's by request id; batch,
    profile and topology spans count from the first traced window on
    (``perf_counter`` is one system-wide monotonic clock on Linux).
    """
    client = {span[5]: span[3] - span[2] for span in tracer.spans}
    by_name: dict[str, list[dict]] = {}
    for span in server_spans:
        if span["request"] in client or (
            span["name"] not in TOP_LEVEL and span["start"] >= measured_from
        ):
            by_name.setdefault(span["name"], []).append(span)

    def durations(name, source=None):
        return [s["end"] - s["start"] for s in by_name.get(name, [])
                if source is None or s["attrs"]["source"] == source]

    server_time = dict.fromkeys(client, 0.0)
    for name in TOP_LEVEL:
        for span in by_name.get(name, []):
            server_time[span["request"]] += span["end"] - span["start"]
    flushes = by_name.get("batch.evaluate", [])
    custom = sum(sum(durations(name)) for name in (
        "topology.generate", "topology.recognize", "topology.exact"))
    custom_cells = len(by_name.get("topology.generate", []))

    return {
        "http.self_us": harness.mean(
            client[rid] - server_time[rid] for rid in client
        ) * 1e6,
        "protocol.decode_us": harness.mean(durations("protocol.decode")) * 1e6,
        "protocol.parse_us": harness.mean(durations("protocol.parse")) * 1e6,
        "engine.execute_us.cache":
            harness.mean(durations("engine.execute", "cache")) * 1e6,
        "engine.execute_us.computed":
            harness.mean(durations("engine.execute", "computed")) * 1e6,
        "engine.encode_us": harness.mean(durations("engine.encode")) * 1e6,
        "batch.flushes": len(flushes),
        "batch.cells_per_flush":
            harness.mean(s["attrs"]["cells"] for s in flushes),
        "batch.evaluate_us": harness.mean(durations("batch.evaluate")) * 1e6,
        "batch.evaluate_max_ms": max(durations("batch.evaluate"), default=0.0)
        * 1e3,
        "batch.profile_us": harness.mean(durations("batch.profile")) * 1e6,
        "topology.custom_us":
            custom / custom_cells * 1e6 if custom_cells else 0.0,
    }


def _result(workload, attempted, failed, problems, metrics) -> dict:
    for problem in problems[:20]:
        print(f"{workload} check failed: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
