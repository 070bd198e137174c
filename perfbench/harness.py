"""Shared pieces of the benchmark: paths, statistics, core speed, spans.

Every workload module imports this first.  It locates the program's
sources (``src/`` next to this directory), puts them on ``sys.path``
and refuses to run when they are missing, so the benchmark never falls
back to some other installed copy of the package.
"""

from __future__ import annotations

import bisect
import contextlib
import contextvars
import inspect
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import corespeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Trace files and server logs; listed in the root ``.gitignore``.
OUT = ROOT / ".bench_out"


class ProgramMissing(RuntimeError):
    """The checkout holds no ``src/repro`` package to benchmark."""


def require_program() -> None:
    """Put ``src/`` first on ``sys.path``; raise when it is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for subprocesses: the program's sources first."""
    env = dict(os.environ)
    parts = [str(SRC), str(HERE)]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def out_path(name: str) -> Path:
    OUT.mkdir(exist_ok=True)
    return OUT / name


#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Windows a serving run is cut into.  Each window's figures are scaled
#: by the core speed seen over it (see :class:`CoreSpeed`), as
#: ``sim_kernels`` scales each call and ``sweep_fabric`` each sweep.
WINDOWS = 80


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile ``q`` in ``[0, 1]`` of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values) -> float:
    return statistics.median(list(values))


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def fast_quartile(values, better: str = "lower") -> float:
    """The lower-quartile figure, counted from the fast side.

    Serving latency on the shared host also suffers stalls of a few
    milliseconds in which neither the client nor the server runs, so
    core-speed scaling cannot remove them.  They come in spells that
    can cover half a run, while the fast quarter of windows repeats
    from run to run.
    """
    ordered = sorted(values, reverse=better != "lower")
    return ordered[len(ordered) // 4]


def overhead_pct(plain, traced) -> float:
    """Median over paired windows of how much slower tracing made them."""
    return median(t / p - 1.0 for p, t in zip(plain, traced)) * 100.0


def peak_rss_mib(include_self: bool = True) -> float:
    """Peak resident set of the waited-for children (and this process)."""
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if include_self:
        peak = max(peak, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return peak / 1024.0  # ru_maxrss is in KiB on Linux


@contextlib.contextmanager
def pinned(cpus):
    """Run this thread, and the processes it starts, on ``cpus`` only."""
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, set(cpus))
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


def timed_setup(workload: str, seed: int, smoke: bool, cpu: int) -> list[tuple]:
    """Time ``setup_probe.py`` (imports plus construction) on core ``cpu``.

    Imports can only be timed once per interpreter, so each repetition
    runs in a fresh one.  Returns ``(start, end, seconds)`` per set-up,
    for :meth:`CoreSpeed.scaled_setup`.
    """
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    if smoke:
        cmd.append("--smoke")
    samples = []
    for _ in range(SETUP_REPEATS):
        with pinned({cpu}):
            start = time.perf_counter()
            done = subprocess.run(
                cmd, capture_output=True, text=True, env=child_env(),
                cwd=ROOT, timeout=120, check=True,
            )
            end = time.perf_counter()
        samples.append((start, end, float(done.stdout.strip().splitlines()[-1])))
    return samples


# ----------------------------------------------------------------------
# Core speed
# ----------------------------------------------------------------------

#: Seconds ``corespeed.probe`` takes on a quiet core of a 2-core x86 VM.
#: Scaled figures read as if every core had run at that speed.
REFERENCE_PROBE_S = 16e-6


def bench_cpus() -> list[int]:
    """The (at most two) cores the benchmark's processes run on."""
    return sorted(os.sched_getaffinity(0))[:2]


class CoreSpeed:
    """One ``corespeed.py`` sampler per core, for the length of a ``with``.

    :meth:`slowdown` says how much slower than the reference the cores
    ran over an interval; a workload divides the times it measured over
    that interval by it.
    """

    def __init__(self, cpus: list[int]):
        self.cpus = cpus
        self._procs: list[subprocess.Popen] = []
        self._speed: dict[int, tuple[list[float], list[float]]] = {}
        self._steal: dict[int, tuple[list[float], list[float]]] = {}

    def __enter__(self) -> "CoreSpeed":
        try:
            for cpu in self.cpus:
                proc = subprocess.Popen(
                    [sys.executable, str(HERE / "corespeed.py"), str(cpu)],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT,
                )
                self._procs.append(proc)
                if proc.stdout.readline().strip() != b"ready":
                    raise RuntimeError(f"core-speed sampler for CPU {cpu} failed")
        except BaseException:
            self._stop()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop()

    def _stop(self) -> None:
        """Close each sampler's stdin, read its samples, wait for it."""
        for cpu, proc in zip(self.cpus, self._procs):
            try:
                out, _ = proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                out = b""
            samples = json.loads(out) if proc.returncode == 0 and out else {}
            for series, into in (("speed", self._speed), ("steal", self._steal)):
                pairs = samples.get(series, [])
                into[cpu] = ([p[0] for p in pairs], [p[1] for p in pairs])
        self._procs = []

    def slowdown(self, start: float, end: float, weights=None) -> float:
        """How much slower than the reference the cores ran over an interval.

        Each core's figure is its mean probe time over ``[start, end]``
        divided by :data:`REFERENCE_PROBE_S`, and divided again by the
        share of the time the host left the core to this machine (one
        minus its steal fraction between the samples around the
        interval).  An interval shorter than the sampling periods takes
        its nearest samples.  ``weights`` maps a core to the share of
        the interval's work it did (for instance its CPU seconds); by
        default every sampled core counts the same.
        """
        if weights is None or sum(weights.values()) <= 0:
            weights = dict.fromkeys(self.cpus, 1.0)
        total = weighted = 0.0
        for cpu, weight in weights.items():
            stamps, seconds = self._speed[cpu]
            if not stamps:
                raise RuntimeError(f"no core-speed samples for CPU {cpu}")
            lo = bisect.bisect_left(stamps, start - corespeed.PERIOD)
            hi = bisect.bisect_right(stamps, end + corespeed.PERIOD)
            near = seconds[lo:hi] or [seconds[min(lo, len(seconds) - 1)]]
            stamps, steal = self._steal[cpu]
            first = max(bisect.bisect_right(stamps, start) - 1, 0)
            last = min(bisect.bisect_left(stamps, end), len(stamps) - 1)
            stolen = 0.0
            if last > first:
                stolen = (steal[last] - steal[first]) / (stamps[last] - stamps[first])
            weighted += weight * mean(near) / (1.0 - min(stolen, 0.9))
            total += weight
        return weighted / total / REFERENCE_PROBE_S

    @staticmethod
    def report(workload: str, slowdowns) -> None:
        """Say on stderr how slow the cores ran, for reading a run's figures."""
        slowdowns = sorted(slowdowns)
        print(f"{workload}: cores ran {median(slowdowns):.2f}x slower than the "
              f"reference (range {slowdowns[0]:.2f}-{slowdowns[-1]:.2f}); "
              "times are scaled by it", file=sys.stderr)

    def scaled_setup(self, setups, cpu: int) -> float:
        """Median of ``(start, end, seconds)`` set-ups, each scaled by core ``cpu``."""
        return median(
            seconds / self.slowdown(start, end, {cpu: 1.0})
            for start, end, seconds in setups
        )


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------

#: Span id of the innermost open span in the current context.
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)
#: Request id shared by every span of one request; ``None`` outside a
#: sampled request.
REQUEST: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_request", default=None
)
#: Only every n-th request of a connection carries spans on the serving
#: hot path: a span costs about a microsecond, a hot request about forty.
SAMPLE_EVERY = 8


class Tracer:
    """In-memory span recorder around calls into the program's layers.

    A span is ``(id, name, start, end, parent, request, attrs)``.
    Boundaries crossed once per simulated cycle are too frequent to keep
    one span each; :meth:`wrap` with ``aggregate`` only counts their
    calls and seconds in :attr:`totals`.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.totals: dict[str, list] = {}
        self._ids = itertools.count()
        self._patches: list[tuple] = []
        self._active_groups: set[str] = set()

    def record(self, name: str, start: float, end: float) -> None:
        """Record a span timed by the caller."""
        self.spans.append(
            (next(self._ids), name, start, end, None, REQUEST.get(), None)
        )

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Record a span around a block of the benchmark's own code."""
        span_id = next(self._ids)
        parent = _CURRENT.get()
        token = _CURRENT.set(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            _CURRENT.reset(token)
            self.spans.append(
                (span_id, name, start, end, parent, REQUEST.get(), attrs or None)
            )

    def wrap(self, owner, attr: str, name: str, attrs=None,
             aggregate: str | None = None, sampled: bool = False) -> None:
        """Replace ``owner.attr`` by a timing wrapper until :meth:`restore`.

        ``attrs(result, args)`` adds attributes from the call's result.
        ``aggregate`` names a group: nested calls within the same group
        are not counted twice, and no span is kept.  ``sampled`` records
        a span only inside a sampled request (:data:`REQUEST` set).
        """
        original = inspect.getattr_static(owner, attr)
        func = getattr(owner, attr)
        if aggregate is not None:
            wrapper = self._aggregating(func, name, aggregate)
        elif inspect.iscoroutinefunction(func):
            wrapper = self._async_wrapper(func, name, attrs, sampled)
        else:
            wrapper = self._sync_wrapper(func, name, attrs, sampled)
        if isinstance(original, staticmethod):
            wrapper = staticmethod(wrapper)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _sync_wrapper(self, func, name, attrs, sampled):
        tracer = self

        def traced(*args, **kwargs):
            if sampled and REQUEST.get() is None:
                return func(*args, **kwargs)
            span_id = next(tracer._ids)
            parent = _CURRENT.get()
            token = _CURRENT.set(span_id)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _CURRENT.reset(token)
            extra = attrs(result, args) if attrs is not None else None
            tracer.spans.append(
                (span_id, name, start, end, parent, REQUEST.get(), extra)
            )
            return result

        return traced

    def _async_wrapper(self, func, name, attrs, sampled):
        tracer = self

        def traced(*args, **kwargs):
            # A plain function returning the awaitable: outside a sampled
            # request the caller awaits the original coroutine directly.
            if sampled and REQUEST.get() is None:
                return func(*args, **kwargs)
            return timed(*args, **kwargs)

        async def timed(*args, **kwargs):
            span_id = next(tracer._ids)
            parent = _CURRENT.get()
            token = _CURRENT.set(span_id)
            start = time.perf_counter()
            try:
                result = await func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _CURRENT.reset(token)
            extra = attrs(result, args) if attrs is not None else None
            tracer.spans.append(
                (span_id, name, start, end, parent, REQUEST.get(), extra)
            )
            return result

        return traced

    def _aggregating(self, func, name, group):
        active = self._active_groups
        total = self.totals.setdefault(name, [0, 0.0])

        def counted(*args, **kwargs):
            if group in active:
                return func(*args, **kwargs)
            active.add(group)
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                total[1] += time.perf_counter() - start
                total[0] += 1
                active.discard(group)

        return counted

    def write(self, path: Path, extra: dict | None = None) -> None:
        """Write every span as one JSON line, then ``extra`` and totals."""
        with open(path, "w") as handle:
            for span_id, name, start, end, parent, request, attrs in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "request": request, "attrs": attrs,
                }) + "\n")
            handle.write(json.dumps({
                "summary": extra or {}, "totals": self.totals,
            }) + "\n")


def read_trace(path: Path) -> tuple[list[dict], dict]:
    """Spans and the trailing summary line of a :meth:`Tracer.write` file."""
    spans, summary = [], {}
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            if "summary" in record:
                summary = record
            else:
                spans.append(record)
    return spans, summary
