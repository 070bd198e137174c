"""Vectorized NumPy batch backend for the Monte-Carlo simulator.

The loop backend (:mod:`repro.simulation.engine`) executes one Python
iteration per cycle; this module resolves *all* cycles of a run as dense
array operations instead:

* request generation — every Bernoulli issue and destination pick for a
  whole chunk of cycles comes from one block of RNG draws
  (:meth:`~repro.workloads.generator.ModelRequestGenerator.request_arrays`,
  consuming the generation stream bit-identically to the loop backend);
* stage one — per-module memory contention for all cycles at once: each
  request draws a uniform key and the winner of every ``(cycle, module)``
  cell is the requester holding the maximum key (a vectorized argmax over
  permuted keys — uniform among requesters, exactly the loop arbiter's
  distribution);
* stage two — scheme-specific bus assignment vectorized for the full,
  single, g-group partial and K-class connection schemes plus the
  crossbar.

Under the paper's blocked-requests-dropped assumption the grant *count*
per cycle is a deterministic function of the requested-module set for
every work-conserving arbiter, so the vectorized backend reproduces the
loop backend's per-cycle grant counts, bandwidth, confidence interval
and bus utilization *exactly* for the same seed; only the fairness views
(which processor/module wins) differ in distributionally-equivalent
ways.  The equivalence test suite pins all of this down.

Fault schedules run here too: :func:`run_vectorized` takes optional
``(start, stop, failed)`` segments, and :func:`_stage_two` is the one
lookup, keyed by network and failed set, that yields each segment's
assigner -- or the reason it has none, which
:func:`vectorization_unsupported_reason` reports for the backend choice.

Use it through ``MultiprocessorSimulator(..., backend="vectorized")`` or
``simulate_bandwidth(..., backend="vectorized")``; the default
``backend="auto"`` selects it automatically whenever the workload and
topology are supported.
"""

from __future__ import annotations

import dataclasses
import functools
from collections.abc import Callable, Sequence

import numpy as np

from repro.exceptions import SimulationError
from repro.obs.metrics import get_registry
from repro.simulation.metrics import SimulationResult, result_from_arrays
from repro.topology.crossbar import CrossbarNetwork
from repro.topology.full import FullBusMemoryNetwork
from repro.topology.kclass import KClassPartialBusNetwork
from repro.topology.network import MultipleBusNetwork
from repro.topology.partial import PartialBusNetwork
from repro.topology.single import SingleBusMemoryNetwork
from repro.workloads.generator import ModelRequestGenerator, RequestGenerator

__all__ = [
    "BatchTrace",
    "run_vectorized",
    "check_batch_invariants",
    "vectorization_unsupported_reason",
]

#: Cycles resolved per vectorized chunk.  Bounds peak memory to
#: ``O(_CHUNK * max(N, M))`` regardless of run length; a multiple of the
#: request generator's draw block (1024) so chunked and per-cycle
#: consumption observe the same generation RNG stream.
_CHUNK = 8192

#: A fault segment: buses ``failed`` are down for cycles ``[start, stop)``.
Segment = tuple[int, int, frozenset[int]]

#: A vectorized stage two: ``(requested, rng) -> (C, B)`` grant matrix.
Assigner = Callable[[np.ndarray, np.random.Generator], np.ndarray]


@dataclasses.dataclass(frozen=True)
class BatchTrace:
    """Dense per-cycle arrays of one vectorized run (for tests/analysis).

    Attributes
    ----------
    issues:
        ``(C, N)`` bool — processor issued a request this cycle.
    chosen:
        ``(C, N)`` int64 — module addressed (valid where ``issues``).
    requested:
        ``(C, M)`` bool — module had at least one request.
    request_counts:
        ``(C, M)`` int64 — number of requests per module.
    winner:
        ``(C, M)`` int64 — stage-one winning processor, ``-1`` if the
        module was not requested.
    grant_module:
        ``(C, B)`` int64 — module served by each bus, ``-1`` if idle.
    """

    issues: np.ndarray
    chosen: np.ndarray
    requested: np.ndarray
    request_counts: np.ndarray
    winner: np.ndarray
    grant_module: np.ndarray


def vectorization_unsupported_reason(
    network: MultipleBusNetwork,
    generator: RequestGenerator,
    segments: Sequence[Segment] | None = None,
) -> str | None:
    """Why ``(network, generator)`` cannot run vectorized, or ``None``.

    The vectorized backend covers the paper's five structured schemes
    driven by a request-model workload; arbitrary generators (e.g. trace
    replay) and unstructured topologies (e.g. fault-degraded networks,
    which need the matching arbiter) fall back to the loop backend.
    With fault ``segments`` (see :func:`run_vectorized`), every failed
    set must have a vectorized degraded arbiter as well.
    """
    if not isinstance(generator, ModelRequestGenerator):
        return (
            f"workload {type(generator).__name__} is not a "
            "ModelRequestGenerator (only request-model workloads are "
            "vectorized)"
        )
    for failed in dict.fromkeys(
        [frozenset(), *(failed for _, _, failed in segments or ())]
    ):
        reason = _stage_two(network, failed)[1]
        if reason is not None:
            return reason
    return None


# ---------------------------------------------------------------------------
# Stage one: all-cycles memory contention
# ---------------------------------------------------------------------------


def _resolve_stage_one(
    issues: np.ndarray,
    chosen: np.ndarray,
    n_memories: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Resolve per-module contention for every cycle of a chunk.

    Returns ``(requested, request_counts, winner)`` with shapes
    ``(C, M)``.  Winner selection: every active request draws a uniform
    key; the maximum key per ``(cycle, module)`` cell wins, which is
    uniform over that cell's requesters — the same distribution as the
    loop backend's :class:`~repro.arbitration.memory_arbiter.MemoryArbiter`.
    """
    n_cycles, n_processors = issues.shape
    flat = np.arange(n_cycles)[:, None] * n_memories + chosen
    active_flat = flat[issues]
    request_counts = np.bincount(
        active_flat, minlength=n_cycles * n_memories
    ).reshape(n_cycles, n_memories)
    requested = request_counts > 0

    keys = rng.random((n_cycles, n_processors))
    max_key = np.full(n_cycles * n_memories, -1.0)
    np.maximum.at(max_key, active_flat, keys[issues])
    winning = issues & (keys == max_key[flat])
    winner = np.full(n_cycles * n_memories, -1, dtype=np.int64)
    processors = np.broadcast_to(
        np.arange(n_processors), (n_cycles, n_processors)
    )
    winner[flat[winning]] = processors[winning]
    return requested, request_counts, winner.reshape(n_cycles, n_memories)


# ---------------------------------------------------------------------------
# Stage two: vectorized scheme-specific bus assignment
# ---------------------------------------------------------------------------


def _top_requested(
    requested: np.ndarray, keys: np.ndarray, n_slots: int
) -> np.ndarray:
    """Serve up to ``n_slots`` requested columns, highest key first.

    Returns ``(C, n_slots)`` column indices with ``-1`` in unused slots.
    Slot ``s`` is filled iff at least ``s + 1`` columns are requested, so
    the *set of busy slots* depends only on the request count — the
    property that makes vectorized bus utilization match the loop
    backend's enumerate-order grants bit for bit.
    """
    masked = np.where(requested, keys, -1.0)
    order = np.argsort(-masked, axis=1)[:, :n_slots]
    n_requested = np.minimum(requested.sum(axis=1), n_slots)
    ranks = np.arange(n_slots)[None, :]
    return np.where(ranks < n_requested[:, None], order, -1)


def _assign_full(
    network: FullBusMemoryNetwork,
    alive: np.ndarray,
    requested: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """``len(alive)``-out-of-``M`` arbitration: a uniform subset of winners."""
    keys = rng.random(requested.shape)
    grant = np.full((requested.shape[0], network.n_buses), -1, dtype=np.int64)
    grant[:, alive] = _top_requested(requested, keys, alive.size)
    return grant


def _assign_crossbar(
    network: CrossbarNetwork,
    alive: np.ndarray,
    requested: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """No contention: every requested module served, in module order."""
    n_cycles, n_memories = requested.shape
    n_buses = network.n_buses
    # Ascending module order mirrors the loop policy's sorted() input;
    # keys stay positive so they sort strictly above the -1 idle mark.
    keys = np.broadcast_to(
        np.arange(n_memories, 0, -1, dtype=float), (n_cycles, n_memories)
    )
    return _top_requested(requested, keys, n_buses)


def _assign_partial(
    network: PartialBusNetwork,
    alive: np.ndarray,
    requested: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Independent arbitration per group over its ``alive`` buses."""
    n_cycles = requested.shape[0]
    mg = network.modules_per_group
    bg = network.buses_per_group
    keys = rng.random(requested.shape)
    grant = np.full((n_cycles, network.n_buses), -1, dtype=np.int64)
    for group in range(network.n_groups):
        group_alive = alive[
            (alive >= group * bg) & (alive < (group + 1) * bg)
        ]
        if group_alive.size == 0:
            continue
        local = _top_requested(
            requested[:, group * mg : (group + 1) * mg],
            keys[:, group * mg : (group + 1) * mg],
            group_alive.size,
        )
        grant[:, group_alive] = np.where(local >= 0, local + group * mg, -1)
    return grant


def _assign_single(
    network: SingleBusMemoryNetwork,
    alive: np.ndarray,
    requested: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Each ``alive`` bus independently serves one of its requested modules."""
    n_cycles = requested.shape[0]
    bus_of_module = np.asarray(network.bus_of_module)
    keys = rng.random(requested.shape)
    grant = np.full((n_cycles, network.n_buses), -1, dtype=np.int64)
    for bus in alive:
        attached = np.flatnonzero(bus_of_module == bus)
        if attached.size == 0:
            continue
        masked = np.where(
            requested[:, attached], keys[:, attached], -1.0
        )
        best = masked.argmax(axis=1)
        served = masked[np.arange(n_cycles), best] >= 0.0
        grant[:, bus] = np.where(served, attached[best], -1)
    return grant


def _assign_kclass(
    network: KClassPartialBusNetwork,
    alive: np.ndarray,
    requested: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """The two-step K-class procedure of Lang et al., all cycles at once.

    Step one packs each class's selected modules against its private
    high bus end (class ``C_j`` reaches buses ``0 .. j + B - K - 1``);
    step two resolves per-bus contention between classes with a random
    pick.  The busy-bus *set* each cycle depends only on the per-class
    request counts, so grant counts match the loop implementation
    exactly.
    """
    n_cycles = requested.shape[0]
    n_buses = network.n_buses
    n_classes = network.n_classes
    class_of_module = np.asarray(network.class_of_module)
    select_keys = rng.random(requested.shape)
    bus_keys = rng.random((n_classes, n_cycles, n_buses))

    candidates = np.full((n_classes, n_cycles, n_buses), -1, dtype=np.int64)
    for cls in range(1, n_classes + 1):
        members = np.flatnonzero(class_of_module == cls)
        if members.size == 0:
            continue
        width = cls + n_buses - n_classes
        sub = requested[:, members]
        masked = np.where(sub, select_keys[:, members], -1.0)
        order = np.argsort(-masked, axis=1)
        selected = np.minimum(sub.sum(axis=1), width)
        for rank in range(min(width, members.size)):
            bus = width - 1 - rank
            module = members[order[:, rank]]
            candidates[cls - 1, :, bus] = np.where(
                rank < selected, module, -1
            )

    contenders = np.where(candidates >= 0, bus_keys, -1.0)
    winning_class = contenders.argmax(axis=0)
    cycle_index = np.arange(n_cycles)[:, None]
    bus_index = np.arange(n_buses)[None, :]
    grant = candidates[winning_class, cycle_index, bus_index]
    served = contenders[winning_class, cycle_index, bus_index] >= 0.0
    return np.where(served, grant, -1)


# Each assigner serves only the ``alive`` buses; the crossbar and K-class
# ones are only ever given all of them (see ``_stage_two``).
_ASSIGNERS = (
    (CrossbarNetwork, _assign_crossbar),
    (KClassPartialBusNetwork, _assign_kclass),
    (PartialBusNetwork, _assign_partial),
    (SingleBusMemoryNetwork, _assign_single),
    (FullBusMemoryNetwork, _assign_full),
)


def _stage_two(
    network: MultipleBusNetwork, failed: frozenset[int]
) -> tuple[Assigner | None, str | None]:
    """Vectorized stage two of ``network`` with ``failed`` buses down.

    Returns ``(assigner, None)``, where ``assigner(requested, rng)``
    yields the ``(C, B)`` grant matrix, or ``(None, reason)`` when no
    vectorized arbiter exists; a blackout (every bus down) has nothing
    to arbitrate and returns ``(None, None)``.

    Under the drop-blocked assumption the loop backend arbitrates
    degraded topologies with the matching policy, and for the full,
    partial and single schemes the maximum matching size has a closed
    structure: a full scheme serves min(alive buses, requested modules);
    a partial scheme does so per group; a single scheme serves one
    requested module per alive bus.  So those assigners simply run over
    the alive buses and match the loop's grant counts exactly.  K-class
    failures break the nested-connectivity structure and stay on the
    loop.
    """
    alive = np.array(
        [bus for bus in range(network.n_buses) if bus not in failed],
        dtype=np.int64,
    )
    if alive.size == 0:
        return None, None
    if failed and isinstance(network, CrossbarNetwork):
        return None, "crossbars fail by crosspoint, not by bus"
    if failed and isinstance(network, KClassPartialBusNetwork):
        return None, (
            "degraded K-class networks need the matching arbiter "
            "(failures break the nested-connectivity structure)"
        )
    for network_type, assigner in _ASSIGNERS:
        if isinstance(network, network_type):
            return functools.partial(assigner, network, alive), None
    return None, (
        f"scheme {network.scheme!r} has no vectorized stage-two "
        "arbiter (only full/single/partial/kclass/crossbar do)"
    )


# ---------------------------------------------------------------------------
# Invariants and the backend entry point
# ---------------------------------------------------------------------------


def check_batch_invariants(
    network: MultipleBusNetwork,
    requested: np.ndarray,
    winner: np.ndarray,
    grant_module: np.ndarray,
    memory_bus: np.ndarray | None = None,
) -> None:
    """Vectorized counterpart of the loop engine's grant sanity checks.

    Verifies, over every cycle at once, that each grant pairs a bus with
    a module wired to it and requested this cycle (with a stage-one
    winner), and that no module holds more than one bus.  ``memory_bus``
    overrides ``network``'s wiring (a fault segment's degraded matrix).
    """
    if memory_bus is None:
        memory_bus = network.memory_bus_matrix()
    cycles, buses = np.nonzero(grant_module >= 0)
    modules = grant_module[cycles, buses]
    if not requested[cycles, modules].all():
        raise SimulationError(
            "bus granted to a module which has no outstanding request"
        )
    if not memory_bus[modules, buses].all():
        raise SimulationError(
            "bus granted to a module which is not wired to it"
        )
    if not (winner[cycles, modules] >= 0).all():
        raise SimulationError("granted module has no stage-one winner")
    flat = cycles * network.n_memories + modules
    if flat.size and np.bincount(flat).max() > 1:
        raise SimulationError("module granted more than one bus")


def run_vectorized(
    network: MultipleBusNetwork,
    generator: ModelRequestGenerator,
    n_cycles: int,
    warmup: int,
    generation_rng: np.random.Generator,
    arbitration_rng: np.random.Generator,
    keep_trace: bool = False,
    segments: Sequence[Segment] | None = None,
) -> SimulationResult | tuple[SimulationResult, BatchTrace]:
    """Run ``warmup + n_cycles`` cycles as dense array operations.

    ``generation_rng`` must be the same stream (by derivation) the loop
    backend hands its request generator, which is what makes grant
    counts comparable across backends; ``arbitration_rng`` feeds the
    winner-selection keys.

    ``segments`` partitions the run into ``(start, stop, failed)``
    fault segments: buses ``failed`` are down for cycles ``[start,
    stop)``, and a segment with every bus down is a blackout that issues
    requests and grants none.  ``None`` means one healthy segment.
    Requests are drawn in ``_CHUNK``-cycle blocks; arbitration windows
    end at segment boundaries and at multiples of ``_CHUNK``, so peak
    memory is bounded by ``_CHUNK`` and a one-segment fault run is the
    healthy run.

    With ``keep_trace`` (healthy runs only) the full per-cycle arrays
    are returned alongside the result (measured cycles only) -- used by
    the equivalence tests to re-check the arbitration invariants
    offline.
    """
    total = warmup + n_cycles
    if segments is None:
        segments = [(0, total, frozenset())]
    elif keep_trace:
        raise SimulationError("keep_trace needs a healthy run (no segments)")
    reason = vectorization_unsupported_reason(network, generator, segments)
    if reason is not None:
        raise SimulationError(f"cannot vectorize: {reason}")
    healthy = network.memory_bus_matrix()
    stage_two: dict[frozenset[int], tuple[Assigner | None, np.ndarray]] = {}
    for _, _, failed in segments:
        if failed not in stage_two:
            memory_bus = healthy.copy()
            memory_bus[:, sorted(failed)] = False
            stage_two[failed] = (_stage_two(network, failed)[0], memory_bus)
    n_memories = network.n_memories

    grant_count_chunks: list[np.ndarray] = []
    requests_issued = 0
    bus_busy = np.zeros(network.n_buses, dtype=np.int64)
    module_served = np.zeros(n_memories, dtype=np.int64)
    processor_served = np.zeros(network.n_processors, dtype=np.int64)
    trace_chunks: list[BatchTrace] = []

    registry = get_registry()
    produced = 0
    while produced < total:
        chunk = min(_CHUNK, total - produced)
        registry.increment("sim.vectorized.chunks")
        registry.increment("sim.vectorized.chunk_cycles", chunk)
        chunk_issues, chunk_chosen = generator.request_arrays(
            chunk, generation_rng
        )
        for start, stop, failed in segments:
            lo, hi = max(start, produced), min(stop, produced + chunk)
            if lo >= hi:
                continue
            issues = chunk_issues[lo - produced : hi - produced]
            chosen = chunk_chosen[lo - produced : hi - produced]
            sl = slice(max(0, warmup - lo), None)
            assigner, memory_bus = stage_two[failed]
            if assigner is None:  # blackout: requests issued, none granted
                grant_count_chunks.append(
                    np.zeros(len(issues[sl]), dtype=np.int64)
                )
                requests_issued += int(issues[sl].sum())
                continue
            requested, request_counts, winner = _resolve_stage_one(
                issues, chosen, n_memories, arbitration_rng
            )
            grant_module = assigner(requested, arbitration_rng)
            check_batch_invariants(
                network, requested, winner, grant_module, memory_bus
            )
            if keep_trace:
                trace_chunks.append(
                    BatchTrace(
                        issues[sl],
                        chosen[sl],
                        requested[sl],
                        request_counts[sl],
                        winner[sl],
                        grant_module[sl],
                    )
                )
            grants = grant_module[sl]
            granted = grants >= 0
            grant_count_chunks.append(granted.sum(axis=1))
            requests_issued += int(issues[sl].sum())
            bus_busy += granted.sum(axis=0)
            served_modules = grants[granted]
            module_served += np.bincount(served_modules, minlength=n_memories)
            served_cycles = np.nonzero(granted)[0]
            processor_served += np.bincount(
                winner[sl][served_cycles, served_modules],
                minlength=network.n_processors,
            )
        produced += chunk

    result = result_from_arrays(
        np.concatenate(grant_count_chunks),
        requests_issued,
        bus_busy,
        module_served,
        processor_served,
    )
    if not keep_trace:
        return result
    trace = BatchTrace(
        *(
            np.concatenate([getattr(t, f.name) for t in trace_chunks])
            for f in dataclasses.fields(BatchTrace)
        )
    )
    return result, trace
