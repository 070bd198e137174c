"""Stochastic bus fault/repair processes driven through the simulator.

:class:`~repro.faults.injection.DegradedNetwork` models a *static*
snapshot — a hand-picked failure set that holds for a whole run.  This
module generalizes that snapshot to a trajectory: a
:class:`FaultSchedule` is an explicit timeline of per-bus fail/repair
events (built by hand or drawn from the MTBF/MTTR renewal process of
:class:`ExponentialFaultProcess`), and :func:`simulate_with_faults`
replays it through the Monte-Carlo engine so the topology's connection
matrices change mid-run.

Execution model
---------------
The schedule partitions the run into *segments* of constant failure set,
and :func:`simulate_with_faults` hands them to the two kernels
:class:`~repro.simulation.engine.MultiprocessorSimulator` runs:
:func:`~repro.simulation.engine.run_loop` (the scheme's arbiter while
healthy, the matching arbiter over the surviving wiring while degraded)
and :func:`~repro.simulation.vectorized.run_vectorized` (closed-form
degraded assigners for the full, partial and single schemes).  The
request stream a seed produces does not depend on how the schedule
slices the run, so an empty schedule reproduces the healthy run, and a
schedule that fails set ``F`` at cycle 0 and never repairs reproduces
the static ``DegradedNetwork(base, F)`` run, result for result (the
differential test suite locks this down).  The backends agree on grant
counts because the count per cycle is a deterministic function of the
requested-module set.

Cycles in which *every* bus is down are "blackouts": the engine records
the issued requests with zero grants and carries on — faults degrade
the run, they never crash it.

Blocked requests follow the paper's assumption 5 (dropped) by default.
With ``blocked="resubmit"`` a request aimed at a momentarily
*inaccessible* module (no surviving bus) is held and resubmitted every
cycle until its module becomes reachable again (loop kernel only);
contention losses are still dropped, so healthy segments keep the
paper's semantics.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable, Iterator
from typing import NamedTuple

import numpy as np

from repro.arbitration import assignment_for

# Unused here since stage one runs in the engine's loop kernel; kept
# because perfbench's arbitration tracer patches this name here.
from repro.arbitration.memory_arbiter import resolve_memory_contention  # noqa: F401
from repro.core.request_models import RequestModel
from repro.exceptions import ConfigurationError, FaultError
from repro.obs.metrics import get_registry, telemetry_enabled
from repro.obs.spans import span
from repro.simulation.engine import (
    check_run_length,
    derive_streams,
    request_generator,
    run_loop,
    select_backend,
)
from repro.simulation.metrics import SimulationResult
from repro.simulation.vectorized import (
    run_vectorized,
    vectorization_unsupported_reason,
)
from repro.topology.network import MultipleBusNetwork
from repro.workloads.generator import RequestGenerator

__all__ = [
    "FaultEvent",
    "FaultSegment",
    "FaultSchedule",
    "ExponentialFaultProcess",
    "FaultySimulationResult",
    "simulate_with_faults",
]

_KINDS = ("fail", "repair")
_BLOCKED_MODES = ("drop", "resubmit")


@dataclasses.dataclass(frozen=True)
class FaultEvent:
    """One bus state change: bus ``bus`` fails or repairs at ``cycle``."""

    cycle: int
    bus: int
    kind: str

    def __post_init__(self) -> None:
        if self.cycle < 0:
            raise FaultError(f"event cycle must be >= 0, got {self.cycle}")
        if self.bus < 0:
            raise FaultError(f"event bus must be >= 0, got {self.bus}")
        if self.kind not in _KINDS:
            raise FaultError(
                f"event kind must be one of {_KINDS}, got {self.kind!r}"
            )


class FaultSegment(NamedTuple):
    """A half-open cycle range ``[start, stop)`` with a fixed failure set."""

    start: int
    stop: int
    failed: frozenset[int]

    @property
    def n_cycles(self) -> int:
        """Number of cycles the segment spans."""
        return self.stop - self.start


class FaultSchedule:
    """An explicit timeline of bus fail/repair events.

    Events are applied in cycle order (stably, so a fail and a repair of
    the same bus in the same cycle cancel in input order); failing an
    already-failed bus or repairing a healthy one is a no-op, which lets
    schedules drawn from independent per-bus processes compose freely.
    """

    def __init__(self, events: Iterable[FaultEvent] = ()):
        self._events = tuple(
            sorted(events, key=lambda e: (e.cycle, e.bus))
        )

    @classmethod
    def static(
        cls, failed_buses: Iterable[int], cycle: int = 0
    ) -> "FaultSchedule":
        """Fail ``failed_buses`` at ``cycle`` and never repair them.

        With ``cycle=0`` this is exactly the static
        :class:`~repro.faults.injection.DegradedNetwork` scenario as a
        trajectory.
        """
        return cls(
            FaultEvent(cycle, int(bus), "fail")
            for bus in sorted({int(b) for b in failed_buses})
        )

    @property
    def events(self) -> tuple[FaultEvent, ...]:
        """The events in application order."""
        return self._events

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self._events)

    def __repr__(self) -> str:
        return f"FaultSchedule({len(self._events)} events)"

    def segments(self, n_cycles: int, n_buses: int) -> list[FaultSegment]:
        """Partition ``[0, n_cycles)`` into constant-failure-set segments.

        Events at or beyond ``n_cycles`` are ignored; events addressing
        buses outside ``[0, n_buses)`` raise
        :class:`~repro.exceptions.FaultError`.
        """
        if n_cycles < 1:
            raise FaultError(f"need at least one cycle, got {n_cycles}")
        for event in self._events:
            if event.bus >= n_buses:
                raise FaultError(
                    f"event addresses bus {event.bus}: valid range "
                    f"[0, {n_buses})"
                )
        segments: list[FaultSegment] = []
        failed: set[int] = set()
        start = 0
        for event in self._events:
            if event.cycle >= n_cycles:
                break
            if event.cycle > start:
                segments.append(
                    FaultSegment(start, event.cycle, frozenset(failed))
                )
                start = event.cycle
            if event.kind == "fail":
                failed.add(event.bus)
            else:
                failed.discard(event.bus)
        segments.append(FaultSegment(start, n_cycles, frozenset(failed)))
        return segments

    def failed_at(self, cycle: int, n_buses: int) -> frozenset[int]:
        """The failure set in force during ``cycle``."""
        for segment in self.segments(cycle + 1, n_buses):
            if segment.start <= cycle < segment.stop:
                return segment.failed
        raise AssertionError("unreachable")  # pragma: no cover


class ExponentialFaultProcess:
    """Per-bus exponential failure/repair renewal process.

    Each bus alternates independently between up-times drawn from
    ``Exponential(mtbf)`` and down-times drawn from ``Exponential(mttr)``
    (both in cycles); event times are rounded up to whole cycles.  The
    drawn :class:`FaultSchedule` is a pure function of ``(mtbf, mttr,
    n_buses, n_cycles, seed)``, so stochastic-fault runs stay exactly
    reproducible.
    """

    def __init__(self, mtbf: float, mttr: float):
        if mtbf <= 0:
            raise FaultError(f"mtbf must be positive, got {mtbf}")
        if mttr <= 0:
            raise FaultError(f"mttr must be positive, got {mttr}")
        self._mtbf = float(mtbf)
        self._mttr = float(mttr)

    @property
    def mtbf(self) -> float:
        """Mean cycles between failures of one bus."""
        return self._mtbf

    @property
    def mttr(self) -> float:
        """Mean cycles to repair one bus."""
        return self._mttr

    def steady_state_availability(self) -> float:
        """Long-run fraction of time one bus is up: MTBF/(MTBF+MTTR)."""
        return self._mtbf / (self._mtbf + self._mttr)

    def schedule(
        self, n_buses: int, n_cycles: int, seed: int | None = 0
    ) -> FaultSchedule:
        """Draw one fail/repair timeline covering ``n_cycles`` cycles."""
        if n_buses < 1:
            raise FaultError(f"need at least one bus, got {n_buses}")
        if n_cycles < 1:
            raise FaultError(f"need at least one cycle, got {n_cycles}")
        rng = np.random.default_rng(seed)
        events: list[FaultEvent] = []
        for bus in range(n_buses):
            t = 0.0
            alive = True
            while True:
                t += rng.exponential(self._mtbf if alive else self._mttr)
                cycle = int(np.ceil(t))
                if cycle >= n_cycles:
                    break
                events.append(
                    FaultEvent(cycle, bus, "fail" if alive else "repair")
                )
                alive = not alive
        return FaultSchedule(events)


@dataclasses.dataclass(frozen=True)
class FaultySimulationResult:
    """A :class:`~repro.simulation.metrics.SimulationResult` plus fault views.

    Attributes
    ----------
    result:
        The standard bandwidth statistics over the measured cycles.
    backend:
        The resolved execution backend (``"loop"`` or ``"vectorized"``).
    n_segments:
        Constant-failure-set segments the run was split into.
    n_fail_events / n_repair_events:
        Events applied within the simulated horizon.
    degraded_cycle_fraction:
        Fraction of measured cycles with at least one failed bus.
    blackout_cycles:
        Measured cycles in which every bus was down (zero grants).
    min_alive_buses:
        Minimum number of surviving buses over the measured window.
    resubmitted_requests:
        Held requests re-presented to arbitration (``blocked="resubmit"``
        only; 0 under the paper's drop semantics).
    """

    result: SimulationResult
    backend: str
    n_segments: int
    n_fail_events: int
    n_repair_events: int
    degraded_cycle_fraction: float
    blackout_cycles: int
    min_alive_buses: int
    resubmitted_requests: int = 0

    @property
    def bandwidth(self) -> float:
        """Effective memory bandwidth (delegates to :attr:`result`)."""
        return self.result.bandwidth


def simulate_with_faults(
    network: MultipleBusNetwork,
    workload: RequestModel | RequestGenerator,
    schedule: FaultSchedule | None = None,
    n_cycles: int = 20_000,
    warmup: int = 0,
    seed: int | np.random.SeedSequence | None = 0,
    backend: str = "auto",
    blocked: str = "drop",
) -> FaultySimulationResult:
    """Simulate ``network`` while ``schedule`` fails and repairs buses.

    Parameters mirror :func:`repro.simulation.engine.simulate_bandwidth`;
    ``schedule`` defaults to no faults (in which case the run matches the
    standard engine's statistics).  ``blocked`` selects what happens to
    requests that cannot be served: ``"drop"`` (the paper's assumption 5,
    default) or ``"resubmit"`` (requests to momentarily inaccessible
    modules are held and re-presented until reachable; loop backend
    only).  See the module docstring for the execution model and the
    cross-backend/static-equivalence guarantees.
    """
    if schedule is None:
        schedule = FaultSchedule()
    if blocked not in _BLOCKED_MODES:
        raise ConfigurationError(
            f"blocked must be one of {_BLOCKED_MODES}, got {blocked!r}"
        )
    if network.scheme == "crossbar" and len(schedule):
        raise FaultError("crossbars fail by crosspoint, not by bus")
    generator = request_generator(network, workload)
    check_run_length(n_cycles, warmup)
    total = warmup + n_cycles
    segments = schedule.segments(total, network.n_buses)
    backend = select_backend(
        network,
        backend,
        "blocked='resubmit' holds state across cycles (loop only)"
        if blocked == "resubmit"
        else vectorization_unsupported_reason(network, generator, segments),
    )

    n_fail = sum(
        1 for e in schedule if e.cycle < total and e.kind == "fail"
    )
    n_repair = len([e for e in schedule if e.cycle < total]) - n_fail
    if telemetry_enabled():
        registry = get_registry()
        registry.increment("fault.runs", backend=backend)
        registry.increment("fault.events", n_fail, kind="fail")
        registry.increment("fault.events", n_repair, kind="repair")
        for event in schedule:
            if event.cycle < total:
                registry.record_event(
                    f"fault.{event.kind}", cycle=event.cycle, bus=event.bus
                )

    generation_rng, arbitration_rng = derive_streams(seed)
    with span("sim.faulty_run", backend=backend, scheme=network.scheme):
        if backend == "vectorized":
            result = run_vectorized(
                network,
                generator,
                n_cycles,
                warmup,
                generation_rng,
                arbitration_rng,
                segments=segments,
            )
            resubmitted = 0
        else:
            result, resubmitted = run_loop(
                network,
                generator,
                assignment_for(network),
                n_cycles,
                warmup,
                generation_rng,
                arbitration_rng,
                segments,
                blocked,
            )

    degraded = blackout = 0
    min_alive = network.n_buses
    for segment in segments:
        measured = max(0, segment.stop - max(segment.start, warmup))
        if not measured:
            continue
        alive = network.n_buses - len(segment.failed)
        min_alive = min(min_alive, alive)
        if segment.failed:
            degraded += measured
        if alive == 0:
            blackout += measured
    if telemetry_enabled():
        registry = get_registry()
        registry.increment("fault.degraded_cycles", degraded)
        registry.increment("fault.blackout_cycles", blackout)
        if resubmitted:
            registry.increment("fault.resubmissions", resubmitted)

    return FaultySimulationResult(
        result=result,
        backend=backend,
        n_segments=len(segments),
        n_fail_events=n_fail,
        n_repair_events=n_repair,
        degraded_cycle_fraction=degraded / n_cycles,
        blackout_cycles=blackout,
        min_alive_buses=min_alive,
        resubmitted_requests=resubmitted,
    )
