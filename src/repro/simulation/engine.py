"""Synchronous cycle-level Monte-Carlo simulator of the multiprocessor.

The simulator realizes the paper's system model verbatim (Section III
assumptions 1-5): all processors share a memory-cycle clock; each issues
an independent Bernoulli(``r``) request aimed by its request-model row;
stage one resolves memory contention with random per-module arbiters;
stage two assigns buses with the scheme-specific policy; blocked requests
vanish.  Because the analytical formulas (eqs. 4, 6, 9, 12) were derived
under exactly these rules, simulation and closed form must agree within
Monte-Carlo noise wherever the analysis is exact — the validation
experiment (E9) checks precisely that.

Two execution backends share this front end, each one kernel:

* ``"loop"`` — :func:`run_loop`, the reference implementation: one
  Python iteration per cycle through the arbitration objects of
  :mod:`repro.arbitration`.
* ``"vectorized"`` — :func:`~repro.simulation.vectorized.run_vectorized`,
  the NumPy batch backend: all cycles resolved as dense array
  operations, one to two orders of magnitude faster.
* ``"auto"`` (default) — ``"vectorized"`` whenever the workload and
  topology support it, ``"loop"`` otherwise (custom policies, trace
  replay, fault-degraded topologies).

Both kernels also take a list of ``(start, stop, failed)`` fault
segments, which is how :func:`repro.faults.simulate_with_faults` runs a
fail/repair schedule: there is no separate fault simulator.  Backend
choice, and the ``sim.backend_fallback`` event when ``"auto"`` falls
back, live in :func:`select_backend` for both front ends.

Both backends derive *separate* request-generation and arbitration RNG
streams from the seed via :class:`numpy.random.SeedSequence`, so for the
same seed they observe bit-identical request streams; per-cycle grant
counts (and hence bandwidth) then agree exactly, which the equivalence
test suite locks down.

When telemetry is enabled (:mod:`repro.obs`), every simulator reports
its resolved backend (with a ``sim.backend_fallback`` event whenever
``"auto"`` silently degrades to the loop), the RNG stream identity of
each run, and cycle/grant/request counters; each run executes inside a
``sim.run`` span.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.arbitration import (
    BusAssignmentPolicy,
    MatchingBusAssignment,
    assignment_for,
    priority_assignment_for,
)
from repro.arbitration.memory_arbiter import resolve_memory_contention
from repro.core.priority import ArbitrationSpec
from repro.core.request_models import RequestModel
from repro.exceptions import ConfigurationError, SimulationError
from repro.obs.metrics import get_registry, telemetry_enabled
from repro.obs.spans import span
from repro.simulation.metrics import MetricsCollector, SimulationResult
from repro.simulation.priority import (
    PrioritySimulationResult,
    derive_priority_streams,
    run_priority_loop,
    run_priority_vectorized,
)
from repro.simulation.vectorized import (
    Segment,
    run_vectorized,
    vectorization_unsupported_reason,
)
from repro.topology.network import MultipleBusNetwork
from repro.workloads.generator import ModelRequestGenerator, RequestGenerator

__all__ = [
    "MultiprocessorSimulator",
    "simulate_bandwidth",
    "derive_streams",
    "request_generator",
    "check_run_length",
    "select_backend",
    "run_loop",
]

_BACKENDS = ("auto", "loop", "vectorized")


def derive_streams(
    seed: int | np.random.SeedSequence | None,
) -> tuple[np.random.Generator, np.random.Generator]:
    """Derive the (generation, arbitration) RNG pair from one seed.

    Both backends draw request generation and arbitration randomness
    from two independently spawned children of the same
    :class:`~numpy.random.SeedSequence`, so the request stream a seed
    produces is backend-independent (arbitration never perturbs it).
    """
    if isinstance(seed, np.random.SeedSequence):
        root = seed
    else:
        root = np.random.SeedSequence(seed)
    generation, arbitration = root.spawn(2)
    return np.random.default_rng(generation), np.random.default_rng(arbitration)


class MultiprocessorSimulator:
    """Cycle-level simulator binding topology, workload and arbitration.

    Parameters
    ----------
    network:
        The interconnection topology (any
        :class:`~repro.topology.MultipleBusNetwork`).
    workload:
        A :class:`~repro.core.request_models.RequestModel` (wrapped
        automatically) or any
        :class:`~repro.workloads.generator.RequestGenerator`.
    policy:
        Optional stage-two bus assignment override; defaults to the
        paper's policy for the network's scheme
        (:func:`repro.arbitration.assignment_for`).  Setting one forces
        the loop backend.
    seed:
        Seed for the simulation's random streams — an int, ``None`` (OS
        entropy) or a :class:`~numpy.random.SeedSequence` (as produced
        by :func:`repro.analysis.parallel.spawn_seeds` for independent
        sweep cells).
    backend:
        ``"auto"`` (default), ``"loop"`` or ``"vectorized"`` — see the
        module docstring.  ``"vectorized"`` raises
        :class:`~repro.exceptions.SimulationError` when the
        workload/topology/policy combination is not vectorizable.
    spec:
        Optional :class:`~repro.core.priority.ArbitrationSpec` enabling
        criticality classes and/or burst tenure.  With a spec,
        :meth:`run` dispatches to the priority backends
        (:mod:`repro.simulation.priority`) and returns a
        :class:`~repro.simulation.priority.PrioritySimulationResult`;
        a custom ``policy`` is incompatible with a spec.
    """

    def __init__(
        self,
        network: MultipleBusNetwork,
        workload: RequestModel | RequestGenerator,
        policy: BusAssignmentPolicy | None = None,
        seed: int | np.random.SeedSequence | None = None,
        backend: str = "auto",
        spec: ArbitrationSpec | None = None,
    ):
        workload = request_generator(network, workload)
        custom_policy = policy is not None
        if spec is not None:
            if custom_policy:
                raise SimulationError(
                    "a custom stage-two policy cannot be combined with an "
                    "ArbitrationSpec (priority arbitration provides its "
                    "own policies)"
                )
            if spec.n_classes > network.n_processors:
                raise SimulationError(
                    f"{spec.n_classes} criticality classes for "
                    f"{network.n_processors} processors"
                )
            # Build (and discard) the priority policy eagerly so
            # unsupported topologies fail at construction, like the
            # baseline path does.
            priority_assignment_for(network, spec)
        if policy is None:
            policy = assignment_for(network)
        if policy.n_buses != network.n_buses:
            raise SimulationError(
                f"policy arbitrates {policy.n_buses} buses but the network "
                f"has {network.n_buses}"
            )
        network.validate()

        reason = (
            "a custom stage-two policy is set (only the paper's default "
            "arbiters are vectorized)"
            if custom_policy
            else vectorization_unsupported_reason(network, workload)
        )
        requested_backend = backend
        backend = select_backend(network, backend, reason)
        if telemetry_enabled():
            registry = get_registry()
            registry.increment("sim.backend", backend=backend)
            registry.record_event(
                "sim.backend_selected",
                backend=backend,
                requested=requested_backend,
                scheme=network.scheme,
                N=network.n_processors,
                M=network.n_memories,
                B=network.n_buses,
            )

        self._network = network
        self._generator = workload
        self._policy = policy
        self._seed = seed
        self._backend = backend
        self._spec = spec

    @property
    def network(self) -> MultipleBusNetwork:
        """The simulated topology."""
        return self._network

    @property
    def policy(self) -> BusAssignmentPolicy:
        """The stage-two bus assignment policy in use (loop backend)."""
        return self._policy

    @property
    def backend(self) -> str:
        """The resolved execution backend: ``"loop"`` or ``"vectorized"``."""
        return self._backend

    @property
    def spec(self) -> ArbitrationSpec | None:
        """The arbitration spec, or ``None`` for the paper's model."""
        return self._spec

    def run(
        self, n_cycles: int, warmup: int = 0
    ) -> SimulationResult | PrioritySimulationResult:
        """Simulate ``warmup + n_cycles`` cycles and return statistics.

        Warm-up cycles exercise the arbiters (advancing round-robin
        pointers) without being measured.  Under the paper's drop-blocked
        assumption cycles are independent, so warm-up only matters for
        pointer states; it defaults to zero.
        """
        check_run_length(n_cycles, warmup)
        root = (
            self._seed
            if isinstance(self._seed, np.random.SeedSequence)
            else np.random.SeedSequence(self._seed)
        )
        if telemetry_enabled():
            entropy = root.entropy
            get_registry().record_event(
                "sim.rng",
                backend=self._backend,
                scheme=self._network.scheme,
                entropy=(
                    [int(e) for e in entropy]
                    if isinstance(entropy, (list, tuple))
                    else int(entropy) if entropy is not None else None
                ),
                spawn_key=[int(k) for k in root.spawn_key],
            )
        with span(
            "sim.run", backend=self._backend, scheme=self._network.scheme
        ):
            if self._spec is not None:
                streams = derive_priority_streams(root)
                runner = (
                    run_priority_vectorized
                    if self._backend == "vectorized"
                    else run_priority_loop
                )
                result = runner(
                    self._network,
                    self._generator,
                    self._spec,
                    n_cycles,
                    warmup,
                    *streams,
                )
            elif self._backend == "vectorized":
                generation_rng, arbitration_rng = derive_streams(root)
                result = run_vectorized(
                    self._network,
                    self._generator,
                    n_cycles,
                    warmup,
                    generation_rng,
                    arbitration_rng,
                )
            else:
                generation_rng, arbitration_rng = derive_streams(root)
                result, _ = run_loop(
                    self._network,
                    self._generator,
                    self._policy,
                    n_cycles,
                    warmup,
                    generation_rng,
                    arbitration_rng,
                )
        if telemetry_enabled():
            registry = get_registry()
            totals = (
                result.total
                if isinstance(result, PrioritySimulationResult)
                else result
            )
            registry.increment(
                "sim.cycles", totals.n_cycles, backend=self._backend
            )
            if totals.grant_counts is not None:
                registry.increment(
                    "sim.grants",
                    int(sum(totals.grant_counts)),
                    backend=self._backend,
                )
            registry.increment(
                "sim.requests",
                int(round(totals.requests_per_cycle * totals.n_cycles)),
                backend=self._backend,
            )
            if isinstance(result, PrioritySimulationResult):
                registry.increment(
                    "arbitration.runs", discipline=result.discipline
                )
                for cls in range(result.n_classes):
                    registry.increment(
                        "arbitration.class_grants",
                        int(sum(result.per_class_grant_counts[cls])),
                        cls=cls,
                    )
                    registry.increment(
                        "arbitration.starved_cycles",
                        int(result.per_class_starved_cycles[cls]),
                        cls=cls,
                    )
                registry.increment(
                    "arbitration.blocked_tenure",
                    int(sum(result.per_class_blocked_tenure)),
                )
        return result

def request_generator(
    network: MultipleBusNetwork, workload: RequestModel | RequestGenerator
) -> RequestGenerator:
    """``workload`` as a request generator sized for ``network``.

    Wraps a :class:`~repro.core.request_models.RequestModel` in a
    :class:`~repro.workloads.generator.ModelRequestGenerator` and raises
    :class:`~repro.exceptions.SimulationError` when the processor or
    module counts disagree with the network's.
    """
    if isinstance(workload, RequestModel):
        workload = ModelRequestGenerator(workload)
    if workload.n_processors != network.n_processors:
        raise SimulationError(
            f"workload has {workload.n_processors} processors but the "
            f"network has {network.n_processors}"
        )
    if workload.n_memories != network.n_memories:
        raise SimulationError(
            f"workload addresses {workload.n_memories} modules but the "
            f"network has {network.n_memories}"
        )
    return workload


def check_run_length(n_cycles: int, warmup: int) -> None:
    """Raise :class:`~repro.exceptions.SimulationError` on a bad run length."""
    if n_cycles < 1:
        raise SimulationError(f"need at least one cycle, got {n_cycles}")
    if warmup < 0:
        raise SimulationError(f"warmup must be >= 0, got {warmup}")


def select_backend(
    network: MultipleBusNetwork, backend: str, reason: str | None
) -> str:
    """Resolve ``backend`` to ``"loop"`` or ``"vectorized"``.

    ``reason`` says why the run cannot be vectorized (``None`` when it
    can).  An explicit ``"vectorized"`` with a reason raises
    :class:`~repro.exceptions.SimulationError`; ``"auto"`` falls back to
    the loop and records a ``sim.backend_fallback`` telemetry event.
    """
    if backend not in _BACKENDS:
        raise ConfigurationError(
            f"unknown backend {backend!r}; expected one of {_BACKENDS}"
        )
    if reason is None:
        return "loop" if backend == "loop" else "vectorized"
    if backend == "vectorized":
        raise SimulationError(f"backend='vectorized' unavailable: {reason}")
    if backend == "auto" and telemetry_enabled():
        get_registry().record_event(
            "sim.backend_fallback", scheme=network.scheme, reason=reason
        )
    return "loop"


def run_loop(
    network: MultipleBusNetwork,
    generator: RequestGenerator,
    policy: BusAssignmentPolicy,
    n_cycles: int,
    warmup: int,
    generation_rng: np.random.Generator,
    arbitration_rng: np.random.Generator,
    segments: Sequence[Segment] | None = None,
    blocked: str = "drop",
) -> tuple[SimulationResult, int]:
    """Reference per-cycle execution; returns ``(result, resubmitted)``.

    ``segments`` are the ``(start, stop, failed)`` fault segments of
    :func:`~repro.simulation.vectorized.run_vectorized` (``None``: one
    healthy segment).  Each segment arbitrates stage two with its own
    policy, reset at the segment start: ``policy`` while every bus is
    up, otherwise a :class:`~repro.arbitration.MatchingBusAssignment`
    over the surviving wiring (which grants nothing in a blackout).
    Every cycle's grants are checked against the segment's wiring.

    With ``blocked="resubmit"`` a request for a module with no surviving
    bus is held and re-presented every cycle until the module is
    reachable again; ``resubmitted`` counts those re-presentations.
    Contention losses are dropped either way.
    """
    total = warmup + n_cycles
    if segments is None:
        segments = [(0, total, frozenset())]
    n_memories = network.n_memories
    healthy = network.memory_bus_matrix()
    collector = MetricsCollector(
        network.n_processors, n_memories, network.n_buses
    )
    cycles = generator.cycles(total, generation_rng)
    policies: dict[frozenset[int], BusAssignmentPolicy] = {
        frozenset(): policy
    }
    hold = blocked == "resubmit"
    held: dict[int, int] = {}
    resubmitted = 0
    for start, stop, failed in segments:
        memory_bus = healthy.copy()
        memory_bus[:, sorted(failed)] = False
        if failed not in policies:
            policies[failed] = MatchingBusAssignment(memory_bus)
        segment_policy = policies[failed]
        segment_policy.reset()
        accessible = memory_bus.any(axis=1)
        for cycle, requests in zip(range(start, stop), cycles):
            serviceable = requests
            if hold:
                resubmitted += len(held)
                requests = [
                    (p, m) for p, m in requests if p not in held
                ] + sorted(held.items())
                serviceable = [(p, m) for p, m in requests if accessible[m]]
                held = {p: m for p, m in requests if not accessible[m]}
            winners = resolve_memory_contention(
                serviceable, n_memories, arbitration_rng
            )
            grants = segment_policy.assign(sorted(winners), arbitration_rng)
            _check_grants(grants, winners, memory_bus)
            if cycle >= warmup:
                collector.record(requests, winners, grants)
    return collector.result(), resubmitted


def _check_grants(
    grants: dict[int, int], winners: dict[int, int], memory_bus: np.ndarray
) -> None:
    """Sanity-check stage two against the connection matrix.

    Every grant must pair a bus with a module actually wired to it and
    actually requested this cycle; a module may hold at most one bus.
    These invariants catch arbitration bugs at the source instead of
    as bandwidth anomalies.
    """
    seen_modules: set[int] = set()
    for bus, module in grants.items():
        if module not in winners:
            raise SimulationError(
                f"bus {bus} granted to module {module} which has no "
                "outstanding request"
            )
        if not memory_bus[module, bus]:
            raise SimulationError(
                f"bus {bus} granted to module {module} which is not "
                "wired to it"
            )
        if module in seen_modules:
            raise SimulationError(
                f"module {module} granted more than one bus"
            )
        seen_modules.add(module)


def simulate_bandwidth(
    network: MultipleBusNetwork,
    workload: RequestModel | RequestGenerator,
    n_cycles: int = 20_000,
    seed: int | np.random.SeedSequence | None = 0,
    backend: str = "auto",
    spec: ArbitrationSpec | None = None,
) -> SimulationResult | PrioritySimulationResult:
    """One-call convenience wrapper around :class:`MultiprocessorSimulator`.

    .. warning::
       The default ``seed=0`` makes each call reproducible, but it also
       means *every* default-seeded call shares the same underlying
       random streams: summing or comparing many default-seeded runs
       silently correlates their noise.  For independent replications or
       sweep cells, pass ``seed=None`` (OS entropy) or derive one
       :class:`~numpy.random.SeedSequence` per cell with
       :func:`repro.analysis.parallel.spawn_seeds` — which is exactly
       what the parallel sweep executor does.

    >>> from repro.topology import FullBusMemoryNetwork
    >>> from repro.core import UniformRequestModel
    >>> net = FullBusMemoryNetwork(8, 8, 4)
    >>> res = simulate_bandwidth(net, UniformRequestModel(8, 8), 2000, seed=1)
    >>> 3.0 < res.bandwidth < 4.2
    True
    """
    return MultiprocessorSimulator(
        network, workload, seed=seed, backend=backend, spec=spec
    ).run(n_cycles)
