"""Stage two bus arbiters for full, grouped, and single connection schemes.

The paper's stage two is a ``B``-out-of-``M`` arbiter: at most ``B`` of
the stage-one winners obtain a bus each cycle, granted "in a round-robin
fashion to the memory modules that are requested" (Section II-A).  For
partial bus networks, each group runs an independent ``B/g``-out-of-
``M/g`` arbiter; for single connection networks, each bus independently
serves one of its requested modules.

All policies also accept a ``random`` selection variant — with the
paper's blocked-requests-dropped assumption, the *count* of grants (and
hence the bandwidth) is identical under any work-conserving selection
rule; round-robin only changes which modules win.  Tests exploit this
equivalence.

Topologies outside the paper's schemes -- custom incidence structures
and fault-degraded networks -- share one arbiter,
:class:`MatchingBusAssignment`: a deterministic, memoized maximum
matching.  Both the plain simulator and fault-schedule runs use it, so
a degraded run's grants do not depend on the process (hash seed) it
runs in.

The priority extension adds a parallel family of stage-two policies
(``Priority*Assignment``) whose candidates carry a criticality class and
whose bus pool shrinks to the buses not still carrying a multi-cycle
burst.  They are deterministic given the candidate list (all randomness
lives in the stage-one composite keys), so the loop and vectorized
priority backends share the *same* policy objects and agree bit-for-bit.
With one class and every bus free, each policy grants exactly as many
requests to exactly the same bus positions as its baseline counterpart,
which is what the degenerate differential tests pin.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence

import numpy as np

from repro.arbitration.base import BusAssignmentPolicy
from repro.core.priority import ArbitrationSpec
from repro.exceptions import ConfigurationError, SimulationError
from repro.topology.structure import MatchingOracle

__all__ = [
    "RoundRobinBusAssignment",
    "RandomBusAssignment",
    "GroupedBusAssignment",
    "SingleBusAssignment",
    "CrossbarAssignment",
    "MatchingBusAssignment",
    "GrantScheduler",
    "PriorityBusPolicy",
    "PriorityFullAssignment",
    "PriorityGroupedAssignment",
    "PrioritySingleAssignment",
    "PriorityKClassAssignment",
]


class RoundRobinBusAssignment(BusAssignmentPolicy):
    """Round-robin ``B``-out-of-``M`` arbiter (full bus-memory connection).

    A pointer sweeps the module index space; each cycle the requested
    modules are served in cyclic order starting at the pointer, at most
    one per bus, and the pointer advances past the last module granted so
    no module can starve.
    """

    def __init__(self, n_memories: int, n_buses: int):
        super().__init__(n_memories, n_buses)
        self._next = 0

    def assign(
        self, requested_modules: Sequence[int], rng: np.random.Generator
    ) -> dict[int, int]:
        if not len(requested_modules):
            return {}
        ordered = sorted(
            requested_modules,
            key=lambda m: (m - self._next) % self._n_memories,
        )
        granted = ordered[: self._n_buses]
        if granted:
            self._next = (granted[-1] + 1) % self._n_memories
        return {bus: module for bus, module in enumerate(granted)}

    def reset(self) -> None:
        self._next = 0


class RandomBusAssignment(BusAssignmentPolicy):
    """Random ``B``-out-of-``M`` arbiter: a uniform subset of winners."""

    def assign(
        self, requested_modules: Sequence[int], rng: np.random.Generator
    ) -> dict[int, int]:
        modules = list(requested_modules)
        if not modules:
            return {}
        if len(modules) > self._n_buses:
            picked = rng.choice(len(modules), size=self._n_buses, replace=False)
            modules = [modules[i] for i in sorted(picked)]
        return {bus: module for bus, module in enumerate(modules)}


class GroupedBusAssignment(BusAssignmentPolicy):
    """Per-group round-robin arbitration for partial bus networks.

    Group ``q`` owns modules ``q*M/g..`` and buses ``q*B/g..``; requests
    never cross groups, so each group runs its own
    :class:`RoundRobinBusAssignment` over its local module space.
    """

    def __init__(self, n_memories: int, n_buses: int, n_groups: int):
        super().__init__(n_memories, n_buses)
        if n_groups < 1:
            raise ConfigurationError(f"need at least one group, got {n_groups}")
        if n_memories % n_groups or n_buses % n_groups:
            raise ConfigurationError(
                f"g={n_groups} must divide M={n_memories} and B={n_buses}"
            )
        self._n_groups = n_groups
        self._modules_per_group = n_memories // n_groups
        self._buses_per_group = n_buses // n_groups
        self._group_arbiters = [
            RoundRobinBusAssignment(self._modules_per_group, self._buses_per_group)
            for _ in range(n_groups)
        ]

    @property
    def n_groups(self) -> int:
        """Number of groups ``g``."""
        return self._n_groups

    def assign(
        self, requested_modules: Sequence[int], rng: np.random.Generator
    ) -> dict[int, int]:
        by_group: list[list[int]] = [[] for _ in range(self._n_groups)]
        for module in requested_modules:
            by_group[module // self._modules_per_group].append(
                module % self._modules_per_group
            )
        grants: dict[int, int] = {}
        for group, (arbiter, local) in enumerate(
            zip(self._group_arbiters, by_group)
        ):
            for local_bus, local_module in arbiter.assign(local, rng).items():
                bus = group * self._buses_per_group + local_bus
                grants[bus] = group * self._modules_per_group + local_module
        return grants

    def reset(self) -> None:
        for arbiter in self._group_arbiters:
            arbiter.reset()


class SingleBusAssignment(BusAssignmentPolicy):
    """Per-bus arbitration for single bus-memory connection networks.

    Each bus independently serves one of its requested attached modules,
    chosen round-robin over the bus's local module list.
    """

    def __init__(self, bus_of_module: Sequence[int], n_buses: int):
        bus_of_module = [int(b) for b in bus_of_module]
        super().__init__(len(bus_of_module), n_buses)
        for j, bus in enumerate(bus_of_module):
            if not 0 <= bus < n_buses:
                raise ConfigurationError(
                    f"module {j} assigned to nonexistent bus {bus}"
                )
        self._bus_of_module = bus_of_module
        self._pointers = [0] * n_buses

    def assign(
        self, requested_modules: Sequence[int], rng: np.random.Generator
    ) -> dict[int, int]:
        by_bus: dict[int, list[int]] = {}
        for module in requested_modules:
            if not 0 <= module < self._n_memories:
                raise SimulationError(
                    f"module {module} outside [0, {self._n_memories})"
                )
            by_bus.setdefault(self._bus_of_module[module], []).append(module)
        grants: dict[int, int] = {}
        for bus, modules in by_bus.items():
            pointer = self._pointers[bus]
            winner = min(modules, key=lambda m: (m - pointer) % self._n_memories)
            grants[bus] = winner
            self._pointers[bus] = (winner + 1) % self._n_memories
        return grants

    def reset(self) -> None:
        self._pointers = [0] * self._n_buses


class CrossbarAssignment(BusAssignmentPolicy):
    """Crossbar: no bus contention — every requested module is served.

    Grants are reported on virtual "buses" ``0..min(N, M)-1`` so crossbar
    results flow through the same metrics pipeline.
    """

    def assign(
        self, requested_modules: Sequence[int], rng: np.random.Generator
    ) -> dict[int, int]:
        modules = list(requested_modules)
        if len(modules) > self._n_buses:
            raise SimulationError(
                f"{len(modules)} requested modules exceed the crossbar's "
                f"{self._n_buses} simultaneous transfers; stage one must "
                "emit at most one winner per module"
            )
        return {bus: module for bus, module in enumerate(modules)}


class MatchingBusAssignment(BusAssignmentPolicy):
    """Maximum-matching assignment for arbitrary connection matrices.

    Grants a maximum bipartite matching between the requested modules
    and the buses they attach to (Kuhn's augmenting paths, via
    :class:`~repro.topology.structure.MatchingOracle`).  The matching is
    deterministic -- the same requested set always gets the same buses --
    and memoized by requested-set bitmask, so a long run pays one
    matching per *distinct* requested set rather than per cycle.

    This is not one of the paper's arbiters.  It is the policy for custom
    incidence structures and fault-degraded topologies, where the
    structured arbiters no longer apply, and the upper bound that shows
    how much bandwidth the paper's two-step K-class procedure leaves on
    the table (ablation E10).
    """

    def __init__(self, memory_bus_matrix: np.ndarray):
        memory_bus_matrix = np.asarray(memory_bus_matrix, dtype=bool)
        if memory_bus_matrix.ndim != 2:
            raise ConfigurationError("memory_bus_matrix must be 2-D")
        super().__init__(*memory_bus_matrix.shape)
        self._oracle = MatchingOracle(memory_bus_matrix)

    def assign(
        self, requested_modules: Sequence[int], rng: np.random.Generator
    ) -> dict[int, int]:
        return self._oracle.grants(requested_modules)


# ---------------------------------------------------------------------------
# Priority stage two: criticality-aware bus assignment
# ---------------------------------------------------------------------------


class GrantScheduler:
    """Orders one arbiter's candidates under an arbitration discipline.

    Candidates are ``(module, class)`` pairs over a local module space of
    ``n_slots`` indices.  :meth:`take` returns at most ``capacity`` of
    them in grant order and advances the round-robin pointer (and, for
    ``"wrr"``, the per-class deficit credits) past what was taken.
    Entirely deterministic — the priority backends share instances, so
    their grants agree exactly.
    """

    def __init__(self, n_slots: int, spec: ArbitrationSpec):
        if n_slots < 1:
            raise ConfigurationError(
                f"need at least one slot, got {n_slots}"
            )
        self._n_slots = int(n_slots)
        self._discipline = spec.discipline
        self._weights = spec.resolved_grant_weights()
        self._pointer = 0
        self._credits = [0.0] * spec.n_classes

    def reset(self) -> None:
        """Return pointer and credits to their initial state."""
        self._pointer = 0
        self._credits = [0.0] * len(self._credits)

    def _distance(self, module: int) -> int:
        return (module - self._pointer) % self._n_slots

    def take(
        self, candidates: Sequence[tuple[int, int]], capacity: int
    ) -> list[tuple[int, int]]:
        """Grant up to ``capacity`` candidates, most urgent first."""
        candidates = list(candidates)
        if capacity <= 0 or not candidates:
            return []
        if self._discipline == "wrr":
            queues: dict[int, deque] = {}
            for module, cls in sorted(
                candidates, key=lambda e: self._distance(e[0])
            ):
                queues.setdefault(cls, deque()).append((module, cls))
            for cls in queues:
                self._credits[cls] += self._weights[cls]
            taken: list[tuple[int, int]] = []
            while len(taken) < capacity and queues:
                cls = max(queues, key=lambda c: (self._credits[c], -c))
                taken.append(queues[cls].popleft())
                self._credits[cls] -= 1.0
                if not queues[cls]:
                    del queues[cls]
        elif self._discipline == "strict":
            ordered = sorted(
                candidates,
                key=lambda e: (e[1], self._distance(e[0])),
            )
            taken = ordered[:capacity]
        else:  # "rr" and "proc": class-blind pointer order
            ordered = sorted(
                candidates, key=lambda e: self._distance(e[0])
            )
            taken = ordered[:capacity]
        if taken:
            last = max(taken, key=lambda e: self._distance(e[0]))[0]
            self._pointer = (last + 1) % self._n_slots
        return taken


class PriorityBusPolicy:
    """Base of the criticality-aware stage-two policies.

    ``assign`` takes the stage-one survivors as ``(module, class)``
    pairs sorted by module, plus the buses currently free (not carrying
    a continuing burst), and returns ``{bus: module}`` grants.
    """

    def __init__(self, n_memories: int, n_buses: int):
        self._n_memories = int(n_memories)
        self._n_buses = int(n_buses)

    @property
    def n_buses(self) -> int:
        """Number of buses arbitrated."""
        return self._n_buses

    def assign(
        self,
        candidates: Sequence[tuple[int, int]],
        free_buses: Sequence[int],
    ) -> dict[int, int]:
        raise NotImplementedError

    def reset(self) -> None:
        """Return all scheduling state to its initial value."""


class PriorityFullAssignment(PriorityBusPolicy):
    """Priority ``B``-out-of-``M`` arbiter (full connection or crossbar).

    One scheduler orders all candidates; the first ``len(free_buses)``
    of them are granted onto the free buses in ascending bus order.
    """

    def __init__(
        self, n_memories: int, n_buses: int, spec: ArbitrationSpec
    ):
        super().__init__(n_memories, n_buses)
        self._scheduler = GrantScheduler(n_memories, spec)

    def assign(
        self,
        candidates: Sequence[tuple[int, int]],
        free_buses: Sequence[int],
    ) -> dict[int, int]:
        taken = self._scheduler.take(candidates, len(free_buses))
        return {
            free_buses[rank]: module
            for rank, (module, _cls) in enumerate(taken)
        }

    def reset(self) -> None:
        self._scheduler.reset()


class PriorityGroupedAssignment(PriorityBusPolicy):
    """Per-group priority arbitration for partial bus networks."""

    def __init__(
        self,
        n_memories: int,
        n_buses: int,
        n_groups: int,
        spec: ArbitrationSpec,
    ):
        super().__init__(n_memories, n_buses)
        if n_groups < 1:
            raise ConfigurationError(
                f"need at least one group, got {n_groups}"
            )
        if n_memories % n_groups or n_buses % n_groups:
            raise ConfigurationError(
                f"g={n_groups} must divide M={n_memories} and B={n_buses}"
            )
        self._n_groups = n_groups
        self._modules_per_group = n_memories // n_groups
        self._buses_per_group = n_buses // n_groups
        self._schedulers = [
            GrantScheduler(self._modules_per_group, spec)
            for _ in range(n_groups)
        ]

    def assign(
        self,
        candidates: Sequence[tuple[int, int]],
        free_buses: Sequence[int],
    ) -> dict[int, int]:
        mg = self._modules_per_group
        bg = self._buses_per_group
        grants: dict[int, int] = {}
        for group, scheduler in enumerate(self._schedulers):
            local = [
                (module % mg, cls)
                for module, cls in candidates
                if module // mg == group
            ]
            local_free = [b for b in free_buses if b // bg == group]
            taken = scheduler.take(local, len(local_free))
            for rank, (local_module, _cls) in enumerate(taken):
                grants[local_free[rank]] = group * mg + local_module
        return grants

    def reset(self) -> None:
        for scheduler in self._schedulers:
            scheduler.reset()


class PrioritySingleAssignment(PriorityBusPolicy):
    """Per-bus priority arbitration for single bus-memory connection."""

    def __init__(
        self,
        bus_of_module: Sequence[int],
        n_buses: int,
        spec: ArbitrationSpec,
    ):
        bus_of_module = [int(b) for b in bus_of_module]
        super().__init__(len(bus_of_module), n_buses)
        for module, bus in enumerate(bus_of_module):
            if not 0 <= bus < n_buses:
                raise ConfigurationError(
                    f"module {module} assigned to nonexistent bus {bus}"
                )
        self._bus_of_module = bus_of_module
        self._schedulers = [
            GrantScheduler(self._n_memories, spec) for _ in range(n_buses)
        ]

    def assign(
        self,
        candidates: Sequence[tuple[int, int]],
        free_buses: Sequence[int],
    ) -> dict[int, int]:
        free = set(free_buses)
        by_bus: dict[int, list[tuple[int, int]]] = {}
        for module, cls in candidates:
            if not 0 <= module < self._n_memories:
                raise SimulationError(
                    f"module {module} outside [0, {self._n_memories})"
                )
            bus = self._bus_of_module[module]
            if bus in free:
                by_bus.setdefault(bus, []).append((module, cls))
        grants: dict[int, int] = {}
        for bus in sorted(by_bus):
            taken = self._schedulers[bus].take(by_bus[bus], 1)
            if taken:
                grants[bus] = taken[0][0]
        return grants

    def reset(self) -> None:
        for scheduler in self._schedulers:
            scheduler.reset()


class PriorityKClassAssignment(PriorityBusPolicy):
    """Priority variant of the two-step K-class procedure.

    Step one selects, per memory class ``C_j``, as many candidates as
    the class has *free* connected buses — ordered by the discipline
    over the class's member positions — and packs them from the highest
    free connected bus downward.  Step two resolves per-bus contention
    between memory classes: under ``"strict"``/``"wrr"`` the most
    critical candidate wins, otherwise the round-robin class pointer
    decides (the baseline rule).  With one criticality class and all
    buses free this reproduces the baseline procedure's busy-bus set
    exactly.
    """

    def __init__(
        self,
        class_of_module: Sequence[int],
        n_buses: int,
        spec: ArbitrationSpec,
    ):
        class_of_module = [int(c) for c in class_of_module]
        super().__init__(len(class_of_module), n_buses)
        if not class_of_module:
            raise ConfigurationError("need at least one module")
        n_classes = max(class_of_module)
        if min(class_of_module) < 1:
            raise ConfigurationError("class indices are 1-based")
        if n_classes > n_buses:
            raise ConfigurationError(
                f"K={n_classes} classes require K <= B={n_buses}"
            )
        self._class_of_module = class_of_module
        self._n_mem_classes = n_classes
        self._discipline = spec.discipline
        self._members: list[list[int]] = [[] for _ in range(n_classes + 1)]
        for module, cls in enumerate(class_of_module):
            self._members[cls].append(module)
        self._schedulers = [
            GrantScheduler(max(len(members), 1), spec)
            for members in self._members
        ]
        self._bus_pointers = [0] * n_buses

    def assign(
        self,
        candidates: Sequence[tuple[int, int]],
        free_buses: Sequence[int],
    ) -> dict[int, int]:
        by_mem_class: list[list[tuple[int, int]]] = [
            [] for _ in range(self._n_mem_classes + 1)
        ]
        for module, cls in candidates:
            if not 0 <= module < self._n_memories:
                raise SimulationError(
                    f"module {module} outside [0, {self._n_memories})"
                )
            by_mem_class[self._class_of_module[module]].append(
                (module, cls)
            )

        free_sorted = sorted(free_buses)
        contenders: dict[int, list[tuple[int, int, int]]] = {}
        for mem_class in range(1, self._n_mem_classes + 1):
            entries = by_mem_class[mem_class]
            if not entries:
                continue
            width = mem_class + self._n_buses - self._n_mem_classes
            available = [b for b in free_sorted if b < width]
            if not available:
                continue
            members = self._members[mem_class]
            local = [
                (members.index(module), cls) for module, cls in entries
            ]
            taken = self._schedulers[mem_class].take(
                local, len(available)
            )
            for rank, (position, cls) in enumerate(taken):
                bus = available[len(available) - 1 - rank]
                contenders.setdefault(bus, []).append(
                    (mem_class, members[position], cls)
                )

        grants: dict[int, int] = {}
        for bus, entries in contenders.items():
            if len(entries) == 1:
                grants[bus] = entries[0][1]
                continue
            pointer = self._bus_pointers[bus]
            modulus = self._n_mem_classes + 1

            def order(entry, pointer=pointer, modulus=modulus):
                mem_class, _module, cls = entry
                distance = (mem_class - pointer) % modulus
                if self._discipline in ("strict", "wrr"):
                    return (cls, distance)
                return (distance,)

            mem_class, module, _cls = min(entries, key=order)
            self._bus_pointers[bus] = (mem_class + 1) % modulus
            grants[bus] = module
        return grants

    def reset(self) -> None:
        for scheduler in self._schedulers:
            scheduler.reset()
        self._bus_pointers = [0] * self._n_buses
