"""Two-stage arbitration substrate (Section II-A).

Stage one: per-module random N-user/1-server arbiters.  Stage two: a
scheme-specific bus assignment policy.  :func:`assignment_for` builds the
stage-two policy matching a topology, which is how the simulator stays
faithful to the paper's arbitration for every connection scheme.
"""

from __future__ import annotations

from repro.arbitration.base import BusAssignmentPolicy
from repro.arbitration.bus_arbiter import (
    CrossbarAssignment,
    GrantScheduler,
    GroupedBusAssignment,
    MatchingBusAssignment,
    PriorityBusPolicy,
    PriorityFullAssignment,
    PriorityGroupedAssignment,
    PriorityKClassAssignment,
    PrioritySingleAssignment,
    RandomBusAssignment,
    RoundRobinBusAssignment,
    SingleBusAssignment,
)
from repro.arbitration.kclass_assignment import KClassBusAssignment
from repro.arbitration.memory_arbiter import (
    MemoryArbiter,
    resolve_memory_contention,
    resolve_prioritized,
    stage_one_composite,
)
from repro.core.priority import ArbitrationSpec
from repro.exceptions import SimulationError
from repro.topology import (
    CrossbarNetwork,
    FullBusMemoryNetwork,
    KClassPartialBusNetwork,
    MultipleBusNetwork,
    PartialBusNetwork,
    SingleBusMemoryNetwork,
)

__all__ = [
    "BusAssignmentPolicy",
    "RoundRobinBusAssignment",
    "RandomBusAssignment",
    "GroupedBusAssignment",
    "SingleBusAssignment",
    "CrossbarAssignment",
    "MatchingBusAssignment",
    "KClassBusAssignment",
    "MemoryArbiter",
    "resolve_memory_contention",
    "assignment_for",
    "ArbitrationSpec",
    "GrantScheduler",
    "PriorityBusPolicy",
    "PriorityFullAssignment",
    "PriorityGroupedAssignment",
    "PrioritySingleAssignment",
    "PriorityKClassAssignment",
    "stage_one_composite",
    "resolve_prioritized",
    "priority_assignment_for",
]


def assignment_for(network: MultipleBusNetwork) -> BusAssignmentPolicy:
    """Return the paper's stage-two policy for a given topology.

    * crossbar -> no bus contention,
    * full -> round-robin ``B``-out-of-``M``,
    * partial -> per-group round-robin,
    * single -> per-bus round-robin,
    * K classes -> the two-step procedure of Lang et al. [10],
    * anything else (custom structures, fault-degraded topologies) ->
      :class:`MatchingBusAssignment`, a memoized maximum matching.
    """
    if isinstance(network, CrossbarNetwork):
        return CrossbarAssignment(network.n_memories, network.n_buses)
    if isinstance(network, KClassPartialBusNetwork):
        return KClassBusAssignment(network.class_of_module, network.n_buses)
    if isinstance(network, PartialBusNetwork):
        return GroupedBusAssignment(
            network.n_memories, network.n_buses, network.n_groups
        )
    if isinstance(network, SingleBusMemoryNetwork):
        return SingleBusAssignment(network.bus_of_module, network.n_buses)
    if isinstance(network, FullBusMemoryNetwork):
        return RoundRobinBusAssignment(network.n_memories, network.n_buses)
    return MatchingBusAssignment(network.memory_bus_matrix())


def priority_assignment_for(
    network: MultipleBusNetwork, spec: ArbitrationSpec
) -> PriorityBusPolicy:
    """Return the criticality-aware stage-two policy for a topology.

    Mirrors :func:`assignment_for`; crossbars share the full-connection
    policy since every requested module has its own path.  Topologies
    without a priority counterpart (e.g. fault-degraded matchings)
    raise :class:`~repro.exceptions.SimulationError`.
    """
    if isinstance(network, CrossbarNetwork):
        return PriorityFullAssignment(
            network.n_memories, network.n_buses, spec
        )
    if isinstance(network, KClassPartialBusNetwork):
        return PriorityKClassAssignment(
            network.class_of_module, network.n_buses, spec
        )
    if isinstance(network, PartialBusNetwork):
        return PriorityGroupedAssignment(
            network.n_memories, network.n_buses, network.n_groups, spec
        )
    if isinstance(network, SingleBusMemoryNetwork):
        return PrioritySingleAssignment(
            network.bus_of_module, network.n_buses, spec
        )
    if isinstance(network, FullBusMemoryNetwork):
        return PriorityFullAssignment(
            network.n_memories, network.n_buses, spec
        )
    raise SimulationError(
        "priority arbitration is not defined for "
        f"{type(network).__name__}"
    )
