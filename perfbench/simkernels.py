"""Workload ``sim_kernels``: every simulator, in process and serial.

A *round* calls each simulator's public entry point on a fixed list of
cells: the baseline ``simulate_bandwidth`` on both backends, the same
with an ``ArbitrationSpec``, ``simulate_with_faults`` on both backends,
structure matching on custom structures, and ``ResubmissionSimulator``.
Cycles per call are sized so that each of the eight simulator families
takes a comparable share of a round, so speeding any one family moves
the total.  The seed picks every simulation's random streams and the
order of the calls within a round.

Checks: every call must return statistics identical to the same call
in the first round; each loop-backend call must agree with its
vectorized twin; and a fixed anchor set must match the digests recorded
in ``sim_reference.json``, so a change that alters simulated statistics
is caught on any seed.  Regenerate that file only for a deliberate
change of the simulated model: ``python3 perfbench/simkernels.py --record``.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import json
import sys
import time
from collections.abc import Callable

import harness

harness.require_program()

import numpy as np  # noqa: E402

from repro.arbitration.base import BusAssignmentPolicy  # noqa: E402
from repro.arbitration.bus_arbiter import PriorityBusPolicy  # noqa: E402
from repro.core.hierarchy import paper_two_level_model  # noqa: E402
from repro.core.priority import ArbitrationSpec  # noqa: E402
from repro.core.request_models import UniformRequestModel  # noqa: E402
from repro.faults import stochastic  # noqa: E402
from repro.faults.stochastic import (  # noqa: E402
    ExponentialFaultProcess,
    simulate_with_faults,
)
from repro.simulation import engine, priority, resubmission  # noqa: E402
from repro.simulation.engine import simulate_bandwidth  # noqa: E402
from repro.simulation.resubmission import ResubmissionSimulator  # noqa: E402
from repro.simulation.structure import simulate_structure_bandwidth  # noqa: E402
from repro.topology.factory import build_network  # noqa: E402
from repro.topology.generators import generate_structure  # noqa: E402

N_PROCESSORS, N_BUSES = 16, 8
PAPER_SCHEMES = ("full", "single", "partial", "kclass", "crossbar")
FAULT_SCHEMES = ("full", "partial", "single")
RESUBMISSION_SCHEMES = ("full", "single", "partial", "kclass")
STRUCTURES = 4
DISCIPLINES = ("rr", "strict", "wrr", "proc")
TENURE_DISTS = ("fixed", "geometric")
RESUBMISSION_WARMUP = 50

#: Simulated cycles per call.  Sized on a 2-core x86 box so that each
#: family takes about 0.09 s of a 0.7 s round.
CYCLES = {
    "vectorized": 6000,
    "loop": 400,
    "priority_vectorized": 180,
    "priority_loop": 100,
    "faults_vectorized": 1300,
    "faults_loop": 250,
    "structure": 1000,
    "resubmission": 300,
}
FAMILIES = tuple(CYCLES)

#: Seed of the anchor cells whose digests ``sim_reference.json`` holds.
ANCHOR_SEED = 0
REFERENCE_PATH = harness.HERE / "sim_reference.json"


@dataclasses.dataclass
class Cell:
    """One simulator call: what it runs and how many cycles it simulates."""

    family: str
    label: str
    cycles: int
    run: Callable[[], object]
    #: For loop-backend calls: the vectorized call on the same inputs,
    #: and the statistic both must agree on.
    twin: Callable[[], object] | None = None
    agree_on: Callable[[object], object] | None = None
    #: What the recorded anchor digest covers (default: every statistic).
    anchor_on: Callable[[object], object] | None = None


def _grant_counts(result):
    if hasattr(result, "result"):  # FaultySimulationResult
        result = result.result
    return result.grant_counts


def _without_matched_identities(result):
    """A fault run's statistics minus which modules/processors were served.

    Under failed buses the loop backend assigns buses by a networkx
    maximum matching whose choice among equally large matchings follows
    hash order, so those two per-module/per-processor views vary with
    ``PYTHONHASHSEED`` from one process to the next (the matching size,
    hence every grant count, does not).  Within one process they repeat
    exactly and are checked in full.
    """
    stats = canonical(result)
    del stats["result"]["module_service_rates"]
    del stats["result"]["processor_success_rates"]
    return stats


def _resubmit(network, model, seed, cycles):
    return ResubmissionSimulator(network, model, seed=seed).run(
        cycles, warmup=RESUBMISSION_WARMUP
    )


def _cycles(family: str, smoke: bool) -> int:
    cycles = CYCLES[family]
    return max(20, cycles // 20) if smoke else cycles


def build_cells(seed: int, smoke: bool = False) -> list[Cell]:
    """The cells of one round, in a seed-chosen order.

    The seed picks every simulation's random streams.  Fault timelines
    and random structures are fixed: their shape sets a call's cost, and
    the figures must not move with the seed.
    """
    rng = np.random.default_rng(seed)
    seeds = iter(rng.integers(0, 2**31 - 1, size=64).tolist())
    models = (
        paper_two_level_model(N_PROCESSORS, rate=1.0),
        UniformRequestModel(N_PROCESSORS, N_PROCESSORS, rate=0.5),
    )
    networks = {
        scheme: build_network(scheme, N_PROCESSORS, N_PROCESSORS, N_BUSES)
        for scheme in PAPER_SCHEMES
    }
    cells: list[Cell] = []

    for i, scheme in enumerate(PAPER_SCHEMES):
        network, model, s = networks[scheme], models[i % 2], next(seeds)
        for backend in ("vectorized", "loop"):
            cycles = _cycles(backend, smoke)
            call = functools.partial(
                simulate_bandwidth, network, model, cycles, seed=s,
                backend=backend,
            )
            twin = None
            if backend == "loop":
                twin = functools.partial(
                    simulate_bandwidth, network, model, cycles, seed=s,
                    backend="vectorized",
                )
            cells.append(Cell(backend, f"{backend}/{scheme}", cycles, call,
                              twin, _grant_counts))

    for j, (discipline, dist) in enumerate(
        itertools.product(DISCIPLINES, TENURE_DISTS)
    ):
        scheme = PAPER_SCHEMES[j % len(PAPER_SCHEMES)]
        spec = ArbitrationSpec(
            discipline=discipline, class_weights=(0.5, 0.5), tenure=2.0,
            tenure_dist=dist,
        )
        network, model, s = networks[scheme], models[j % 2], next(seeds)
        for backend in ("vectorized", "loop"):
            family = f"priority_{backend}"
            cycles = _cycles(family, smoke)
            call = functools.partial(
                simulate_bandwidth, network, model, cycles, seed=s,
                backend=backend, spec=spec,
            )
            twin = None
            if backend == "loop":
                twin = functools.partial(
                    simulate_bandwidth, network, model, cycles, seed=s,
                    backend="vectorized", spec=spec,
                )
            cells.append(Cell(
                family, f"{family}/{scheme}/{discipline}/{dist}", cycles,
                call, twin, canonical,
            ))

    faults = ExponentialFaultProcess(mtbf=100.0, mttr=20.0)
    for i, scheme in enumerate(FAULT_SCHEMES):
        network, model, s = networks[scheme], models[i % 2], next(seeds)
        for backend in ("vectorized", "loop"):
            family = f"faults_{backend}"
            cycles = _cycles(family, smoke)
            schedule = faults.schedule(N_BUSES, cycles, seed=i)
            call = functools.partial(
                simulate_with_faults, network, model, schedule, cycles,
                seed=s, backend=backend,
            )
            twin = None
            if backend == "loop":
                twin = functools.partial(
                    simulate_with_faults, network, model, schedule, cycles,
                    seed=s, backend="vectorized",
                )
            cells.append(Cell(
                family, f"{family}/{scheme}", cycles, call, twin,
                _grant_counts,
                _without_matched_identities if backend == "loop" else None,
            ))

    for i in range(STRUCTURES):
        structure = generate_structure(
            {"kind": "random_incidence", "density": 0.5, "seed": i},
            N_PROCESSORS, N_PROCESSORS, N_BUSES,
        )
        cycles = _cycles("structure", smoke)
        call = functools.partial(
            simulate_structure_bandwidth, structure, models[i % 2], cycles,
            seed=next(seeds),
        )
        cells.append(Cell("structure", f"structure/{i}", cycles, call))

    for i, scheme in enumerate(RESUBMISSION_SCHEMES):
        cycles = _cycles("resubmission", smoke)
        call = functools.partial(
            _resubmit, networks[scheme], models[i % 2], next(seeds), cycles
        )
        cells.append(Cell("resubmission", f"resubmission/{scheme}",
                          cycles + RESUBMISSION_WARMUP, call))

    return [cells[k] for k in rng.permutation(len(cells))]


def canonical(value):
    """JSON-safe form of a result; floats exactly, as hex."""
    if dataclasses.is_dataclass(value):
        return {
            field.name: canonical(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, np.ndarray):
        return canonical(value.tolist())
    if isinstance(value, np.generic):
        return canonical(value.item())
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, dict):
        return {str(key): canonical(item) for key, item in value.items()}
    return value


def digest(result) -> str:
    text = json.dumps(canonical(result), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------


@dataclasses.dataclass
class Round:
    """What one pass over the cells saw."""

    calls: list[tuple[str, float, int, float]]  # (family, seconds, cycles, start)
    wall: float = 0.0
    failed: int = 0
    problems: list[str] = dataclasses.field(default_factory=list)


def run_round(cells: list[Cell], reference: dict[int, str],
              first_results: dict[int, object], tracer=None) -> Round:
    """Call every cell once.

    ``reference`` maps cell index to the digest every later call of that
    cell must reproduce (filled by the first call); ``first_results``
    keeps the first result of each cell that has a vectorized twin.
    """
    done = Round(calls=[])
    start = time.perf_counter()
    for index, cell in enumerate(cells):
        try:
            if tracer is None:
                t0 = time.perf_counter()
                result = cell.run()
                elapsed = time.perf_counter() - t0
            else:
                with tracer.span("sim.call", family=cell.family,
                                 cycles=cell.cycles):
                    t0 = time.perf_counter()
                    result = cell.run()
                    elapsed = time.perf_counter() - t0
        except Exception as exc:  # a failed call is counted, not fatal
            done.failed += 1
            done.problems.append(f"{cell.label}: raised {exc!r}")
            continue
        done.calls.append((cell.family, elapsed, cell.cycles, t0))
        if cell.twin is not None:
            first_results.setdefault(index, result)
        key = digest(result)
        if key != reference.setdefault(index, key):
            done.failed += 1
            done.problems.append(
                f"{cell.label}: statistics differ from the first call"
            )
    done.wall = time.perf_counter() - start
    return done


def cross_check(cells: list[Cell], first_results: dict) -> list[str]:
    """Loop-backend results must agree with their vectorized twins."""
    problems = []
    for index, result in first_results.items():
        cell = cells[index]
        if cell.agree_on(result) != cell.agree_on(cell.twin()):
            problems.append(f"{cell.label}: disagrees with the vectorized backend")
    return problems


def anchor_digests() -> dict[str, str]:
    return {
        cell.label: digest((cell.anchor_on or canonical)(cell.run()))
        for cell in build_cells(ANCHOR_SEED, smoke=True)
    }


def anchor_check() -> list[str]:
    """The anchor cells must reproduce the recorded digests exactly."""
    recorded = json.loads(REFERENCE_PATH.read_text())["digests"]
    observed = anchor_digests()
    return [
        f"anchor {label}: statistics differ from sim_reference.json"
        for label in sorted(set(recorded) | set(observed))
        if recorded.get(label) != observed.get(label)
    ]


def install_arbitration_tracing(tracer) -> None:
    """Count time in stage one (memory) and stage two (bus) arbitration."""
    for module in (engine, stochastic, resubmission):
        tracer.wrap(module, "resolve_memory_contention",
                    "arbitration.stage_one", aggregate="stage_one")
    for name in ("stage_one_composite", "resolve_prioritized"):
        tracer.wrap(priority, name, "arbitration.stage_one",
                    aggregate="stage_one")
    policies = [BusAssignmentPolicy, PriorityBusPolicy]
    seen = set()
    while policies:
        cls = policies.pop()
        if cls in seen:
            continue
        seen.add(cls)
        policies.extend(cls.__subclasses__())
        if "assign" in cls.__dict__ and not getattr(
            cls.__dict__["assign"], "__isabstractmethod__", False
        ):
            tracer.wrap(cls, "assign", "arbitration.stage_two",
                        aggregate="stage_two")


def _family_ns_per_cycle(rounds: list[Round]) -> dict[str, float]:
    seconds = dict.fromkeys(FAMILIES, 0.0)
    cycles = dict.fromkeys(FAMILIES, 0)
    for done in rounds:
        for family, elapsed, n, _ in done.calls:
            seconds[family] += elapsed
            cycles[family] += n
    return {
        f"sim.ns_per_cycle.{family}": (
            seconds[family] / cycles[family] * 1e9 if cycles[family] else 0.0
        )
        for family in FAMILIES
    }


def run(seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Run whole rounds for ``seconds`` (at least one); see :func:`run.main`.

    With ``trace`` the rounds alternate between plain and traced, which
    pairs them for the tracing overhead.  Without, the rounds run on one
    core whose speed is sampled, each call's time is scaled by it, and
    the percentiles are over all the run's calls.
    """
    cells = build_cells(seed, smoke)
    reference: dict[int, str] = {}
    first_results: dict[int, object] = {}
    tracer = harness.Tracer()
    plain: list[Round] = []
    traced: list[Round] = []
    if trace:
        deadline = time.perf_counter() + seconds
        while not plain or time.perf_counter() < deadline:
            plain.append(run_round(cells, reference, first_results))
            install_arbitration_tracing(tracer)
            try:
                traced.append(run_round(cells, reference, first_results,
                                        tracer))
            finally:
                tracer.restore()
    else:
        # One core, sampled: each call's time is scaled by its speed.
        cpu = harness.bench_cpus()[0]
        with harness.CoreSpeed([cpu]) as speed, harness.pinned({cpu}):
            setups = harness.timed_setup("sim_kernels", seed, smoke, cpu)
            deadline = time.perf_counter() + seconds
            while not plain or time.perf_counter() < deadline:
                plain.append(run_round(cells, reference, first_results))
    rounds = plain + traced
    problems = [p for done in rounds for p in done.problems]
    problems += cross_check(cells, first_results) + anchor_check()
    for problem in problems:
        print(f"sim_kernels check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(rounds) * len(cells),
        "failed": sum(done.failed for done in rounds),
    }
    if not trace:
        calls = [call for done in plain for call in done.calls]
        slowdowns = [speed.slowdown(start, start + elapsed, {cpu: 1.0})
                     for _, elapsed, _, start in calls]
        speed.report("sim_kernels", slowdowns)
        scaled = [call[1] / f for call, f in zip(calls, slowdowns)]
        result["metrics"] = {
            "setup_s": speed.scaled_setup(setups, cpu),
            "latency_p50_us": harness.percentile(scaled, 0.50) * 1e6,
            "latency_p99_us": harness.percentile(scaled, 0.99) * 1e6,
            "throughput_per_s": sum(call[2] for call in calls) / sum(scaled),
            "peak_rss_mb": harness.peak_rss_mib(),
        }
        return result

    tracer.write(harness.out_path(f"trace-sim_kernels-{seed}.jsonl"))
    call_seconds = sum(
        span[3] - span[2] for span in tracer.spans if span[1] == "sim.call"
    )
    stage_one = tracer.totals.get("arbitration.stage_one", [0, 0.0])
    stage_two = tracer.totals.get("arbitration.stage_two", [0, 0.0])
    metrics = _family_ns_per_cycle(plain)
    metrics.update({
        "arbitration.stage_one_frac": stage_one[1] / call_seconds,
        "arbitration.stage_two_frac": stage_two[1] / call_seconds,
        "arbitration.calls": stage_one[0] + stage_two[0],
        "trace.overhead_pct": harness.overhead_pct(
            [done.wall for done in plain], [done.wall for done in traced]
        ),
    })
    result["metrics"] = metrics
    return result


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python3 perfbench/simkernels.py --record")
    REFERENCE_PATH.write_text(json.dumps(
        {"seed": ANCHOR_SEED, "digests": anchor_digests()},
        indent=2, sort_keys=True,
    ) + "\n")
    print(f"wrote {REFERENCE_PATH}")
