"""Stochastic fault/repair timelines through both simulation backends.

The load-bearing property is *differential*: a schedule that fails a set
``F`` at cycle 0 and never repairs must reproduce the static
``DegradedNetwork(base, F)`` run result for result, an empty schedule
must reproduce the healthy run on either backend, and the vectorized
segmented path must agree with the loop path on grant counts for any
schedule — the same backend-equivalence invariant the healthy simulator
pins, extended across fault boundaries.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro

from repro import paper_two_level_model, telemetry
from repro.exceptions import ConfigurationError, FaultError, SimulationError
from repro.faults.injection import fail_buses
from repro.faults.stochastic import (
    ExponentialFaultProcess,
    FaultEvent,
    FaultSchedule,
    simulate_with_faults,
)
from repro.simulation.engine import MultiprocessorSimulator
from repro.topology.factory import build_network

SCHEMES = ("full", "partial", "single", "kclass")


def _network(scheme):
    return build_network(scheme, 8, 8, 4)


def _model():
    return paper_two_level_model(8, rate=1.0)


class TestFaultSchedule:
    def test_events_sorted_and_exposed(self):
        schedule = FaultSchedule(
            [FaultEvent(50, 1, "fail"), FaultEvent(10, 0, "fail")]
        )
        assert [e.cycle for e in schedule] == [10, 50]
        assert len(schedule) == 2

    def test_static_factory(self):
        schedule = FaultSchedule.static({2, 0})
        assert [(e.cycle, e.bus, e.kind) for e in schedule] == [
            (0, 0, "fail"),
            (0, 2, "fail"),
        ]

    def test_segments_partition_the_run(self):
        schedule = FaultSchedule(
            [
                FaultEvent(10, 0, "fail"),
                FaultEvent(30, 0, "repair"),
                FaultEvent(30, 1, "fail"),
            ]
        )
        segments = schedule.segments(50, 4)
        assert [(s.start, s.stop) for s in segments] == [
            (0, 10),
            (10, 30),
            (30, 50),
        ]
        assert [set(s.failed) for s in segments] == [set(), {0}, {1}]
        assert sum(s.n_cycles for s in segments) == 50

    def test_idempotent_events(self):
        schedule = FaultSchedule(
            [
                FaultEvent(5, 0, "fail"),
                FaultEvent(6, 0, "fail"),
                FaultEvent(7, 1, "repair"),
            ]
        )
        assert schedule.failed_at(8, 4) == frozenset({0})

    def test_events_beyond_horizon_ignored(self):
        schedule = FaultSchedule([FaultEvent(100, 0, "fail")])
        assert len(schedule.segments(50, 4)) == 1

    def test_invalid_events_rejected(self):
        with pytest.raises(FaultError):
            FaultEvent(-1, 0, "fail")
        with pytest.raises(FaultError):
            FaultEvent(0, -1, "fail")
        with pytest.raises(FaultError):
            FaultEvent(0, 0, "explode")
        with pytest.raises(FaultError):
            FaultSchedule([FaultEvent(0, 9, "fail")]).segments(10, 4)


class TestExponentialFaultProcess:
    def test_schedule_is_deterministic_in_seed(self):
        process = ExponentialFaultProcess(mtbf=300.0, mttr=60.0)
        a = process.schedule(4, 2_000, seed=9)
        b = process.schedule(4, 2_000, seed=9)
        assert list(a) == list(b)
        assert list(a) != list(process.schedule(4, 2_000, seed=10))

    def test_fail_and_repair_alternate_per_bus(self):
        process = ExponentialFaultProcess(mtbf=100.0, mttr=20.0)
        schedule = process.schedule(2, 5_000, seed=0)
        for bus in range(2):
            kinds = [e.kind for e in schedule if e.bus == bus]
            assert kinds[::2] == ["fail"] * len(kinds[::2])
            assert kinds[1::2] == ["repair"] * len(kinds[1::2])

    def test_steady_state_availability(self):
        process = ExponentialFaultProcess(mtbf=400.0, mttr=100.0)
        assert process.steady_state_availability() == pytest.approx(0.8)

    def test_invalid_parameters(self):
        with pytest.raises(FaultError):
            ExponentialFaultProcess(mtbf=0.0, mttr=1.0)
        with pytest.raises(FaultError):
            ExponentialFaultProcess(mtbf=1.0, mttr=-2.0)


class TestDifferentialEquivalence:
    """Never-repaired schedule == static DegradedNetwork, cycle-for-cycle."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_loop_matches_static_degraded_run(self, scheme):
        network = _network(scheme)
        model = _model()
        faulty = simulate_with_faults(
            network,
            model,
            schedule=FaultSchedule.static({1}),
            n_cycles=400,
            seed=7,
            backend="loop",
        )
        reference = MultiprocessorSimulator(
            fail_buses(network, {1}), model, seed=7
        ).run(400)
        assert faulty.result == reference

    @pytest.mark.parametrize("scheme", ("full", "partial", "single"))
    def test_vectorized_matches_loop(self, scheme):
        network = _network(scheme)
        model = _model()
        schedule = FaultSchedule(
            [
                FaultEvent(100, 0, "fail"),
                FaultEvent(250, 0, "repair"),
                FaultEvent(300, 2, "fail"),
            ]
        )
        loop = simulate_with_faults(
            network, model, schedule=schedule, n_cycles=500, seed=3,
            backend="loop",
        )
        vec = simulate_with_faults(
            network, model, schedule=schedule, n_cycles=500, seed=3,
            backend="vectorized",
        )
        assert np.array_equal(
            loop.result.grant_counts, vec.result.grant_counts
        )
        assert loop.result.requests_per_cycle == pytest.approx(
            vec.result.requests_per_cycle
        )

    def test_empty_schedule_matches_healthy_run(self):
        network = _network("full")
        model = _model()
        # 9000 cycles cross the vectorized kernel's 8192-cycle chunk.
        runs = [
            (backend, warmup, 300)
            for backend in ("loop", "vectorized")
            for warmup in (0, 100)
        ] + [("vectorized", 0, 9000), ("vectorized", 100, 9000)]
        for backend, warmup, n_cycles in runs:
            faulty = simulate_with_faults(
                network, model, n_cycles=n_cycles, warmup=warmup, seed=5,
                backend=backend,
            )
            healthy = MultiprocessorSimulator(
                network, model, seed=5, backend=backend
            ).run(n_cycles, warmup=warmup)
            assert faulty.result == healthy, (backend, warmup, n_cycles)
            assert faulty.backend == backend
            assert faulty.n_segments == 1
            assert faulty.degraded_cycle_fraction == 0.0

    def test_kclass_falls_back_to_loop(self):
        faulty = simulate_with_faults(
            _network("kclass"),
            _model(),
            schedule=FaultSchedule.static({1}),
            n_cycles=200,
            seed=0,
        )
        assert faulty.backend == "loop"
        with pytest.raises(SimulationError):
            simulate_with_faults(
                _network("kclass"),
                _model(),
                schedule=FaultSchedule.static({1}),
                n_cycles=200,
                seed=0,
                backend="vectorized",
            )


class TestMidRunBehaviour:
    def test_blackout_cycles_record_zero_grants(self):
        schedule = FaultSchedule(
            [FaultEvent(10, b, "fail") for b in range(4)]
            + [FaultEvent(50, b, "repair") for b in range(4)]
        )
        faulty = simulate_with_faults(
            _network("partial"), _model(), schedule=schedule,
            n_cycles=100, seed=3, backend="loop",
        )
        assert faulty.blackout_cycles == 40
        assert faulty.min_alive_buses == 0
        assert (np.asarray(faulty.result.grant_counts)[10:50] == 0).all()
        # Requests are still issued during the blackout (and dropped).
        assert faulty.result.requests_per_cycle > 0

    def test_degraded_fraction_counts_measured_window(self):
        schedule = FaultSchedule([FaultEvent(100, 0, "fail")])
        faulty = simulate_with_faults(
            _network("full"), _model(), schedule=schedule,
            n_cycles=200, seed=0,
        )
        assert faulty.degraded_cycle_fraction == pytest.approx(0.5)
        assert faulty.n_fail_events == 1
        assert faulty.n_repair_events == 0

    def test_resubmit_holds_requests_without_crashing(self):
        faulty = simulate_with_faults(
            _network("partial"),
            _model(),
            schedule=FaultSchedule.static({0, 1}),
            n_cycles=300,
            seed=3,
            blocked="resubmit",
        )
        # Group 0's modules are unreachable: their requests are held and
        # resubmitted every cycle, never serviced, never an exception.
        assert faulty.backend == "loop"
        assert faulty.resubmitted_requests > 0
        assert faulty.bandwidth > 0.0

    def test_telemetry_counters_emitted(self):
        schedule = FaultSchedule(
            [FaultEvent(10, 0, "fail"), FaultEvent(20, 0, "repair")]
        )
        with telemetry() as registry:
            simulate_with_faults(
                _network("full"), _model(), schedule=schedule,
                n_cycles=50, seed=0,
            )
            assert registry.counter_total("fault.runs") == 1
            assert registry.counter_total("fault.events") == 2
            assert registry.counter_total("fault.degraded_cycles") == 10


class TestValidation:
    def test_crossbar_with_faults_rejected(self):
        crossbar = build_network("crossbar", 8, 8, 8)
        with pytest.raises(FaultError):
            simulate_with_faults(
                crossbar, _model(), schedule=FaultSchedule.static({0}),
                n_cycles=100,
            )

    def test_bad_backend_and_blocked_policy(self):
        with pytest.raises(ConfigurationError):
            simulate_with_faults(
                _network("full"), _model(), n_cycles=10, backend="gpu"
            )
        with pytest.raises(ConfigurationError):
            simulate_with_faults(
                _network("full"), _model(), n_cycles=10, blocked="queue"
            )

    def test_bad_cycle_counts(self):
        with pytest.raises(SimulationError):
            simulate_with_faults(_network("full"), _model(), n_cycles=0)
        with pytest.raises(SimulationError):
            simulate_with_faults(
                _network("full"), _model(), n_cycles=10, warmup=-1
            )


_HASH_SEED_PROBE = """
from repro import paper_two_level_model
from repro.faults.injection import fail_buses
from repro.faults.stochastic import FaultSchedule, simulate_with_faults
from repro.simulation.engine import simulate_bandwidth
from repro.topology.factory import build_network

model = paper_two_level_model(16, rate=1.0)
for scheme in ("full", "partial", "single", "kclass"):
    network = build_network(scheme, 16, 16, 8)
    print(simulate_with_faults(
        network, model, FaultSchedule.static({0, 3}), n_cycles=300,
        seed=4, backend="loop",
    ))
    print(simulate_bandwidth(
        fail_buses(network, {0, 3}), model, n_cycles=300, seed=4,
    ))
"""


def _probe_under_hash_seed(hash_seed: str) -> str:
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(
        os.environ,
        PYTHONHASHSEED=hash_seed,
        PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]
        ),
    )
    completed = subprocess.run(
        [sys.executable, "-c", _HASH_SEED_PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    return completed.stdout


def test_degraded_loop_runs_do_not_depend_on_the_hash_seed():
    """Degraded loop runs repeat exactly across processes.

    Every field counts, including which modules and processors were
    served: the matching arbiter must pick among equally large matchings
    deterministically, not in hash order.
    """
    first = _probe_under_hash_seed("0")
    assert first.count("\n") == 8
    assert first == _probe_under_hash_seed("1")
