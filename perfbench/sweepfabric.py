"""Workload ``sweep_fabric``: short sweep cells on a two-worker fabric.

Each operation is one :meth:`FabricCoordinator.run` of a Monte-Carlo
sweep job, alternating between a ``full`` and a ``kclass`` grid (N=16,
B=1..16, four rates, both request models, 500 cycles per cell: 128
cells each).  Cells are short on purpose: worker spawn, framing,
dispatch and merge dominate, so a kernel change that adds per-call
set-up shows here even when ``sim_kernels`` improves.  Worker spawn is
inside the timed call because users pay it on every sweep.

Check: every sweep's records must be ``==`` the single-process
``simulated_bandwidth_sweep(n_workers=1)`` records of the same grid,
computed before the timed phase.
"""

from __future__ import annotations

import contextlib
import dataclasses
import random
import sys
import time

import harness

harness.require_program()

from repro.analysis import parallel  # noqa: E402
from repro.analysis.parallel import simulated_bandwidth_sweep  # noqa: E402
from repro.fabric import FabricConfig, FabricCoordinator, FabricJob, wire  # noqa: E402

N_PROCESSORS = 16
SCHEMES = ("full", "kclass")
N_WORKERS = 2
N_RATES = 4
RATE_CHOICES = tuple(round(0.2 + 0.05 * i, 2) for i in range(17))


def sweep_params(seed: int, smoke: bool = False) -> list[dict]:
    """One sweep job description per scheme; rates and seeds from ``seed``."""
    rng = random.Random(seed)
    jobs = []
    for scheme in SCHEMES:
        jobs.append({
            "scheme": scheme,
            "N": N_PROCESSORS,
            "bus_counts": [2, 4, 8] if smoke else list(range(1, 17)),
            "rates": sorted(rng.sample(RATE_CHOICES, N_RATES)),
            "n_cycles": 100 if smoke else 500,
            "seed": rng.randrange(2**31),
            "backend": "auto",
        })
    return jobs


def build_coordinators(seed: int, smoke: bool = False) -> list[FabricCoordinator]:
    """Everything a user does before ``run()``."""
    return [
        FabricCoordinator(
            FabricJob(kind="sweep", params=params),
            FabricConfig(n_workers=N_WORKERS),
        )
        for params in sweep_params(seed, smoke)
    ]


def serial_records(params: dict) -> list[dict]:
    return simulated_bandwidth_sweep(
        params["scheme"], params["N"], params["bus_counts"], params["rates"],
        n_cycles=params["n_cycles"], seed=params["seed"],
        backend=params["backend"], n_workers=1,
    )


@dataclasses.dataclass
class Sweep:
    """One coordinator run and what its report said."""

    job: int
    start: float = 0.0
    wall: float = 0.0
    cells: int = 0
    busy: float = 0.0
    dispatches: int = 0
    retries: int = 0
    deaths: int = 0
    problem: str | None = None


def run_sweep(seed: int, smoke: bool, job: int, reference: list,
              tracer=None) -> Sweep:
    coordinator = build_coordinators(seed, smoke)[job]
    done = Sweep(job)
    start = done.start = time.perf_counter()
    try:
        if tracer is None:
            report = coordinator.run()
        else:
            with tracer.span("fabric.run", job=job):
                report = coordinator.run()
    except Exception as exc:  # a failed sweep is counted, not fatal
        done.problem = f"sweep {job} raised {exc!r}"
        return done
    finally:
        done.wall = time.perf_counter() - start
    if report.records != reference:
        done.problem = f"sweep {job}: records differ from the serial sweep"
    done.cells = report.cells
    done.busy = sum(t["busy_seconds"] for t in report.worker_timings.values())
    done.dispatches = len(report.shard_map)
    done.retries = report.retries
    done.deaths = len(report.worker_deaths)
    return done


def run(seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Run whole windows for ``seconds`` (at least one); see :func:`run.main`.

    A window is one sweep of each job.  With ``trace`` every sweep is
    followed by a traced sweep of the same job, which pairs them for the
    tracing overhead.
    """
    jobs = sweep_params(seed, smoke)
    replay = harness.Tracer()
    if trace:
        replay.wrap(parallel, "simulate_bandwidth", "sim.vectorized",
                    aggregate="sim")
    try:
        start = time.perf_counter()
        references = [serial_records(params) for params in jobs]
        serial_wall = time.perf_counter() - start
    finally:
        replay.restore()

    tracer = harness.Tracer()
    windows: list[list[Sweep]] = []
    traced: list[Sweep] = []
    cpus = harness.bench_cpus()
    with contextlib.ExitStack() as stack:
        if not trace:
            speed = stack.enter_context(harness.CoreSpeed(cpus))
            setups = harness.timed_setup("sweep_fabric", seed, smoke, cpus[0])
        deadline = time.perf_counter() + seconds
        while not windows or time.perf_counter() < deadline:
            windows.append([])
            for job, reference in enumerate(references):
                windows[-1].append(run_sweep(seed, smoke, job, reference))
                if trace:
                    tracer.wrap(wire, "encode_frame", "fabric.codec")
                    tracer.wrap(wire, "decode_payload", "fabric.codec")
                    try:
                        traced.append(run_sweep(seed, smoke, job, reference,
                                                tracer))
                    finally:
                        tracer.restore()
    plain = [done for window in windows for done in window]
    sweeps = plain + traced
    problems = [done.problem for done in sweeps if done.problem]
    for problem in problems:
        print(f"sweep_fabric check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(sweeps),
        "failed": len(problems),
    }
    if not trace:
        # Coordinator and workers move between both cores, so each
        # sweep's wall time is scaled by the mean speed of the two.
        slowdowns = [speed.slowdown(done.start, done.start + done.wall)
                     for done in plain]
        speed.report("sweep_fabric", slowdowns)
        walls = [done.wall / f for done, f in zip(plain, slowdowns)]
        result["metrics"] = {
            "setup_s": speed.scaled_setup(setups, cpus[0]),
            "latency_p50_us": harness.percentile(walls, 0.50) * 1e6,
            "latency_p99_us": harness.percentile(walls, 0.99) * 1e6,
            "throughput_per_s": sum(done.cells for done in plain) / sum(walls),
            "peak_rss_mb": harness.peak_rss_mib(),
        }
        return result

    tracer.write(harness.out_path(f"trace-sweep_fabric-{seed}.jsonl"))
    codec = [s[3] - s[2] for s in tracer.spans if s[1] == "fabric.codec"]
    _, sim_seconds = replay.totals["sim.vectorized"]
    cycles = sum(params["n_cycles"] * len(records)
                 for params, records in zip(jobs, references))
    result["metrics"] = {
        "parallel.cell_ms": serial_wall / sum(map(len, references)) * 1e3,
        "sim.ns_per_cycle.vectorized": sim_seconds / cycles * 1e9,
        "fabric.overhead_s": harness.mean(
            done.wall - done.busy / N_WORKERS for done in plain),
        "fabric.worker_busy_frac": harness.mean(
            done.busy / (done.wall * N_WORKERS) for done in plain),
        "fabric.dispatches": harness.mean(done.dispatches for done in plain),
        "fabric.retries": sum(done.retries for done in sweeps),
        "fabric.worker_deaths": sum(done.deaths for done in sweeps),
        "fabric.codec_us": harness.mean(codec) * 1e6,
        "trace.overhead_pct": harness.overhead_pct(
            [done.wall for done in plain], [done.wall for done in traced]
        ),
    }
    return result
