"""Smoke test of the benchmark itself, at tiny sizes.

Run with ``python3 -m pytest perfbench/test_smoke.py -q`` from the
repository root.  It checks that every workload prints every metric
named in ``BENCHMARK.json`` with its unit, that the output checks catch
a corrupted response, simulated result and sweep record, that the
benchmark refuses to run in a checkout without the program, and that
the core-speed sampler the timings are scaled by yields samples.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import harness

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_benchmark(workload: str, trace: int, cwd=harness.ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_metric_with_its_unit(workload, trace):
    done = run_benchmark(workload, trace)
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        if not trace:
            assert printed["value"] > 0, metric["name"]


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(harness.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_benchmark(WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_serving_check_catches_a_corrupted_answer():
    import serving

    request = serving.hot_universe(3)[0]
    expected = serving.reference_values(request)
    bandwidth = next(iter(expected.values()))
    good = json.dumps({"ok": True, "source": "cache", "result": {
        "B": request.payload["B"], "bandwidth": bandwidth}}).encode()
    bad = good.replace(repr(bandwidth).encode(),
                       repr(bandwidth + 1e-6).encode())
    assert bad != good
    failed, shed, problems = serving.check_outcomes(
        [(request, 200, good), (request, 200, bad), (request, 429, b"{}")], {}
    )
    assert (failed, shed, len(problems)) == (2, 1, 1)


def test_sim_check_catches_a_changed_statistic():
    import simkernels

    cells = simkernels.build_cells(3, smoke=True)[:3]
    reference, first = {}, {}
    assert simkernels.run_round(cells, reference, first).failed == 0
    honest = cells[0].run
    cells[0].run = lambda: _nudged(honest())
    done = simkernels.run_round(cells, reference, first)
    assert done.failed == 1 and "differ" in done.problems[0]


def _nudged(result):
    if hasattr(result, "result"):  # FaultySimulationResult
        return dataclasses.replace(result, result=_nudged(result.result))
    if hasattr(result, "total"):  # PrioritySimulationResult
        return dataclasses.replace(result, total=_nudged(result.total))
    return dataclasses.replace(result, bandwidth=result.bandwidth + 1e-12)


def test_sim_anchors_match_and_catch_a_changed_digest(tmp_path, monkeypatch):
    import simkernels

    assert simkernels.anchor_check() == []
    recorded = json.loads(simkernels.REFERENCE_PATH.read_text())
    label = sorted(recorded["digests"])[0]
    recorded["digests"][label] = "0" * 64
    changed = tmp_path / "sim_reference.json"
    changed.write_text(json.dumps(recorded))
    monkeypatch.setattr(simkernels, "REFERENCE_PATH", changed)
    assert simkernels.anchor_check() == [
        f"anchor {label}: statistics differ from sim_reference.json"
    ]


def test_fabric_check_catches_a_changed_record():
    import sweepfabric

    params = sweepfabric.sweep_params(3, smoke=True)[0]
    reference = sweepfabric.serial_records(params)
    reference[0] = dict(reference[0], bandwidth=reference[0]["bandwidth"] + 1e-9)
    done = sweepfabric.run_sweep(3, True, 0, reference)
    assert done.problem == "sweep 0: records differ from the serial sweep"


def test_core_speed_samples_and_scales():
    import time

    cpu = harness.bench_cpus()[0]
    with harness.CoreSpeed([cpu]) as speed:
        start = time.perf_counter()
        time.sleep(0.1)
        end = time.perf_counter()
    slowdown = speed.slowdown(start, end)
    assert 0.2 < slowdown < 20
    # Weights that sum to nothing fall back to the sampled cores alike.
    assert speed.slowdown(start, end, {cpu: 0.0}) == slowdown
    # An interval between samples still gets its nearest neighbours.
    assert speed.slowdown(start, start) > 0
    assert speed.scaled_setup([(start, end, slowdown)], cpu) == 1.0
