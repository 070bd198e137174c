"""Run one benchmark workload and print its result as one JSON line.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the result carries every end-to-end metric named in
``BENCHMARK.json``; with ``--trace 1`` every per-layer metric (a layer
the workload does not exercise reads 0).  ``--smoke`` shrinks the
inputs for the benchmark's own smoke test.  The exit code is 0 when
every output check passed, 1 when one failed, and 2 when the checkout
holds no program to benchmark.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

import harness

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def build_parser(workloads: list[str]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    return parser


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    if name in ("serve_hot", "serve_cold"):
        serving = importlib.import_module("serving")
        return serving.run(name, seed, seconds, trace)
    module = importlib.import_module(
        {"sim_kernels": "simkernels", "sweep_fabric": "sweepfabric"}[name]
    )
    return module.run(seed, seconds, trace, smoke)


def main(argv: list[str] | None = None) -> int:
    spec = json.loads(SPEC_PATH.read_text())
    args = build_parser([w["name"] for w in spec["workloads"]]).parse_args(argv)
    try:
        harness.require_program()
    except harness.ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.smoke)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    measured = result["metrics"]
    unknown = set(measured) - {entry["name"] for entry in declared}
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {}
    for entry in declared:
        if args.trace:
            value = measured.get(entry["name"], 0)
        else:
            value = measured[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
