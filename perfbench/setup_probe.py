"""Time one workload's set-up in a fresh interpreter and print seconds.

Set-up is the imports plus the construction of the workload's inputs
(``sim_kernels``: networks, models, specs, fault timelines and
structures; ``sweep_fabric``: everything before the coordinator runs).
Usage: ``python3 perfbench/setup_probe.py WORKLOAD SEED [--smoke]``.
"""

import sys
import time

start = time.perf_counter()
workload, seed = sys.argv[1], int(sys.argv[2])
smoke = "--smoke" in sys.argv[3:]
if workload == "sim_kernels":
    import simkernels

    simkernels.build_cells(seed, smoke)
elif workload == "sweep_fabric":
    import sweepfabric

    sweepfabric.build_coordinators(seed, smoke)
else:
    raise SystemExit(f"no set-up probe for workload {workload!r}")
print(time.perf_counter() - start)
