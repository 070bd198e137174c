"""Sample how fast one core runs a fixed loop, while a workload runs.

Usage: ``python3 perfbench/corespeed.py CPU``.  The process pins itself
to core ``CPU``, prints ``ready``, and every :data:`PERIOD` seconds times
:func:`probe` three times and keeps the fastest (a preempted repetition
only reads slower).  Every :data:`STEAL_EVERY` samples it also reads
the core's cumulative steal time, the time the host ran something else
on it.  When its standard input closes it prints one JSON object,
``{"speed": [[perf_counter, seconds], ...], "steal": [[perf_counter,
steal seconds], ...]}``, and exits.

On a shared host a core's speed drifts by up to 2x within seconds, and
at times the host takes a share of it away, while the work the
benchmark asks of it stays put.  The workloads divide each window's
times by the slowdown these samples saw over it (see
:class:`harness.CoreSpeed`), so the figures describe the program rather
than its neighbours.  ``perf_counter`` is one system-wide monotonic
clock on Linux, so the samples line up with the workload's windows.
"""

from __future__ import annotations

import json
import os
import select
import sys
import time

#: Seconds between samples.  Host slow spells last 0.1 s and more, and
#: each sample preempts whatever runs on the core for about 50 us: at
#: 5 ms those preemptions alone made up serve_hot's slowest 1%.
PERIOD = 0.05
REPEATS = 3
#: Steal is read less often: reading ``/proc/stat`` adds about 35 us to
#: a sample, and steal only needs to be known per half second.
STEAL_EVERY = 10
TICKS_PER_S = os.sysconf("SC_CLK_TCK")


def probe() -> int:
    """A fixed pure-Python loop of about 15 microseconds on a quiet core."""
    total = 0
    table = {}
    for i in range(200):
        total += i * i % 7
        table[i & 31] = total
    return total


def steal_seconds(cpu: int) -> float:
    """Cumulative steal time of core ``cpu``, from ``/proc/stat``."""
    prefix = f"cpu{cpu} "
    with open("/proc/stat") as handle:
        for line in handle:
            if line.startswith(prefix):
                return int(line.split()[8]) / TICKS_PER_S
    raise RuntimeError(f"no {prefix!r} line in /proc/stat")


def main(cpu: int) -> int:
    os.sched_setaffinity(0, {cpu})
    clock = time.perf_counter
    speed, steal = [], [(clock(), steal_seconds(cpu))]
    print("ready", flush=True)
    stdin = sys.stdin.fileno()
    while not select.select([stdin], [], [], PERIOD)[0]:
        at = clock()
        best = float("inf")
        for _ in range(REPEATS):
            start = clock()
            probe()
            best = min(best, clock() - start)
        speed.append((at, best))
        if len(speed) % STEAL_EVERY == 0:
            steal.append((clock(), steal_seconds(cpu)))
    steal.append((clock(), steal_seconds(cpu)))
    json.dump({"speed": speed, "steal": steal}, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(int(sys.argv[1])))
