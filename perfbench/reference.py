"""Host-speed reference for the end-to-end times.

The shared 2-CPU host this benchmark was defined on drifts in speed by
up to a third over minutes, in step across all four workloads, so a
CLI run's wall clock alone cannot tell a slower program from a slower
host.  Each untraced CLI run is therefore preceded by a fixed reference
sample: fresh Python processes doing a fixed mix of interpreter and
NumPy work, as many at once as the workload has simulating processes.
Times are reported scaled by ``REFERENCE_S / median(samples)``.  In ten
interleaved 30-second runs of each workload on that host, the scaling
cut the quartile spread of ``wall_s`` over the ten runs from 0.12,
0.12, 0.09 and 0.05 to 0.08, 0.08, 0.08 and 0.04 (fleet-street,
fleet-corridor, fleet-sharded, campaign-tracking).  Nothing in the
program can move the reference, so a change to the program moves the
reported times exactly as much as it moves the wall clock.

Run as a script, this file does one unit of reference work.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from typing import Dict, List, Mapping

#: Median wall seconds of one reference sample, by the number of
#: concurrent copies, on the host the benchmark was defined on.
#: Reported times are scaled to a host this fast.
REFERENCE_S = {1: 0.32, 2: 0.41}


class _Station:
    """A stand-in simulation object: attribute reads, a method call and
    a small NumPy product per event."""

    def __init__(self, index: int, gains) -> None:
        self.index = index
        self.gains = gains
        self.received = 0.0

    def on_event(self, weights) -> float:
        self.received += float(self.gains @ weights)
        return self.received


def work() -> float:
    """One unit of reference work: an event loop over objects with small
    NumPy calls, then NumPy on larger arrays and dict churn."""
    import heapq

    import numpy as np

    rng = np.random.default_rng(1)
    stations = [_Station(i, rng.standard_normal(16)) for i in range(64)]
    weights = rng.standard_normal(16)
    queue = [(float(t), i % 64) for i, t in enumerate(rng.random(256))]
    heapq.heapify(queue)
    total = 0.0
    for _ in range(24000):
        when, index = heapq.heappop(queue)
        total += stations[index].on_event(weights)
        heapq.heappush(queue, (when + 0.02 + index * 1e-4, index))
    for rep in range(16):
        a = rng.standard_normal((512, 64))
        b = np.exp(-np.abs(a)) * np.cos(a) + np.log1p(a * a)
        total += float(np.sort(b, axis=1)[:, 32].sum())
        table: Dict[tuple, list] = {}
        for i in range(2000):
            table[(rep, i)] = [i, i * 0.5, str(i)]
        total += sum(value[1] for value in table.values())
    return total


def time_once(copies: int, env: Mapping[str, str]) -> float:
    """Wall seconds until ``copies`` concurrent reference processes exit."""
    started = time.monotonic()
    procs = [
        subprocess.Popen(
            [sys.executable, __file__], env=env, stdout=subprocess.DEVNULL
        )
        for _ in range(copies)
    ]
    statuses = [proc.wait() for proc in procs]
    elapsed = time.monotonic() - started
    if any(statuses):
        raise RuntimeError(f"reference work failed: exit statuses {statuses}")
    return elapsed


def scale(samples: List[float], copies: int) -> float:
    """Factor taking times measured alongside ``samples`` of ``copies``
    concurrent processes to the reference host's speed (1.0 without
    samples)."""
    if not samples:
        return 1.0
    return REFERENCE_S[copies] / statistics.median(samples)


if __name__ == "__main__":
    work()
