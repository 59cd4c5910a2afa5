"""A fixed piece of interpreter work that tells how fast the machine runs now.

On a shared machine the CPU time of the same work moves with other tenants'
load: by up to half from one minute to the next, and by as much between
neighbouring calls. The benchmark runs this probe before and after every
operation it times and scales each CPU time by P_REF over the mean of the
probes around it. What it reports is CPU time at the speed at which the
probe takes P_REF. The probe
shares no code with dpgraph, so a change to dpgraph moves the scaled time
exactly as it moves the raw one.

Standard library only, so that it can run before anything else is imported.
"""

from __future__ import annotations

import time

P_REF = 1e-3  # CPU seconds of one probe at the reference speed


def probe() -> float:
    """CPU seconds that the fixed probe work takes now."""
    t0 = time.process_time()
    table: dict[int, int] = {}
    total = 0.0
    for i in range(4000):
        table[i & 63] = table.get(i & 63, 0) + i
        total += (i * 0.5) ** 0.5
    return time.process_time() - t0


class Probes:
    """Speed probes taken through a stretch of work, each with its wall time."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def take(self) -> float:
        """Run the probe now; returns the wall time it ended at. The sample
        is kept at the probe's midpoint."""
        begin = time.perf_counter()
        cpu = probe()
        now = time.perf_counter()
        self.samples.append(((begin + now) / 2.0, cpu))
        return now

    def scale(self, start: float, end: float) -> float:
        """P_REF over the mean probe within one span's length of [start, end].

        A short span is scaled by the probes just around it, because the
        machine's speed changes within a fraction of a second; a long one by
        the probes over a stretch as long as itself on either side.
        """
        reach = max(end - start, 5e-3)
        near = [cpu for t, cpu in self.samples if start - reach <= t <= end + reach]
        return P_REF * len(near) / sum(near)
