"""Host speed, probed around every timed operation, to scale its time.

The benchmark runs on shared virtual machines whose speed drifts with
the neighbours' load, in phases of a minute or more: the same operation
on the same inputs can take half as long in one phase as in the next.
A median over one run averages out stalls shorter than the run, not a
phase that covers it, so two runs of the same code can differ by more
than any bound a benchmark can hold.

So a run also times a fixed probe in short bursts, one between every
two timed operations.  The probe does the kinds of work Mosaic does
(Python object churn and a NumPy gather over a working set larger than
the caches) but calls no Mosaic code, so no change to the program can
move it.  Each operation's time is scaled by ``REFERENCE_PROBE_S``
over the median probe of the bursts just before and just after it: it
reads as on a host where the probe takes ``REFERENCE_PROBE_S``.  A
change that makes the program faster or slower moves the scaled time
as much as the raw one; a phase that slows the host moves the probe
with the operation and cancels.  The raw times are printed beside the
scaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Probe seconds on the reference host (the median probe time on the
#: 2-vCPU virtual machine the benchmark was tuned on).
REFERENCE_PROBE_S = 0.008
#: Probes timed per burst.
BURST = 3
#: The gather reads this many float64 values (32 MB) at random.
GATHER_SPAN = 4_000_000


class HostSpeed:
    """Probe bursts of one run, in the order they were taken."""

    def __init__(self) -> None:
        self.bursts: list[list[float]] = []
        self._values = np.random.default_rng(0).random(GATHER_SPAN)
        self._at = np.random.default_rng(1).integers(0, GATHER_SPAN, 200_000)

    def probe(self) -> float:
        """Seconds for one fixed piece of interpreter and memory work."""
        t0 = time.perf_counter()
        table: dict[int, tuple[int, str]] = {}
        for i in range(10000):
            table[i % 769] = (i, str(i))
        sorted(table.values(), reverse=True)
        float(self._values[self._at].sum())
        return time.perf_counter() - t0

    def sample(self) -> int:
        """Take a burst now; its index."""
        self.bursts.append([self.probe() for _ in range(BURST)])
        return len(self.bursts) - 1

    def scale(self, before: int) -> float:
        """Factor that takes a time measured between burst ``before``
        and the next one to the reference host speed (divide a rate by
        it)."""
        around = self.bursts[before] + self.bursts[before + 1]
        return REFERENCE_PROBE_S / statistics.median(around)

    def probe_s(self) -> float:
        """The run's median probe time."""
        return statistics.median(p for burst in self.bursts for p in burst)
