"""Host-speed sampling for timings taken on a shared machine.

On a host shared with other tenants the interpreter's speed swings by
tens of percent within a second (co-tenant load on shared cores and
caches), far more than the changes the benchmark must resolve.  While a
unit of work runs, :class:`SpeedSampler` interrupts it every
``PERIOD_S`` seconds (``SIGALRM``) and times a short fixed pure-Python
probe, so the probe sees the same host speed as the work around it.  A
unit's time is then reported as

    (seconds - probe seconds) x REFERENCE_S / mean probe seconds

that is, in seconds at the host speed where the probe takes
``REFERENCE_S``.  The probe touches no program code: a change to the
program moves the unit's time, not the probe's.
"""

from __future__ import annotations

import signal
import time
from typing import List

#: Probe time that defines the reference host speed (about what the
#: probe and its signal delivery take on a 2-vCPU 2.1 GHz x86-64 VM).
REFERENCE_S = 65e-6
PERIOD_S = 0.005


def _probe() -> int:
    table = {}
    acc = 0
    for i in range(300):
        table[i & 63] = i
        acc = (acc + table.get(i & 31, 0)) & 0xFFFF
    return acc


class SpeedSampler:
    """Probe the host's speed from a timer signal while work runs.

    Use from the main thread; ``start`` and ``stop`` bracket the work."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        _probe()
        self.samples.append(time.perf_counter() - start)

    def start(self) -> None:
        self.samples = []
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        # Ignore rather than restore the default action: an alarm raised
        # just before the timer stopped may still be pending, and the
        # default action for SIGALRM ends the process.
        signal.signal(signal.SIGALRM, signal.SIG_IGN)

    @property
    def spent(self) -> float:
        """Seconds the probes themselves took."""
        return sum(self.samples)

    def normalize(self, seconds: float) -> float:
        """``seconds`` of work (wall or CPU, probes included) in seconds
        at the reference host speed."""
        if not self.samples:
            return seconds
        mean = self.spent / len(self.samples)
        return (seconds - self.spent) * REFERENCE_S / mean
