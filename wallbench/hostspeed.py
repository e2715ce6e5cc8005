"""Host-speed sampling, so times read the same on a host whose speed drifts.

On a shared virtual machine the speed of a CPU can move by a third
within seconds as neighbours come and go.  A pass therefore samples the
speed while it runs: every ``INTERVAL_S`` of wall time a timer signal
runs a fixed pure-Python probe in the pass's own thread and records how
long it took.  Every time the pass reports is host seconds multiplied by
``REFERENCE_PROBE_S / probe time`` around it, i.e. the seconds the work
would take on a host that runs the probe in ``REFERENCE_PROBE_S``.  The
seconds spent inside the probes are taken out of every measured
interval first.  Set-up ends before a pass can probe, so ``run.py``
scales it with :func:`scale_now`, taken just before the spawn.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter
from typing import Callable, List, Optional

INTERVAL_S = 0.05
PROBE_ITERATIONS = 5000
#: About the probe's time on a 2-vCPU Intel Xeon VM running CPython
#: 3.11; only sets the unit of the scaled seconds.
REFERENCE_PROBE_S = 0.0005


def probe() -> float:
    """Host seconds one run of the fixed probe takes now."""
    start = perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc = (acc * 31 + i) & 0xFFFF
    return perf_counter() - start


def scale_now(probes: int = 20) -> float:
    """Reference seconds per host second at this moment."""
    return REFERENCE_PROBE_S / statistics.mean(
        probe() for _ in range(probes))


class HostSpeed:
    """Timer-driven probe samples over one pass."""

    def __init__(self, on_probe: Optional[Callable[[float], None]] = None):
        self.samples: List[float] = []
        #: Seconds spent inside probes so far.
        self.spent = 0.0
        self._on_probe = on_probe

    def _probe(self, _signum, _frame) -> None:
        start = perf_counter()
        self.samples.append(probe())
        # The handler's own bookkeeping is probe time too.
        spent = perf_counter() - start
        self.spent += spent
        if self._on_probe is not None:
            self._on_probe(spent)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def begin(self) -> tuple:
        """Start timing an interval."""
        return perf_counter(), len(self.samples), self.spent

    def end(self, begun: tuple) -> tuple:
        """(host seconds net of probes, first probe, end probe) of the
        interval started by :meth:`begin`."""
        start, first, spent = begun
        return (perf_counter() - start - (self.spent - spent), first,
                len(self.samples))

    def scaled(self, timing: tuple) -> float:
        """Reference seconds of a timed interval, from the probes taken
        during it plus the one before and the one after (so an interval
        shorter than ``INTERVAL_S`` still has two).  Call it after the
        pass, when the probe after the interval exists."""
        host, first, end = timing
        window = self.samples[max(0, first - 1):end + 1]
        if not window:
            return host
        return host * REFERENCE_PROBE_S / statistics.mean(window)
