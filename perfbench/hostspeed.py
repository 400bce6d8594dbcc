"""Host-speed sampling during a timed body.

On a shared host the CPU time of the same single-threaded work changes by
up to 2x, switching within seconds, as other guests load the same cores.
``HostSpeed`` measures that while a body runs: a profiling interval timer
interrupts the process every ``PERIOD_S`` of its CPU time, and the handler
times ``probe_s()``, a fixed loop of about a millisecond that calls nothing
in the program.  The mean probe time over ``NOMINAL_S`` is the host's
slowdown during the body, and the body's CPU time less the handler's,
divided by that slowdown, is its normalised time: CPU seconds on a host
where the probe takes ``NOMINAL_S``.
"""

from __future__ import annotations

import gc
import heapq
import signal
import time

import numpy as np

# CPU time between two probes.  The probes cost about 4% of the body.
PERIOD_S = 0.05
# CPU seconds probe_s() takes on an undisturbed core of the host the
# numbers in README.md were measured on (2-vCPU KVM guest, Intel Xeon at
# 2.1 GHz).
NOMINAL_S = 0.00105

_A = np.linspace(-1.0, 1.0, 96 * 48).reshape(96, 48)
_B = np.linspace(-1.0, 1.0, 48 * 16).reshape(48, 16)


def probe_s() -> float:
    """CPU time of a fixed loop doing the kinds of work the workloads do:
    interpreter-bound dict updates, heap-ordering and sorting small
    objects, and small numpy GEMMs.

    Timed on the thread's CPU clock: while a process-wide CPU timer is
    armed, Linux reads the process CPU clock only to the scheduler tick."""
    c0 = time.thread_time()
    table = {}
    for i in range(6_000):
        table[i % 97] = table.get(i % 97, 0) + i
    heap = []
    for i in range(600):
        heapq.heappush(heap, ((i * 7919) % 601, i, [i]))
    items = [heapq.heappop(heap) for _ in range(600)]
    items.sort(key=lambda item: item[1])
    for _ in range(16):
        np.rint(_A @ _B * 3.0)
    return time.thread_time() - c0


class HostSpeed:
    """Samples the host's speed all through a ``with`` block.

    ``samples`` holds every probe time, the first taken on entry;
    ``spent_s`` is the CPU time the handler took, probes included.  The
    previous SIGPROF handler and timer are restored on exit.
    """

    def __init__(self):
        self.samples = []
        self.spent_s = 0.0
        self._previous = None

    def _probe(self, signum=None, frame=None):
        c0 = time.thread_time()
        collecting = gc.isenabled()
        gc.disable()  # a collection here would scan the program's heap
        try:
            self.samples.append(probe_s())
        finally:
            if collecting:
                gc.enable()
        self.spent_s += time.thread_time() - c0

    def __enter__(self):
        self._probe()
        self._previous = signal.signal(signal.SIGPROF, self._probe)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)
        return False

    def slowdown(self) -> float:
        """Mean probe time over its nominal time."""
        return sum(self.samples) / len(self.samples) / NOMINAL_S
