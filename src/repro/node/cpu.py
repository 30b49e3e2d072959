"""CPU-side miss handling: the outstanding-request window.

A POWER9 core tracks in-flight cache misses in miss-status holding
registers (MSHRs); the node-wide window bounds how many remote
cache-line transactions can be outstanding simultaneously.  This bound
is what makes the system a *closed* queueing network, and — by
Little's law — what produces the constant bandwidth-delay product the
paper measures (Fig. 3): ``BDP = window x line_bytes``.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.config import CpuConfig
from repro.obs import LogHistogram
from repro.sim import Resource, Simulator, Waitable
from repro.units import Time

__all__ = ["MemoryWindow"]


class MemoryWindow:
    """Bounded window of outstanding memory transactions.

    Thin wrapper over :class:`~repro.sim.Resource` with occupancy
    statistics; shared by every workload instance on the node, as the
    hardware window is.  Besides peak occupancy, the window keeps a
    log-bucketed histogram of MSHR acquisition waits (simulated ps) —
    the "how long were misses stalled behind a full window" signal the
    observability report reads.
    """

    def __init__(self, sim: Simulator, config: CpuConfig, name: str = "mshr") -> None:
        self.sim = sim
        self.config = config
        self._slots = Resource(sim, config.max_outstanding_misses, name=name)
        self.peak_occupancy = 0
        self.wait_hist = LogHistogram()
        # Request times of queued acquisitions, oldest first: the same
        # FIFO order in which the Resource hands slots to its waiters.
        self._queued_since: Deque[Time] = deque()

    @property
    def capacity(self) -> int:
        """Maximum outstanding transactions (W)."""
        return self._slots.capacity

    @property
    def outstanding(self) -> int:
        """Transactions currently in flight."""
        return self._slots.in_use

    def acquire(self) -> Waitable:
        """Claim a window slot (blocks the caller when the window is full)."""
        slots = self._slots
        req = slots.acquire()
        if req.triggered:
            # Granted at once: record it here, with no wait.
            if slots.in_use > self.peak_occupancy:
                self.peak_occupancy = slots.in_use
            self.wait_hist.record(0)
        else:
            # Queued: the wait is recorded at hand-off, in release().
            self._queued_since.append(self.sim.now)
        return req

    def release(self) -> None:
        """Return a slot when the transaction's response arrives."""
        queued = self._queued_since
        if queued:
            # The slot passes straight to the oldest waiter, so occupancy
            # (and its peak) is unchanged; record that waiter's wait
            # before Resource.release() resumes it.
            self.wait_hist.record(self.sim.now - queued.popleft())
        self._slots.release()

    def utilization(self) -> float:
        """Mean occupied fraction of the window since simulation start."""
        return self._slots.utilization()
