"""MSHR window wait accounting: the histogram and peak the report reads.

A capacity-2 window with five acquirers and staggered releases: two
are granted at once, three queue and are granted in FIFO order as
slots are handed over.  The recorded waits, their order-independent
summary (count, sum, min, max) and the peak occupancy are pinned.
"""

from repro.config import CpuConfig
from repro.node.cpu import MemoryWindow
from repro.sim import Simulator, Timeout

#: (request time, hold time) per acquirer, in ps.
ACQUIRERS = ((0, 100), (10, 250), (20, 70), (30, 40), (40, 30))


def run_window():
    sim = Simulator()
    window = MemoryWindow(sim, CpuConfig(max_outstanding_misses=2), name="w")
    granted = {}

    def acquirer(i, at, hold):
        yield Timeout(sim, at)
        yield window.acquire()
        granted[i] = sim.now
        yield Timeout(sim, hold)
        window.release()

    for i, (at, hold) in enumerate(ACQUIRERS):
        sim.process(acquirer(i, at, hold), name=f"a{i}")
    sim.run()
    return window, granted


def test_grants_are_fifo_hand_offs():
    _, granted = run_window()
    # a0 frees at 100 -> a2; a2 frees at 170 -> a3; a3 frees at 210 -> a4.
    assert granted == {0: 0, 1: 10, 2: 100, 3: 170, 4: 210}


def test_wait_histogram_and_peak():
    window, _ = run_window()
    hist = window.wait_hist
    # Waits: 0, 0, 100-20, 170-30, 210-40.
    assert hist.count == 5
    assert hist.sum == 0 + 0 + 80 + 140 + 170
    assert hist.min == 0
    assert hist.max == 170
    assert window.peak_occupancy == 2
    assert window.outstanding == 0


def test_immediate_grants_after_drain_record_zero_wait():
    sim = Simulator()
    window = MemoryWindow(sim, CpuConfig(max_outstanding_misses=2), name="w")

    def burst():
        for _ in range(3):
            yield window.acquire()
            yield Timeout(sim, 5)
            window.release()

    sim.process(burst(), name="burst")
    sim.run()
    assert window.wait_hist.count == 3
    assert window.wait_hist.sum == 0
    assert window.wait_hist.max == 0
    assert window.peak_occupancy == 1
