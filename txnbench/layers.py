"""Per-layer host-cost tracer for the traced benchmark run.

The tracer wraps the public entry point of each simulator layer from
outside the package (class attributes are swapped for timing wrappers
while the tracer is installed, and restored after) and installs a
``Simulator.set_observer`` dispatch timer.  Nothing inside ``src/`` is
changed or instrumented.

Accounting is by a self-time stack, so a nested call
(``DramModule.access`` -> ``BandwidthServer.reserve``) is charged to
the inner layer and subtracted from the outer one:

* every event callback is a root frame; the part of it not inside any
  wrapped layer is charged to ``sim.process`` (process resume
  machinery plus the driver and datapath generator bodies), as is a
  ``Waitable.trigger`` called from inside another layer;
* a layer's self time is its frames' time minus their wrapped children,
  so the self times add up to the root frames' time;
* ``sim.kernel`` is timed on its own, as the gaps inside
  :meth:`LayerTracer.run` between one callback and the next (plus run
  entry and exit): the dispatch loop itself.

The kernel gaps and the root frames are separate intervals, so with
the harness's own bookkeeping they must add up to the round's run time
as the harness measures it; ``bench.check_layer_accounting`` checks
that, and a frame counted twice would show as an excess.
Frames are timed with ``time.perf_counter_ns`` (a vDSO read, ~90 ns,
against ~450 ns for the CPU-time clock, whose cost would dominate the
cheapest layers); the report scales the self times by the traced run's
CPU/wall ratio.
"""

from __future__ import annotations

import time
import types
from collections import Counter
from typing import Dict, List, Optional, Tuple

import repro.engine.hybrid as hybrid_module
from repro.core.delay.injector import DelayInjector
from repro.core.overload.control import OverloadControl
from repro.engine.hybrid import HybridContention
from repro.mem.bus import BandwidthServer
from repro.mem.dram import DramModule
from repro.net.faults import FaultModel, FaultyChannel
from repro.net.link import SimplexChannel
from repro.nic.transport import LenderIngress, ReliableTransport, RetransmitBuffer
from repro.nic.translation import WindowTranslator
from repro.node.cpu import MemoryWindow
from repro.sim import RateSchedule, Resource, Simulator, StatRecorder
from repro.sim.process import Waitable

__all__ = ["LAYERS", "LayerTracer"]

#: Layers in report order.  ``sim.kernel`` and ``sim.process`` come from
#: the observer; the rest from wrapped entry points (see ``_targets``).
LAYERS = (
    "sim.kernel",
    "sim.process",
    "sim.trace",
    "node.window",
    "core.delay",
    "net.link",
    "mem.bus",
    "mem.dram",
    "nic.translation",
    "nic.transport",
    "net.faults",
    "core.overload",
    "engine.hybrid",
)


def _public(cls, names: Optional[Tuple[str, ...]] = None) -> List[Tuple[object, str]]:
    """(cls, name) for *names*, or for every public plain method of *cls*."""
    if names is None:
        names = tuple(
            n
            for n, v in vars(cls).items()
            if not n.startswith("_") and isinstance(v, types.FunctionType)
        )
    return [(cls, n) for n in names]


def _targets() -> Dict[str, List[Tuple[object, str]]]:
    """layer -> (owner, attribute) pairs whose calls are charged to it."""
    return {
        # A trigger resumes waiting processes synchronously (a window
        # release runs the next transaction's generator up to its first
        # yield): that work is process machinery, not the caller's layer.
        "sim.process": _public(Waitable, ("trigger", "fail")),
        "sim.trace": _public(StatRecorder, ("sample", "count")),
        "node.window": _public(MemoryWindow, ("acquire", "release"))
        + _public(Resource, ("acquire", "release")),
        "core.delay": _public(DelayInjector, ("admit",)),
        "net.link": _public(SimplexChannel, ("transmit",)),
        # Link directions serialize through a BandwidthServer too; those
        # calls are not framed (only buses passed to watch_dram are) and
        # stay in net.link.
        "mem.bus": _public(BandwidthServer, ("reserve",)),
        "mem.dram": _public(DramModule, ("access",)),
        "nic.translation": _public(WindowTranslator, ("translate",)),
        "nic.transport": _public(ReliableTransport)
        + _public(LenderIngress, ("verify", "accept"))
        + _public(RetransmitBuffer),
        "net.faults": _public(FaultModel, ("apply",))
        + _public(FaultyChannel, ("transmit_packet",)),
        "core.overload": _public(
            OverloadControl,
            (
                "deadline_for",
                "note_first_attempt",
                "charge_retry",
                "admit",
                "record_shed",
                "record_outcome",
            ),
        ),
        "engine.hybrid": _public(HybridContention, ("__enter__", "__exit__"))
        + _public(RateSchedule, ("finish_time", "rate_at"))
        + [(hybrid_module, "solve_rate_timeline")],
    }


class LayerTracer:
    """Self-time stack over wrapped layer entry points.

    Use as a context manager around the traced part of the run; install
    it with ``Simulator.set_observer`` on the simulator whose dispatch is
    to be timed, and :meth:`harvest` to take (and reset) the counts.
    """

    def __init__(self) -> None:
        # Each frame is [layer, child_ns]; the bottom frame is a callback.
        self._stack: List[list] = []
        self._saved: List[Tuple[object, str, object]] = []
        # id -> bus; holding the buses keeps their ids from being reused.
        self.dram_buses: Dict[int, BandwidthServer] = {}
        # End of the last interval timed inside run(): the next kernel
        # gap starts there.
        self._mark = 0
        self._reset()

    def _reset(self) -> None:
        #: "self_ns:<layer>" and "calls:<layer>" per layer, plus "root_ns"
        #: (time inside root frames), "kernel_ns" (gaps between callbacks
        #: inside run()), "callbacks", "spawns" and
        #: "bus_queue_ps" (simulated wait at the DRAM buses).
        self.counts: Counter = Counter()

    # ------------------------------------------------------------------
    # Install / remove
    # ------------------------------------------------------------------
    def __enter__(self) -> "LayerTracer":
        for layer, pairs in _targets().items():
            for owner, name in pairs:
                original = getattr(owner, name)
                self._saved.append((owner, name, original))
                setattr(owner, name, self._wrap(layer, original, name))
        original_process = Simulator.process
        self._saved.append((Simulator, "process", original_process))

        def process(sim, generator, name=""):
            self.counts["spawns"] += 1
            return original_process(sim, generator, name)

        Simulator.process = process
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def watch_dram(self, *buses: BandwidthServer) -> None:
        """Charge reservations on *buses* (only) to ``mem.bus``.

        Replaces the previous set: call once per freshly built world.
        """
        self.dram_buses = {id(bus): bus for bus in buses}

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------
    def _wrap(self, layer: str, fn, name: str):
        clock = time.perf_counter_ns
        stack = self._stack
        tracer = self
        dram_only = layer == "mem.bus"
        self_key, calls_key = f"self_ns:{layer}", f"calls:{layer}"

        def wrapper(*args, **kwargs):
            if dram_only and id(args[0]) not in tracer.dram_buses:
                return fn(*args, **kwargs)
            # Same-layer nesting (MemoryWindow.acquire -> Resource.acquire)
            # is one call of the layer, timed once.
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            counts = tracer.counts
            counts[calls_key] += 1
            frame = [layer, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                counts[self_key] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                else:
                    counts["root_ns"] += elapsed
            if dram_only:
                counts["bus_queue_ps"] += result[0] - args[2]
            return result

        wrapper.__name__ = name
        return wrapper

    def run(self, sim: Simulator, until: int) -> None:
        """``sim.run(until=until)``, timing the kernel between callbacks."""
        self._mark = time.perf_counter_ns()
        try:
            sim.run(until=until)
        finally:
            self.counts["kernel_ns"] += time.perf_counter_ns() - self._mark

    def on_event(self, sim: Simulator, handle) -> None:
        """Observer hook: run one callback as a ``sim.process`` root frame."""
        counts = self.counts
        counts["callbacks"] += 1
        frame = ["sim.process", 0]
        stack = self._stack
        stack.append(frame)
        start = time.perf_counter_ns()
        counts["kernel_ns"] += start - self._mark
        try:
            handle.callback(*handle.args)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            counts["self_ns:sim.process"] += end - start - frame[1]
            counts["root_ns"] += end - start
            self._mark = end

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def harvest(self) -> Counter:
        """Take the counts accumulated since the last harvest."""
        counts = self.counts
        self._reset()
        return counts
