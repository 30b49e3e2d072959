"""Generator-based simulated processes and waitables.

A *process* is a Python generator driven by the kernel.  Each ``yield``
hands the kernel a :class:`Waitable`; the process resumes (with the
waitable's value sent back in) once the waitable triggers.

Waitables
---------
:class:`Signal`
    One-shot event triggered explicitly by other code.
:class:`Timeout`
    Triggers after a fixed simulated delay.
:class:`Process`
    Itself a waitable — yielding a process joins it and receives its
    return value.
:class:`AnyOf` / :class:`AllOf`
    Combinators over several waitables.

Failure propagation: calling :meth:`Waitable.fail` (or a process raising)
re-raises the exception inside every waiter, at the waiter's next resume
point.  :meth:`Process.kill` throws :class:`~repro.errors.ProcessKilled`
into the generator.

Resuming
--------
A pending waitable wakes its process directly: a fired :class:`Timeout`
(or a ``trigger``) calls the process's wake-up callback, which sends the
value into the generator — no intermediate dispatch frames.  When a
process yields a waitable that has *already* triggered (a pre-set
:class:`Signal`, an uncontended ``Resource.acquire``), the process does
not register a callback; it loops, sending that value straight back in.
A run of any length of ready waitables therefore costs no stack depth.

Stale wakes: a process only ever resumes for the waitable it is
currently waiting on.  A process that catches
:class:`~repro.errors.ProcessKilled` and waits again is not woken by the
waitable it was killed out of when that one triggers later.
"""

from __future__ import annotations

from typing import Any, Generator, Iterable, Optional

from repro.errors import ProcessKilled, SimulationError
from repro.sim.core import Simulator
from repro.units import Duration

__all__ = ["Waitable", "Signal", "Timeout", "Process", "AnyOf", "AllOf"]

_PENDING = object()


class Waitable:
    """Base class: something a process can ``yield`` on.

    A waitable triggers at most once, with either a value or an
    exception; all registered callbacks then fire in registration order.
    """

    __slots__ = ("sim", "_value", "_exc", "_callbacks")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._value: Any = _PENDING
        self._exc: Optional[BaseException] = None
        self._callbacks: list[Any] = []

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the waitable has a value or an exception."""
        return self._value is not _PENDING or self._exc is not None

    @property
    def ok(self) -> bool:
        """True if triggered successfully (no exception)."""
        return self._value is not _PENDING and self._exc is None

    @property
    def value(self) -> Any:
        """The trigger value; raises if not yet triggered or failed."""
        if self._exc is not None:
            raise self._exc
        if self._value is _PENDING:
            raise SimulationError("waitable has not triggered yet")
        return self._value

    # -- triggering ------------------------------------------------------
    def trigger(self, value: Any = None) -> None:
        """Complete successfully with *value* and wake all waiters."""
        # _dispatch, inlined: a trigger wakes a process on every grant.
        if self._value is not _PENDING or self._exc is not None:
            raise SimulationError(f"{self!r} triggered twice")
        self._value = value
        callbacks = self._callbacks
        if callbacks:
            self._callbacks = []
            for cb in callbacks:
                cb(self)

    def fail(self, exc: BaseException) -> None:
        """Complete exceptionally; waiters see *exc* re-raised."""
        if self.triggered:
            raise SimulationError(f"{self!r} triggered twice")
        self._exc = exc
        self._dispatch()

    def _dispatch(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            cb(self)

    # -- waiting ----------------------------------------------------------
    def add_callback(self, callback: Any) -> None:
        """Invoke *callback(self)* when triggered (immediately if already)."""
        if self.triggered:
            callback(self)
        else:
            self._callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self.triggered else "pending"
        return f"{type(self).__name__}({state})"


class Signal(Waitable):
    """A one-shot event triggered explicitly by simulation code."""

    __slots__ = ()


class Timeout(Waitable):
    """Triggers ``delay`` picoseconds after creation."""

    __slots__ = ("delay", "_handle")

    def __init__(self, sim: Simulator, delay: Duration, value: Any = None) -> None:
        # Waitable.__init__, inlined: a Timeout is built per timed wait.
        self.sim = sim
        self._value = _PENDING
        self._exc = None
        self._callbacks = []
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay}")
        self.delay = delay
        self._handle = sim.schedule(delay, self._fire, value)

    def _fire(self, value: Any) -> None:
        # Release the handle before triggering so the kernel can recycle
        # it (the free list only reuses handles nobody references).
        self._handle = None
        # Waitable.trigger, inlined: this runs once per timed event.
        if self._value is not _PENDING or self._exc is not None:
            raise SimulationError(f"{self!r} triggered twice")
        self._value = value
        callbacks = self._callbacks
        if callbacks:
            self._callbacks = []
            for cb in callbacks:
                cb(self)

    def cancel(self) -> None:
        """Cancel the pending timeout (no effect if already fired)."""
        if self._handle is not None and not self.triggered:
            self._handle.cancel()


class Process(Waitable):
    """A running simulated process wrapping a generator.

    The process starts immediately (its first segment runs via an event
    scheduled at the current time).  Yield values must be
    :class:`Waitable` instances.  The generator's ``return`` value
    becomes the process's trigger value, so ``result = yield child``
    both joins *child* and fetches its result.
    """

    __slots__ = ("name", "_gen", "_current", "_wake")

    def __init__(
        self, sim: Simulator, generator: Generator[Waitable, Any, Any], name: str = ""
    ) -> None:
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"Process requires a generator, got {type(generator).__name__}"
            )
        self.name = name or getattr(generator, "__name__", "process")
        self._gen = generator
        self._current: Optional[Waitable] = None
        # Bound once, registered on every waitable the process waits on,
        # and None once the process has ended: dropping it then breaks
        # the process -> bound method -> process cycle, so a finished
        # process is freed by reference counting.
        self._wake: Optional[Any] = self._on_child
        sim.schedule(0, self._resume, None, None)

    # -- lifecycle --------------------------------------------------------
    @property
    def alive(self) -> bool:
        """True while the generator has not finished."""
        return self._wake is not None

    def kill(self, reason: str = "killed") -> None:
        """Throw :class:`ProcessKilled` into the process at once."""
        if self._wake is None:
            return
        self.sim.schedule(0, self._resume, None, ProcessKilled(reason))

    # -- kernel plumbing ---------------------------------------------------
    def _on_child(self, child: Waitable) -> None:
        # Only the waitable the process is waiting on may wake it; any
        # other (one it was killed out of, or any wake after it ended,
        # when _current is None) is stale.
        if child is not self._current:
            return
        exc = child._exc
        if exc is not None:
            self._resume(None, exc)
        else:
            self._resume(child._value, None)

    def _resume(self, value: Any, exc: Optional[BaseException]) -> None:
        if self._wake is None:
            return
        gen = self._gen
        while True:
            self._current = None
            try:
                if exc is not None:
                    target = gen.throw(exc)
                else:
                    target = gen.send(value)
            except StopIteration as stop:
                self._wake = None
                self.trigger(stop.value)
                return
            except ProcessKilled as killed:
                self._wake = None
                self.fail(killed)
                return
            except Exception as err:
                self._wake = None
                self.fail(err)
                return
            if not isinstance(target, Waitable):
                self._wake = None
                bad = SimulationError(
                    f"process {self.name!r} yielded {target!r}; expected a Waitable"
                )
                self.fail(bad)
                return
            # A pending target wakes us later; a triggered one is
            # consumed right here, by looping instead of recursing.
            exc = target._exc
            if exc is None:
                value = target._value
                if value is _PENDING:
                    self._current = target
                    target._callbacks.append(self._wake)
                    return


class AnyOf(Waitable):
    """Triggers when the first of *waitables* triggers.

    The value is a ``(index, value)`` pair identifying the winner.  A
    failing child fails the combinator.
    """

    __slots__ = ("_done",)

    def __init__(self, sim: Simulator, waitables: Iterable[Waitable]) -> None:
        super().__init__(sim)
        self._done = False
        children = list(waitables)
        if not children:
            raise SimulationError("AnyOf requires at least one waitable")
        for idx, child in enumerate(children):
            child.add_callback(self._make_cb(idx))

    def _make_cb(self, idx: int) -> Any:
        def cb(child: Waitable) -> None:
            if self._done:
                return
            self._done = True
            if child._exc is not None:
                self.fail(child._exc)
            else:
                self.trigger((idx, child._value))

        return cb


class AllOf(Waitable):
    """Triggers when every one of *waitables* has triggered.

    The value is the list of child values in input order.
    """

    __slots__ = ("_remaining", "_values", "_failed")

    def __init__(self, sim: Simulator, waitables: Iterable[Waitable]) -> None:
        super().__init__(sim)
        children = list(waitables)
        self._remaining = len(children)
        self._values: list[Any] = [None] * len(children)
        self._failed = False
        if not children:
            self.trigger([])
            return
        for idx, child in enumerate(children):
            child.add_callback(self._make_cb(idx))

    def _make_cb(self, idx: int) -> Any:
        def cb(child: Waitable) -> None:
            if self._failed:
                return
            if child._exc is not None:
                self._failed = True
                self.fail(child._exc)
                return
            self._values[idx] = child._value
            self._remaining -= 1
            if self._remaining == 0:
                self.trigger(self._values)

        return cb
