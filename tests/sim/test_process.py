"""Unit tests for generator-based processes and waitables."""

import gc

import pytest

from repro.errors import ProcessKilled, SimulationError
from repro.sim import AllOf, AnyOf, Signal, Simulator, Timeout


def run(sim, gen, **kw):
    proc = sim.process(gen, **kw)
    sim.run()
    return proc


def test_timeout_advances_clock():
    sim = Simulator()
    log = []

    def proc():
        yield Timeout(sim, 100)
        log.append(sim.now)
        yield Timeout(sim, 50)
        log.append(sim.now)

    run(sim, proc())
    assert log == [100, 150]


def test_process_return_value():
    sim = Simulator()

    def proc():
        yield Timeout(sim, 1)
        return 42

    p = run(sim, proc())
    assert p.value == 42
    assert not p.alive


def test_join_child_process_gets_result():
    sim = Simulator()

    def child():
        yield Timeout(sim, 30)
        return "done"

    def parent():
        result = yield sim.process(child())
        return (sim.now, result)

    p = run(sim, parent())
    assert p.value == (30, "done")


def test_signal_wakes_waiter_with_value():
    sim = Simulator()
    sig = Signal(sim)
    got = []

    def waiter():
        value = yield sig
        got.append((sim.now, value))

    def poker():
        yield Timeout(sim, 77)
        sig.trigger("hello")

    sim.process(waiter())
    sim.process(poker())
    sim.run()
    assert got == [(77, "hello")]


def test_yield_already_triggered_signal_resumes_immediately():
    sim = Simulator()
    sig = Signal(sim)
    sig.trigger("early")

    def proc():
        value = yield sig
        return (sim.now, value)

    p = run(sim, proc())
    assert p.value == (0, "early")


def test_signal_double_trigger_raises():
    sim = Simulator()
    sig = Signal(sim)
    sig.trigger(1)
    with pytest.raises(SimulationError):
        sig.trigger(2)


def test_process_exception_propagates_to_joiner():
    sim = Simulator()

    def child():
        yield Timeout(sim, 5)
        raise ValueError("boom")

    def parent():
        try:
            yield sim.process(child())
        except ValueError as exc:
            return f"caught {exc}"

    p = run(sim, parent())
    assert p.value == "caught boom"


def test_unhandled_process_exception_fails_waitable():
    sim = Simulator()

    def proc():
        yield Timeout(sim, 1)
        raise RuntimeError("bad")

    p = run(sim, proc())
    assert p.triggered and not p.ok
    with pytest.raises(RuntimeError):
        _ = p.value


def test_kill_raises_processkilled_inside():
    sim = Simulator()
    log = []

    def victim():
        try:
            yield Timeout(sim, 1000)
        except ProcessKilled:
            log.append(("killed", sim.now))
            raise

    def killer(victim_proc):
        yield Timeout(sim, 10)
        victim_proc.kill()

    vp = sim.process(victim())
    sim.process(killer(vp))
    sim.run()
    assert log == [("killed", 10)]
    assert not vp.alive and not vp.ok


def test_caught_kill_ignores_the_interrupted_wait():
    """A victim that survives a kill resumes for its new wait only."""
    sim = Simulator()
    log = []

    def victim():
        try:
            yield Timeout(sim, 100)
        except ProcessKilled:
            log.append(("killed", sim.now))
        yield Timeout(sim, 1000)
        log.append(("woke", sim.now))

    def killer(victim_proc):
        yield Timeout(sim, 10)
        victim_proc.kill()

    vp = sim.process(victim())
    sim.process(killer(vp))
    sim.run()
    assert log == [("killed", 10), ("woke", 1010)]
    assert vp.ok


def test_caught_kill_rewait_on_same_signal_resumes_once():
    sim = Simulator()
    sig = Signal(sim)
    log = []

    def victim():
        try:
            yield sig
        except ProcessKilled:
            log.append("killed")
        log.append(("got", (yield sig)))
        yield Timeout(sim, 5)
        log.append(("done", sim.now))

    def interrupter(victim_proc):
        yield Timeout(sim, 10)
        victim_proc.kill()
        yield Timeout(sim, 10)
        sig.trigger("v")

    vp = sim.process(victim())
    sim.process(interrupter(vp))
    sim.run()
    assert log == ["killed", ("got", "v"), ("done", 25)]
    assert vp.ok


def test_finished_process_drops_its_wake_callback():
    """A finished process references no bound method of itself, so it is
    freed by reference counting, not left for the cycle collector."""
    sim = Simulator()

    def proc():
        yield Timeout(sim, 1)

    p = run(sim, proc())
    assert not p.alive
    assert all(getattr(ref, "__self__", None) is not p for ref in gc.get_referents(p))


def test_kill_finished_process_is_noop():
    sim = Simulator()

    def proc():
        yield Timeout(sim, 1)

    p = run(sim, proc())
    p.kill()  # must not raise
    sim.run()
    assert p.ok


def test_yield_non_waitable_fails_process():
    sim = Simulator()

    def proc():
        yield 42

    p = run(sim, proc())
    assert not p.ok
    with pytest.raises(SimulationError):
        _ = p.value


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.process(lambda: None)


def test_anyof_returns_first_winner():
    sim = Simulator()

    def proc():
        first = yield AnyOf(sim, [Timeout(sim, 100, "slow"), Timeout(sim, 10, "fast")])
        return (sim.now, first)

    p = run(sim, proc())
    assert p.value == (10, (1, "fast"))


def test_anyof_empty_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        AnyOf(sim, [])


def test_allof_collects_in_order():
    sim = Simulator()

    def worker(delay, tag):
        yield Timeout(sim, delay)
        return tag

    def proc():
        procs = [sim.process(worker(d, t)) for d, t in [(30, "a"), (10, "b"), (20, "c")]]
        results = yield AllOf(sim, procs)
        return (sim.now, results)

    p = run(sim, proc())
    assert p.value == (30, ["a", "b", "c"])


def test_allof_empty_triggers_immediately():
    sim = Simulator()

    def proc():
        results = yield AllOf(sim, [])
        return results

    p = run(sim, proc())
    assert p.value == []


def test_allof_failure_propagates():
    sim = Simulator()

    def bad():
        yield Timeout(sim, 5)
        raise KeyError("nope")

    def proc():
        yield AllOf(sim, [sim.process(bad()), Timeout(sim, 100)])

    p = run(sim, proc())
    assert not p.ok


def test_timeout_cancel():
    sim = Simulator()
    t = Timeout(sim, 10)
    t.cancel()
    sim.run()
    assert not t.triggered


def test_negative_timeout_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Timeout(sim, -1)


def test_many_processes_interleave_deterministically():
    sim = Simulator()
    log = []

    def worker(idx):
        for step in range(3):
            yield Timeout(sim, 10)
            log.append((sim.now, idx, step))

    for i in range(4):
        sim.process(worker(i))
    sim.run()
    # All workers tick at the same times; within a tick, creation order.
    assert log == [(10 * (s + 1), i, s) for s in range(3) for i in range(4)]


def test_sim_timeout_helper():
    sim = Simulator()

    def proc():
        yield sim.timeout(25)
        return sim.now

    p = run(sim, proc())
    assert p.value == 25
