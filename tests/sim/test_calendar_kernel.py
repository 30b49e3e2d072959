"""Event-kernel checks on mixed near/far-future timelines.

The workloads here interleave events a few nanoseconds apart with
events microseconds away (the spread a bucketed calendar queue would
split between its ring and its spillover tier).  They pin same-time
FIFO dispatch and snapshot/restore bit-identity on such timelines.
"""

from repro.sim.core import Simulator


def _append(log, tag):
    """Module-level (picklable) event callback: record (now is implied)."""
    log.append(tag)


class TestDispatchEquivalence:
    def test_same_time_fifo_preserved(self):
        # Many events at one timestamp must dispatch in schedule order.
        sim = Simulator()
        log = []
        for i in range(100):
            sim.schedule(500, _append, log, i)
        sim.run()
        assert log == list(range(100))


class TestCalendarSnapshot:
    def _partial_run(self):
        sim = Simulator()
        log = []
        for i in range(12):
            # Mix near events (small times) and far-future ones (huge).
            sim.schedule(i * 1_000 + (5_000_000 if i % 3 == 0 else 0), _append, log, i)
        sim.run(until=4_500)
        return sim, log

    def test_restore_then_run_is_bit_identical(self):
        sim1, log1 = self._partial_run()
        blob = sim1.snapshot(roots={"log": log1})
        sim1.run()

        sim2 = Simulator()
        roots = sim2.restore(blob)
        sim2.run()
        assert roots["log"] == log1
        assert sim2.now == sim1.now
        assert sim2.events_processed == sim1.events_processed

    def test_post_restore_scheduling_continues_sequence(self):
        sim1, log1 = self._partial_run()
        blob = sim1.snapshot(roots={"log": log1})
        sim2 = Simulator()
        roots = sim2.restore(blob)
        sim2.schedule(0, _append, roots["log"], "late")
        sim2.run()
        assert "late" in roots["log"]
        # Zero-delay post-restore event fires before any pending future
        # event, exactly as in an uninterrupted run.
        assert roots["log"].index("late") == len(log1)
