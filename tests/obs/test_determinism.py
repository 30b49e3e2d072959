"""Observability must never change simulated results.

Pins the PR's central invariant: fig2 at --quick settings produces
*identical* experiment rows with the full observability stack enabled
(tracing + metrics + profiling) and with it disabled; and two traced
runs export byte-identical artifacts (the wall-clock profiler's
readings never leak into them).

Also exercises the real-artifact acceptance path: the exported trace
validates against the Chrome schema, its per-stage spans tile each
request's end-to-end span, and the metrics JSONL round-trips.
"""

import json

import pytest

from repro.experiments.fig2_stream_latency import run as run_fig2
from repro.obs import Observability, load_metrics_jsonl, load_trace
from repro.obs.report import decomposition_check
from repro.obs.tracer import stage_sum_check


@pytest.fixture(scope="module")
def plain_result():
    return run_fig2(quick=True)


@pytest.fixture(scope="module")
def traced():
    obs = Observability(trace=True, metrics=True, profile=True)
    result = run_fig2(quick=True, obs=obs)
    return result, obs


@pytest.fixture(scope="module")
def traced_again():
    obs = Observability(trace=True, metrics=True, profile=False)
    result = run_fig2(quick=True, obs=obs)
    return result, obs


class TestDeterminism:
    def test_rows_identical_with_and_without_observability(self, plain_result, traced):
        result, _ = traced
        assert result.rows == plain_result.rows
        assert result.checks == plain_result.checks
        assert result.notes == plain_result.notes

    def test_trace_byte_identical_across_runs(self, tmp_path, traced, traced_again):
        # Profiling on vs. off and run-to-run repetition: the exported
        # trace must not change by a single byte.
        _, obs_a = traced
        _, obs_b = traced_again
        path_a = obs_a.write_trace(str(tmp_path / "a.json"))
        path_b = obs_b.write_trace(str(tmp_path / "b.json"))
        with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
            assert fa.read() == fb.read()

    def test_metrics_identical_across_runs(self, traced, traced_again):
        _, obs_a = traced
        _, obs_b = traced_again
        assert obs_a.timeline.rows == obs_b.timeline.rows
        assert obs_a.metrics.dump() == obs_b.metrics.dump()


class TestArtifacts:
    def test_stage_spans_tile_request_spans_exactly(self, traced):
        _, obs = traced
        tracer = obs.tracer
        assert len(tracer.requests) > 0
        assert stage_sum_check(tracer.spans, tracer.requests)

    def test_exported_trace_validates_and_decomposes(self, tmp_path, traced):
        _, obs = traced
        path = obs.write_trace(str(tmp_path / "run.trace.json"))
        trace = load_trace(path)  # schema validation happens here
        checked, mismatched = decomposition_check(trace)
        assert checked == len(obs.tracer.requests)
        assert mismatched == 0

    def test_injector_stall_column_is_a_mean_count(self, traced):
        # The gate-wait probe reports how many transactions wait at the
        # injector on average over a row; a saturated window queues
        # dozens at once, so its value is a count, not a fraction.
        _, obs = traced
        samples = [row for row in obs.timeline.rows if row["kind"] == "sample"]
        assert not any("injector_stall_frac" in row for row in samples)
        stalled = [row["injector_stalled_mean"] for row in samples]
        assert min(stalled) >= 0
        assert max(stalled) > 1

    def test_one_process_per_sweep_point(self, traced):
        result, obs = traced
        assert len(obs.tracer._processes) == len(result.rows)
        assert all("PERIOD=" in label for label in obs.tracer._processes)

    def test_metrics_jsonl_round_trip(self, tmp_path, traced):
        _, obs = traced
        path = obs.write_metrics(str(tmp_path / "m.jsonl"))
        rows, summary = load_metrics_jsonl(path)
        assert rows == json.loads(json.dumps(obs.timeline.rows))
        assert summary is not None
        assert "histograms" in summary
        assert summary["histograms"]["remote.latency_ps"]["count"] == len(
            obs.tracer.requests
        )

    def test_timeline_rows_monotone_within_each_run(self, traced):
        _, obs = traced
        by_run = {}
        for row in obs.timeline.rows:
            by_run.setdefault(row["run"], []).append(row["tick_ps"])
        assert by_run
        for ticks in by_run.values():
            assert ticks == sorted(ticks)

    def test_stat_summary_folded_into_gauges(self, traced):
        _, obs = traced
        gauges = obs.metrics.gauges
        assert any(key.startswith("stats.") for key in gauges)
        # Percentile keys from the upgraded StatRecorder.summary().
        assert any(key.endswith(".p99") for key in gauges)
