"""Unit tests for the STREAM workload model."""

import pytest

from repro.calibration import paper_cluster_config
from repro.engine import FluidEngine, Location
from repro.errors import WorkloadError
from repro.workloads.stream import (
    STREAM_KERNELS,
    StreamConfig,
    StreamWorkload,
    stream_instances,
)


class TestKernelDefinitions:
    """Pin the exact per-iteration traffic the paper describes (IV-A)."""

    def kernel(self, name):
        return next(k for k in STREAM_KERNELS if k.name == name)

    def test_copy(self):
        k = self.kernel("copy")
        assert (k.bytes_per_iter, k.reads_per_iter, k.writes_per_iter, k.flops_per_iter) == (
            16, 1, 1, 0,
        )

    def test_scale(self):
        k = self.kernel("scale")
        assert (k.bytes_per_iter, k.flops_per_iter) == (16, 1)

    def test_add(self):
        k = self.kernel("add")
        assert (k.bytes_per_iter, k.reads_per_iter, k.writes_per_iter, k.flops_per_iter) == (
            24, 2, 1, 1,
        )

    def test_triad(self):
        k = self.kernel("triad")
        assert (k.bytes_per_iter, k.flops_per_iter) == (24, 2)

    def test_kernel_order(self):
        assert [k.name for k in STREAM_KERNELS] == ["copy", "scale", "add", "triad"]

    def test_write_fractions(self):
        assert self.kernel("copy").write_fraction == 0.5
        assert self.kernel("add").write_fraction == pytest.approx(1 / 3)


class TestStreamConfig:
    def test_geometry(self):
        cfg = StreamConfig(n_elements=16_000)
        assert cfg.elements_per_line == 16
        assert cfg.lines_per_array == 1000
        assert cfg.array_bytes == 128_000
        assert cfg.total_footprint_bytes == 3 * 128_000

    def test_partial_last_line_rounds_up(self):
        assert StreamConfig(n_elements=17).lines_per_array == 2

    def test_paper_configuration_exceeds_cache(self):
        """The paper's 10M-element config needs 0.2+ GiB, beyond 120 MiB."""
        cfg = StreamConfig(n_elements=10_000_000)
        assert cfg.total_footprint_bytes > 120 * 1024 * 1024

    @pytest.mark.parametrize("kwargs", [{"n_elements": 0}, {"reps": 0}, {"line_bytes": 100}])
    def test_validation(self, kwargs):
        with pytest.raises(WorkloadError):
            StreamConfig(**kwargs)


class TestStreamWorkload:
    def test_program_has_four_kernels(self):
        prog = StreamWorkload(StreamConfig(n_elements=1600)).program()
        assert [p.name for p in prog] == ["copy", "scale", "add", "triad"]

    def test_line_counts_match_traffic(self):
        cfg = StreamConfig(n_elements=1600)  # 100 lines/array
        prog = StreamWorkload(cfg).program()
        by_name = {p.name: p for p in prog}
        assert by_name["copy"].n_lines == 200  # 1R + 1W
        assert by_name["add"].n_lines == 300  # 2R + 1W

    def test_kernel_programs_split(self):
        progs = StreamWorkload(StreamConfig(n_elements=1600)).kernel_programs()
        assert set(progs) == {"copy", "scale", "add", "triad"}
        assert all(len(p) == 1 for p in progs.values())

    def test_metric_is_aggregate_bandwidth(self):
        w = StreamWorkload(StreamConfig(n_elements=1000))
        total_bytes = (16 + 16 + 24 + 24) * 1000
        assert w.metric_from_duration(1e12) == pytest.approx(total_bytes)

    def test_traffic_bytes(self):
        w = StreamWorkload(StreamConfig(n_elements=1000, reps=2))
        copy = next(k for k in STREAM_KERNELS if k.name == "copy")
        assert w.kernel_traffic_bytes(copy) == 16 * 1000 * 2

    def test_fluid_run_local_vs_remote(self):
        w = StreamWorkload(StreamConfig(n_elements=16_000))
        eng = FluidEngine(paper_cluster_config(period=1))
        remote = w.run_fluid(eng, Location.REMOTE)
        local = w.run_fluid(eng, Location.LOCAL)
        assert local.duration_ps < remote.duration_ps
        assert remote.metric_value < local.metric_value  # bandwidth

    def test_instances_helper(self):
        assert len(stream_instances(5)) == 5
