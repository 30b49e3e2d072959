"""Hybrid engine: DES equivalence and the timeline solver's laws.

The hybrid engine's contract has two halves: with zero background
flows it must be *byte-identical* to pure DES (the servers keep their
fast paths), and with background flows the discrete foreground must
land within a small tolerance of the bandwidth a full DES co-run
measures for one instance.
"""

import pytest

from repro.calibration import paper_cluster_config
from repro.engine.des import DesPhaseDriver, run_concurrent
from repro.engine.fluid import TimedFlow, solve_rate_timeline
from repro.engine.hybrid import (
    GATE,
    LENDER_BUS,
    LINK_FWD,
    HybridContention,
    mcbn_background,
    program_write_fraction,
    solve_contention,
)
from repro.engine.model import PathModel
from repro.engine.phases import Location
from repro.errors import ConfigError
from repro.node.cluster import ThymesisFlowSystem
from repro.workloads.stream import StreamConfig, StreamWorkload

STREAM = StreamConfig(n_elements=1_500)


def _des_corun(n):
    """Per-instance mean bandwidth of an n-way DES co-run."""
    system = ThymesisFlowSystem(paper_cluster_config(period=1))
    system.attach_or_raise()
    programs = [StreamWorkload(STREAM).program(Location.REMOTE) for _ in range(n)]
    results = run_concurrent(system, programs)
    return sum(r.bandwidth_bytes_per_s for r in results) / n


def _hybrid_point(n):
    """Discrete foreground bandwidth with n-1 fluid contenders."""
    config = paper_cluster_config(period=1)
    system = ThymesisFlowSystem(config)
    system.attach_or_raise()
    program = StreamWorkload(STREAM).program(Location.REMOTE)
    loads = mcbn_background(PathModel.from_config(config), program, n - 1)
    contention = HybridContention(
        system, loads, foreground=program, start_ps=system.sim.now
    )
    with contention:
        result = DesPhaseDriver(
            system, program, instance="w0", footprint_lines=1 << 14
        ).run_to_completion()
    return result, system, contention


class TestZeroBackgroundExactness:
    def test_zero_contenders_byte_identical_to_des(self):
        result, system, contention = _hybrid_point(1)
        assert contention.loads == ()

        ref_system = ThymesisFlowSystem(paper_cluster_config(period=1))
        ref_system.attach_or_raise()
        program = StreamWorkload(STREAM).program(Location.REMOTE)
        ref = DesPhaseDriver(
            ref_system, program, instance="w0", footprint_lines=1 << 14
        ).run_to_completion()

        assert result.bandwidth_bytes_per_s == ref.bandwidth_bytes_per_s
        assert system.sim.now == ref_system.sim.now
        assert system.sim.events_processed == ref_system.sim.events_processed

    def test_empty_schedules_keep_fast_path(self):
        _, system, _ = _hybrid_point(1)
        # uninstall() ran via the context manager; and with zero loads
        # even install() attaches nothing (empty schedules are falsy).
        assert system.lender.dram.bus.background is None
        assert system.link.forward.background is None


class TestContendedEquivalence:
    @pytest.mark.parametrize("n", (2, 4, 8))
    def test_foreground_matches_des_corun(self, n):
        des_per_instance = _des_corun(n)
        result, _, _ = _hybrid_point(n)
        rel = abs(result.bandwidth_bytes_per_s - des_per_instance) / des_per_instance
        assert rel < 0.10, (
            f"n={n}: hybrid foreground {result.bandwidth_bytes_per_s / 1e9:.3f} "
            f"GB/s vs DES per-instance {des_per_instance / 1e9:.3f} GB/s "
            f"({rel * 100:.1f}% off)"
        )

    def test_fluid_reads_the_same_solve(self):
        # --mode fluid evaluates its foreground against exactly the
        # timeline the hybrid engine installs on its servers.
        _, _, contention = _hybrid_point(4)
        program = StreamWorkload(STREAM).program(Location.REMOTE)
        timeline = solve_contention(
            contention.model, contention.loads, program, start_ps=contention.start_ps
        )
        assert timeline == contention.timeline


class TestTimelineSolver:
    CAPS = {GATE: 100.0, LINK_FWD: 1000.0, LENDER_BUS: 1000.0}

    def test_equal_flows_split_capacity(self):
        flows = [
            TimedFlow(f"f{i}", demand=100.0, volume=100.0, costs={GATE: 1.0})
            for i in range(4)
        ]
        timeline = solve_rate_timeline(flows, self.CAPS)
        # 4 saturating flows on a 100/s resource: 25/s each, done at 4 s.
        for i in range(4):
            assert timeline.finish_ps[f"f{i}"] == pytest.approx(4e12, rel=1e-6)

    def test_weights_bias_shares(self):
        flows = [
            TimedFlow("heavy", demand=100.0, volume=100.0, costs={GATE: 1.0}, weight=3.0),
            TimedFlow("light", demand=100.0, volume=100.0, costs={GATE: 1.0}, weight=1.0),
        ]
        timeline = solve_rate_timeline(flows, self.CAPS)
        # Weighted max-min: heavy runs at 75/s, light at 25/s; when
        # heavy finishes, light takes the whole resource.
        assert timeline.finish_ps["heavy"] == pytest.approx(100 / 75 * 1e12, rel=1e-6)
        assert timeline.finish_ps["heavy"] < timeline.finish_ps["light"]

    def test_background_schedule_conserves_volume(self):
        flows = [
            TimedFlow("fg", demand=60.0, volume=None, costs={GATE: 1.0}, background=False),
            TimedFlow(
                "bg", demand=100.0, volume=100.0, costs={GATE: 1.0}, background=True
            ),
        ]
        timeline = solve_rate_timeline(flows, self.CAPS)
        schedule = timeline.background_schedule(GATE)
        end = timeline.finish_ps["bg"]
        assert schedule.integrate(0, int(end) + 1) == pytest.approx(100.0, rel=1e-6)

    def test_open_ended_foreground_holds_share(self):
        # The foreground never finishes in the solve: after the
        # background drains, the gate's background rate must drop to 0
        # (the discrete side gets the whole machine back).
        flows = [
            TimedFlow("fg", demand=100.0, volume=None, costs={GATE: 1.0}, background=False),
            TimedFlow(
                "bg", demand=100.0, volume=50.0, costs={GATE: 1.0}, background=True
            ),
        ]
        timeline = solve_rate_timeline(flows, self.CAPS)
        schedule = timeline.background_schedule(GATE)
        end = int(timeline.finish_ps["bg"])
        assert schedule.rate_at(end - 1) > 0.0
        assert schedule.rate_at(end + 1) == 0.0

    def test_starved_flow_rejected(self):
        # A finite-volume flow behind a resource with no capacity can
        # never drain; the solver must refuse rather than loop forever.
        with pytest.raises(ConfigError):
            solve_rate_timeline(
                [TimedFlow("bg", demand=1.0, volume=1.0, costs={GATE: 1.0})],
                {GATE: 0.0},
            )

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigError):
            solve_rate_timeline(
                [
                    TimedFlow("x", demand=1.0, volume=1.0, costs={GATE: 1.0}),
                    TimedFlow("x", demand=1.0, volume=1.0, costs={GATE: 1.0}),
                ],
                self.CAPS,
            )

    def test_program_write_fraction_line_weighted(self):
        from repro.engine.phases import AccessPhase, PhaseProgram

        program = PhaseProgram("w")
        program.add(AccessPhase("a", n_lines=100, concurrency=8, write_fraction=1.0))
        program.add(AccessPhase("b", n_lines=300, concurrency=8, write_fraction=0.0))
        assert program_write_fraction(program) == pytest.approx(0.25)
