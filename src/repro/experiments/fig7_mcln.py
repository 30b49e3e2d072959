"""Figure 7: memory contention at the lender node (MCLN).

A single STREAM instance on the borrower uses disaggregated memory
while N STREAM instances run *locally on the lender*, hammering the
same memory bus that serves remote requests.  The paper finds borrower
bandwidth "independent of the number of concurrent running instances"
because the network — not the lender memory bus — is the bottleneck
(100s of GB/s of bus vs 100 Gb/s of network).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import numpy as np

from repro.calibration import paper_cluster_config
from repro.engine.des import DesPhaseDriver, run_concurrent
from repro.engine.fluid import FluidEngine
from repro.engine.hybrid import HybridContention, mcln_background, solve_contention
from repro.engine.model import LENDER_BUS, PathModel
from repro.engine.phases import Location
from repro.experiments.base import ExperimentResult
from repro.node.cluster import ThymesisFlowSystem
from repro.perf import PointTask, SweepExecutor
from repro.workloads.stream import StreamConfig, StreamWorkload

__all__ = ["run"]

DEFAULT_COUNTS: tuple[int, ...] = (0, 2, 4, 8, 16)
#: Quick-mode lender load levels (hybrid offload makes the high end
#: cheap — the local hammers are fluid flows, not events).  One hammer
#: demands ~13.26 GB/s of the 230 GB/s lender bus, so the bus saturates
#: at ~17 hammers; every quick point beyond 0 is in saturation, outside
#: the paper's 0-16 regime that ``DEFAULT_COUNTS`` samples.
QUICK_COUNTS: tuple[int, ...] = (0, 32, 64, 96)
QUICK_ELEMENTS = 2_500

#: Outstanding accesses of one lender-local STREAM instance.  Local
#: STREAM is core-bound well below the node's aggregate bus bandwidth
#: (~13 GB/s per instance at the default DRAM timing), as on real
#: hardware where one process cannot saturate eight memory channels.
LENDER_LOCAL_CONCURRENCY = 10


def _mcln_point(
    n_local: int, period: int, stream: StreamConfig, mode: str, obs=None
) -> dict:
    """Borrower bandwidth at one lender load level (worker-runnable)."""
    config = paper_cluster_config(period=period)
    if mode == "des":
        return _run_des(config, stream, n_local, obs=obs)
    # The hammers are fluid flows on the lender bus, solved together
    # with the borrower's remote STREAM.
    model = PathModel.from_config(config)
    program = StreamWorkload(stream).program(Location.REMOTE)
    loads = mcln_background(
        model, _hammer_program(stream), n_local, LENDER_LOCAL_CONCURRENCY
    )
    if mode == "hybrid":
        system = ThymesisFlowSystem(config, obs=obs, obs_label=f"n_local={n_local}")
        system.attach_or_raise()
        start = system.sim.now
        contention = HybridContention(system, loads, foreground=program, start_ps=start)
        with contention:
            result = DesPhaseDriver(
                system, program, instance="w0", footprint_lines=1 << 14
            ).run_to_completion()
        if obs is not None:
            obs.finish_system(system)
        timeline, bw = contention.timeline, result.bandwidth_bytes_per_s
        served, end = system.lender.dram.bus.bytes_served, system.sim.now
    else:
        start = 0
        timeline = solve_contention(model, loads, program)
        run_result = FluidEngine(config).run(program, background=timeline)
        bw = run_result.bandwidth_bytes_per_s
        served, end = run_result.payload_bytes, run_result.duration_ps
    served += timeline.background_schedule(LENDER_BUS).integrate(start, end)
    return {"borrower_bw": bw, "lender_bus_util": _bus_util(served, end, model.bus_bytes_per_s)}


def run(
    mode: str = "des",
    lender_counts: Sequence[int] | None = None,
    stream: StreamConfig | None = None,
    period: int = 1,
    quick: bool = False,
    obs=None,
    workers: int = 1,
    cache=None,
    journal=None,
    supervisor=None,
) -> ExperimentResult:
    """Regenerate the Figure 7 series (borrower STREAM bandwidth).

    Lender load levels are independent runs; ``workers``/``cache`` fan
    them over the :mod:`repro.perf` sweep executor.  *obs* traces each
    lender load level as its own run (tracing forces inline, uncached
    execution — spans cannot cross processes or the result cache).
    ``quick`` shrinks the arrays and sweeps (0, 32, 64, 96) hammers.
    """
    if lender_counts is None:
        lender_counts = QUICK_COUNTS if quick else DEFAULT_COUNTS
    borrower_cfg = stream or StreamConfig(
        n_elements=QUICK_ELEMENTS if quick else 10_000
    )
    if obs is not None:
        outputs = [
            _mcln_point(n_local, period, borrower_cfg, mode, obs=obs)
            for n_local in lender_counts
        ]
    else:
        tasks = [
            PointTask(
                key=f"mcln/mode={mode}/period={period}/n_local={n_local}",
                fn=_mcln_point,
                kwargs={
                    "n_local": n_local,
                    "period": period,
                    "stream": borrower_cfg,
                    "mode": mode,
                },
            )
            for n_local in lender_counts
        ]
        outputs = SweepExecutor(
            workers=workers, cache=cache, journal=journal, supervisor=supervisor
        ).map(tasks)
    rows = []
    borrower_bw: list[float] = []
    for n_local, output in zip(lender_counts, outputs):
        bw = output["borrower_bw"]
        lender_bus_util = output["lender_bus_util"]
        borrower_bw.append(bw)
        rows.append((n_local, round(bw / 1e9, 3), round(lender_bus_util, 3)))
    series = np.asarray(borrower_bw)
    variation = float((series.max() - series.min()) / series.max())
    checks = {"borrower bandwidth flat across lender concurrency (<10%)": variation < 0.10}
    if 0 in lender_counts:
        # The zero-hammer row is the remote traffic alone.
        alone = outputs[list(lender_counts).index(0)]["lender_bus_util"]
        checks["lender bus never saturated by remote traffic alone"] = alone < 1.0
    return ExperimentResult(
        experiment="fig7",
        title="Contention for bandwidth at lender node (MCLN)",
        columns=("n_lender_instances", "borrower_GB_s", "lender_bus_util"),
        rows=rows,
        checks=checks,
        notes=(
            f"Borrower bandwidth varies {variation * 100:.1f}% across the sweep; "
            "network remains the bottleneck (bus is ~18x faster than the link)."
        ),
    )


def _hammer_program(borrower_cfg: StreamConfig):
    """One lender-local STREAM instance.

    Hammers get twice the borrower's work, so the borrower sees
    contention for its whole measurement.
    """
    local_cfg = replace(
        borrower_cfg,
        n_elements=borrower_cfg.n_elements * 2,
        concurrency=LENDER_LOCAL_CONCURRENCY,
    )
    return StreamWorkload(local_cfg).program(Location.LENDER_LOCAL)


def _bus_util(served_bytes: float, elapsed_ps: float, rate: float) -> float:
    """Mean lender-bus utilisation: bytes served against what the bus
    could have served over the whole run."""
    elapsed_s = elapsed_ps / 1e12
    return served_bytes / (rate * elapsed_s) if elapsed_s > 0 else 0.0


def _run_des(config, borrower_cfg: StreamConfig, n_local: int, obs=None) -> dict:
    system = ThymesisFlowSystem(config, obs=obs, obs_label=f"n_local={n_local}")
    system.attach_or_raise()
    remote_program = StreamWorkload(borrower_cfg).program(Location.REMOTE)
    local_programs = [_hammer_program(borrower_cfg) for _ in range(n_local)]
    results = run_concurrent(system, [remote_program, *local_programs])
    if obs is not None:
        obs.finish_system(system)
    bus = system.lender.dram.bus
    return {
        "borrower_bw": results[0].bandwidth_bytes_per_s,
        "lender_bus_util": _bus_util(bus.bytes_served, system.sim.now, bus.rate),
    }
