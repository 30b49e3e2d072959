"""Ablation: memory borrowing vs memory pooling (paper section V).

"If disaggregated memory is deployed with memory pools, results
presented in section IV-E could be significantly different ... the
bottleneck could shift from the network to the memory pool itself."

This ablation builds that comparison: N borrowers either (a) borrow
from N distinct lender nodes — each pair having its own link and a
huge lender bus — or (b) share one CPU-less memory pool whose internal
bandwidth is only a small multiple of one link.  Max-min allocation
(the fluid engine's contention solver) exposes the bottleneck shift:
per-borrower bandwidth stays flat under borrowing but collapses beyond
the pool's saturation point.
"""

import pytest

from repro.calibration import paper_cluster_config
from repro.engine import FluidEngine, TimedFlow, max_min_rates

#: Pool device bandwidth: 2x one link (a realistic early CXL pool),
#: versus the ~18x of a full lender node's memory bus.
POOL_BANDWIDTH_LINKS = 2.0


def _per_borrower_gbs(n_borrowers: int, pooled: bool) -> float:
    engine = FluidEngine(paper_cluster_config(period=1))
    model = engine.model
    link_rate = 1e12 / model.link_interval(0.5)  # lines/s per pair link
    demand = model.remote_throughput_lines_per_s(concurrency=128, write_fraction=0.5)
    capacities = {f"link{i}": link_rate for i in range(n_borrowers)}
    if pooled:
        capacities["pool"] = POOL_BANDWIDTH_LINKS * link_rate
        flows = [
            TimedFlow(f"b{i}", demand, None, {f"link{i}": 1.0, "pool": 1.0})
            for i in range(n_borrowers)
        ]
    else:
        # Borrowing: each pair has its own lender whose bus is far
        # faster than the link — never binding.
        for i in range(n_borrowers):
            capacities[f"lender_bus{i}"] = 1e12 / model.bus_interval
        flows = [
            TimedFlow(f"b{i}", demand, None, {f"link{i}": 1.0, f"lender_bus{i}": 1.0})
            for i in range(n_borrowers)
        ]
    alloc = max_min_rates(flows, capacities)
    lines_per_s = alloc["b0"]
    return lines_per_s * model.line_bytes / 1e9


def test_ablation_pooling_vs_borrowing(benchmark):
    counts = (1, 2, 4, 8)

    def run():
        return {
            n: {
                "borrowing_gbs": _per_borrower_gbs(n, pooled=False),
                "pooling_gbs": _per_borrower_gbs(n, pooled=True),
            }
            for n in counts
        }

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(f"{'n_borrowers':>12}{'borrowing_GB_s':>16}{'pooling_GB_s':>14}")
    for n, row in rows.items():
        print(f"{n:>12}{row['borrowing_gbs']:>16.3f}{row['pooling_gbs']:>14.3f}")
    benchmark.extra_info["rows"] = {str(k): v for k, v in rows.items()}

    borrowing = [rows[n]["borrowing_gbs"] for n in counts]
    pooling = [rows[n]["pooling_gbs"] for n in counts]
    # Borrowing: per-borrower bandwidth independent of scale (<2%).
    assert max(borrowing) - min(borrowing) < 0.02 * max(borrowing)
    # Pooling: identical until the pool saturates, then divides.
    assert pooling[0] == pytest.approx(borrowing[0], rel=0.01)
    assert pooling[-1] < 0.5 * pooling[0]
    # The crossover sits at the pool's capacity in links.
    assert pooling[1] == pytest.approx(pooling[0], rel=0.05)  # 2 <= pool capacity
    assert pooling[2] < 0.8 * pooling[0]  # 4 > pool capacity


def test_ablation_pooling_des(benchmark):
    """DES cross-check: the live pool fabric shows the same collapse.

    See :mod:`repro.experiments.ablations.pooling` (also runnable via
    ``python -m repro run ablation-pooling``).
    """
    from benchmarks.conftest import run_and_report
    from repro.experiments.ablations import pooling as pooling_ablation

    result = run_and_report(benchmark, pooling_ablation.run)
    benchmark.extra_info["des_rows"] = {str(row[0]): row[2] for row in result.rows}
