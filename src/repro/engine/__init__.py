"""Execution engines.

Two engines evaluate workload *phase programs* against a testbed
configuration, and are cross-validated against each other in the test
suite:

:mod:`repro.engine.des`
    Request-level discrete-event execution on a live
    :class:`~repro.node.cluster.ThymesisFlowSystem` — exact FIFO
    queueing, per-request latency samples.
:mod:`repro.engine.fluid`
    Closed-form bottleneck / Little's-law solver, vectorized with
    NumPy — used for wide PERIOD sweeps and the very large Table I
    operating points.
"""

from repro.engine.des import DesPhaseDriver, InstanceResult, run_concurrent
from repro.engine.fluid import FluidEngine, TimedFlow, max_min_rates
from repro.engine.model import PathModel
from repro.engine.phases import AccessPhase, Location, PhaseProgram

__all__ = [
    "AccessPhase",
    "Location",
    "PhaseProgram",
    "PathModel",
    "FluidEngine",
    "TimedFlow",
    "max_min_rates",
    "DesPhaseDriver",
    "InstanceResult",
    "run_concurrent",
]
