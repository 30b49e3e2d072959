"""Property-based invariants of the fluid engine's closed forms."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calibration import paper_cluster_config
from repro.engine import AccessPhase, FluidEngine, Location, PhaseProgram
from repro.engine.hybrid import mcbn_background, solve_contention

periods = st.integers(min_value=1, max_value=4096)
lines = st.integers(min_value=1, max_value=500_000)
concurrencies = st.integers(min_value=1, max_value=256)
fractions = st.floats(min_value=0.0, max_value=1.0)
thinks = st.integers(min_value=0, max_value=1_000_000)


def phase(n, c, wf=0.0, z=0, loc=Location.REMOTE):
    return AccessPhase("p", n_lines=n, concurrency=c, write_fraction=wf,
                       compute_ps_per_line=z, location=loc)


@settings(deadline=None, max_examples=60)
@given(p1=periods, p2=periods, n=lines, c=concurrencies, wf=fractions)
def test_duration_monotone_in_period(p1, p2, n, c, wf):
    """More injected delay never makes a remote phase faster."""
    lo, hi = sorted((p1, p2))
    d_lo = FluidEngine(paper_cluster_config(period=lo)).phase_duration_ps(phase(n, c, wf))
    d_hi = FluidEngine(paper_cluster_config(period=hi)).phase_duration_ps(phase(n, c, wf))
    assert d_hi >= d_lo - 1e-6


@settings(deadline=None, max_examples=60)
@given(p=periods, n=lines, c1=concurrencies, c2=concurrencies)
def test_duration_monotone_in_concurrency(p, n, c1, c2):
    """More memory-level parallelism never slows a phase down."""
    lo, hi = sorted((c1, c2))
    eng = FluidEngine(paper_cluster_config(period=p))
    assert eng.phase_duration_ps(phase(n, hi)) <= eng.phase_duration_ps(phase(n, lo)) + 1e-6


@settings(deadline=None, max_examples=60)
@given(p=periods, n=lines, c=concurrencies, z=thinks)
def test_duration_at_least_serial_lower_bounds(p, n, c, z):
    """Duration is bounded below by both the gate and the think time."""
    eng = FluidEngine(paper_cluster_config(period=p))
    d = eng.phase_duration_ps(phase(n, c, z=z))
    gate = eng.model.gate_interval
    assert d >= (n - 1) * gate  # one grant per PERIOD at best
    assert d >= eng.model.base_latency  # at least one round trip


@settings(deadline=None, max_examples=60)
@given(p=periods, n=lines, c=concurrencies, wf=fractions)
def test_sojourn_never_below_base_latency(p, n, c, wf):
    eng = FluidEngine(paper_cluster_config(period=p))
    assert eng.phase_sojourn_ps(phase(n, c, wf)) >= eng.model.base_latency - 1e-6


@settings(deadline=None, max_examples=40)
@given(p=periods, n=st.integers(min_value=256, max_value=500_000))
def test_saturated_bdp_invariant(p, n):
    """Bandwidth x sojourn == window x line whenever the window saturates."""
    eng = FluidEngine(paper_cluster_config(period=p))
    sojourn, bw, bdp = eng.sweep_remote_steady_state([p], concurrency=128)
    assert bdp[0] == pytest.approx(128 * 128, rel=1e-9)


@settings(deadline=None, max_examples=40)
@given(p=periods, n=lines, c=concurrencies)
def test_local_never_slower_than_remote(p, n, c):
    eng = FluidEngine(paper_cluster_config(period=p))
    remote = eng.phase_duration_ps(phase(n, c))
    local = eng.phase_duration_ps(phase(n, c, loc=Location.LOCAL))
    assert local <= remote + 1e-6


@settings(deadline=None, max_examples=40)
@given(p=periods, n=lines, c=concurrencies, shares=st.integers(min_value=1, max_value=16))
def test_contended_share_never_faster(p, n, c, shares):
    eng = FluidEngine(paper_cluster_config(period=p))
    program = PhaseProgram("w").add(phase(n, c))
    solo = eng.phase_duration_ps(phase(n, c))
    loads = mcbn_background(eng.model, program, shares - 1)
    timeline = solve_contention(eng.model, loads, program)
    contended = eng.run(program, background=timeline).duration_ps
    assert contended >= solo - 1e-6
