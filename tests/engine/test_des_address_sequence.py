"""The DES phase driver's address and write-mix sequence.

Every issued access's ``(addr, write)`` is recorded and compared with
a reference written here from the driver's documented contract:

* line ``i`` of instance ``k`` touches slot ``i % footprint_lines`` of
  the instance's window, ``(k * footprint_lines + slot) * line_bytes``;
* remote addresses wrap into the remote region,
  ``base + offset % remote_region_bytes``; local ones start at 0;
* writes follow a Bresenham accumulator over ``write_fraction``,
  reset at the start of every phase execution.
"""

from dataclasses import replace

from repro.calibration import paper_cluster_config
from repro.engine import AccessPhase, DesPhaseDriver, Location, PhaseProgram
from repro.node.cluster import ThymesisFlowSystem


def reference(system, phase, footprint_lines, instance_index):
    line = system.line_bytes
    cfg = system.config
    out = []
    acc = 0.0
    for i in range(phase.n_lines):
        acc += phase.write_fraction
        write = acc >= 1.0
        if write:
            acc -= 1.0
        offset = (instance_index * footprint_lines + i % footprint_lines) * line
        if phase.location is Location.REMOTE:
            addr = cfg.remote_region_base + offset % cfg.remote_region_bytes
        else:
            addr = offset
        out.append((addr, write))
    return out * phase.repeats


def recorded_run(system, phase, footprint_lines, instance_index):
    """Run *phase* on *system*; returns the (addr, write) issue sequence."""
    issued = []
    remote = system.remote_access
    local = system.local_access

    def remote_access(addr, write=False, traffic_class=None):
        issued.append((addr, write))
        return (yield from remote(addr, write=write, traffic_class=traffic_class))

    def local_access(node, addr, write=False):
        issued.append((addr, write))
        expected = system.lender if phase.location is Location.LENDER_LOCAL else system.borrower
        assert node is expected
        return (yield from local(node, addr, write=write))

    system.remote_access = remote_access
    system.local_access = local_access
    driver = DesPhaseDriver(
        system,
        PhaseProgram("w").add(phase),
        footprint_lines=footprint_lines,
        instance_index=instance_index,
    )
    result = driver.run_to_completion()
    assert result.lines == phase.n_lines * phase.repeats
    return issued


def attached(**config):
    system = ThymesisFlowSystem(replace(paper_cluster_config(period=1), **config))
    system.attach_or_raise()
    return system


def test_remote_footprint_wraps():
    system = attached()
    phase = AccessPhase("p", n_lines=70, concurrency=4, write_fraction=0.5)
    issued = recorded_run(system, phase, footprint_lines=16, instance_index=1)
    assert issued == reference(system, phase, 16, 1)
    assert len({addr for addr, _ in issued}) == 16


def test_remote_region_smaller_than_footprint():
    system = attached(remote_region_bytes=40 * 128)
    phase = AccessPhase("p", n_lines=120, concurrency=8, write_fraction=0.25, repeats=2)
    issued = recorded_run(system, phase, footprint_lines=1 << 10, instance_index=3)
    assert issued == reference(system, phase, 1 << 10, 3)
    base = system.config.remote_region_base
    assert all(base <= addr < base + 40 * 128 for addr, _ in issued)


def test_lender_local_third_writes():
    system = attached()
    phase = AccessPhase(
        "lend", n_lines=61, concurrency=5, write_fraction=1 / 3,
        location=Location.LENDER_LOCAL,
    )
    issued = recorded_run(system, phase, footprint_lines=32, instance_index=2)
    assert issued == reference(system, phase, 32, 2)
    # The float accumulator makes every third line a write, starting
    # at the third (1/3 + 1/3 + 1/3 reaches 1.0 exactly).
    assert [w for _, w in issued] == [i % 3 == 2 for i in range(61)]
