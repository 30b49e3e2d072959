"""One simulated server node: DRAM, region map, miss window."""

from __future__ import annotations

from repro.config import NodeConfig
from repro.mem.address import AddressRegion, RegionKind, RegionMap
from repro.mem.dram import DramModule
from repro.node.cpu import MemoryWindow
from repro.sim import Simulator

__all__ = ["Node"]


class Node:
    """A server node participating in disaggregation.

    Composes the per-node hardware: local DRAM behind its shared bus, a
    physical region map (local DRAM plus any hot-plugged remote
    window), and the CPU's outstanding-miss window.
    """

    def __init__(self, sim: Simulator, config: NodeConfig) -> None:
        self.sim = sim
        self.config = config
        self.name = config.name
        #: Stat key of this node's local-access counter (built once,
        #: not per access).
        self.local_transactions_key = f"{config.name}.local.transactions"
        self.dram = DramModule(config.dram, name=f"{config.name}.dram")
        self.window = MemoryWindow(sim, config.cpu, name=f"{config.name}.mshr")
        self.regions = RegionMap(
            [
                AddressRegion(
                    base=0,
                    size=config.dram.capacity_bytes,
                    kind=RegionKind.LOCAL,
                    name=f"{config.name}.dram",
                )
            ]
        )

    def add_remote_region(self, base: int, size: int, name: str = "remote") -> AddressRegion:
        """Hot-plug a remote window into the physical address map."""
        region = AddressRegion(base=base, size=size, kind=RegionKind.REMOTE, name=name)
        self.regions.add(region)
        return region

    @property
    def line_bytes(self) -> int:
        """Cache-line (transaction) size of this node."""
        return self.config.cache.line_bytes
