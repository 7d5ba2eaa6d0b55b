"""The SCC's four memory controllers: private-DRAM contention.

The chip's off-die DRAM hangs off four memory controllers at the mesh
edges; each core's private memory lives behind the controller of its
quadrant (the default sccKit configuration distributes the 48 Linux
instances "over four memory controllers", paper §2.1).

Uncontended timing is unchanged from the per-line latency model that
the throughput calibration rests on — a single core is bound by its own
P54C access rate, far below a controller's bandwidth. What this module
adds is the *shared* resource: each controller sustains roughly four
cores' worth of streaming demand, so when many cores of one quadrant
stream private memory simultaneously (NPB-style compute phases), they
queue FIFO and slow down — the behaviour a fixed per-core latency
cannot express.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.resources import Link

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator

    from .params import SCCParams

__all__ = ["MemoryControllers"]

#: Streaming demand multiple one controller sustains (≈ 4 cores' worth).
CORES_WORTH_OF_BANDWIDTH = 4.0


class MemoryControllers:
    """Four quadrant controllers of one device, modeled as FIFO pipes."""

    def __init__(self, sim: "Simulator", params: "SCCParams", device_id: int):
        self.sim = sim
        self.params = params
        # One core's peak streaming rate: a 32 B line per (faster of the
        # two) DRAM line costs.
        line_ns = min(params.dram_read_line_ns(), params.dram_write_line_ns())
        bandwidth = CORES_WORTH_OF_BANDWIDTH * 32.0 / line_ns
        self.links = [
            Link(
                sim,
                f"mc{device_id}.{i}",
                latency_ns=0.0,
                bandwidth_bpns=bandwidth,
                overhead_ns=0.0,
            )
            for i in range(4)
        ]
        #: Total extra time cores spent queued behind their quadrant
        #: controller (ns) — 0 whenever the quadrant is uncontended.
        self.fifo_wait_ns = 0.0
        #: core_id -> quadrant Link, resolved once (pure of the geometry).
        self._link_memo: dict[int, Link] = {}

    def controller_of(self, core_id: int) -> int:
        """Quadrant assignment: west/east × south/north."""
        params = self.params
        x, y = params.core_xy(core_id)
        west = x < (params.tiles_x + 1) // 2
        south = y < (params.tiles_y + 1) // 2
        return (0 if west else 1) + (0 if south else 2)

    def occupancy_wait_ns(
        self, core_id: int, nbytes: int, at: "float | None" = None
    ) -> float:
        """Reserve controller bandwidth; returns extra wait beyond *now*.

        The caller overlaps this with its own per-line access cost: an
        uncontended access finishes at its core-side cost; a contended
        one waits for the controller's FIFO. ``at`` evaluates the
        reservation as of a future instant (the accumulated time inside
        a fused delay chain) — bitwise the result of calling with the
        clock already advanced there.
        """
        link = self._link_memo.get(core_id)
        if link is None:
            link = self.links[self.controller_of(core_id)]
            self._link_memo[core_id] = link
        if at is None:
            at = self.sim.now
        arrival = link._occupy(nbytes, at=at)
        wait = max(0.0, arrival - at)
        self.fifo_wait_ns += wait
        return wait

    def metrics_snapshot(self) -> dict[str, float]:
        """Per-controller series; device label added by the owning chip."""
        snap: dict[str, float] = {"memctrl.fifo_wait_ns": self.fifo_wait_ns}
        for i, link in enumerate(self.links):
            snap[f"memctrl.bytes{{mc={i}}}"] = float(link.bytes_carried)
        return snap
