"""PCIe expansion-cable model: the inter-device physical path.

Each SCC board carries an FPGA (the SIF) that bridges its mesh to a PCIe
expansion cable; the host (a two-socket Xeon S2600CW with one single-port
and one four-port OSS-HIB5-x4 card in the paper) terminates up to five
cables. We model each cable as two :class:`repro.sim.Link` pipes (up =
device→host, down = host→device).

Calibration anchor (paper §3/§5): an access that crosses to another
device costs ~10⁴ core cycles ≈ 18.8 µs round trip — 120× an on-chip
path. The default latencies below reproduce that anchor together with
the host service costs in :class:`repro.host.commtask.CommunicationTask`.

The FPGA's *automatic write acknowledge* option — acknowledging an
off-die write locally instead of end-to-end — is the paper's
hardware-accelerated upper bound. It is known-unstable for three or more
tightly coupled devices, so :class:`PCIeCable` refuses to enable it in
larger systems unless explicitly overridden (exactly how the paper's
experiments treat it: an upper-bound curve, not a usable configuration).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.obs.metrics import label_keys, merge_snapshots
from repro.sim.engine import Simulator
from repro.sim.resources import Link

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.scc.chip import SCCDevice

__all__ = ["PCIeParams", "PCIeCable"]


@dataclass(frozen=True)
class PCIeParams:
    """Timing of one SIF↔host PCIe path (one cable)."""

    #: Time of flight device→host or host→device, including SIF
    #: packetization and driver entry (ns).
    latency_ns: float = 3400.0
    #: Effective streaming bandwidth per direction (bytes/ns). The SIF
    #: FPGA, not the PCIe lanes, bounds this on the real system.
    bandwidth_bpns: float = 0.044
    #: Per-transfer serialization overhead on the link (packet header,
    #: descriptor fetch) (ns).
    packet_overhead_ns: float = 150.0
    #: Host DMA descriptor setup per transfer (ns).
    dma_setup_ns: float = 4800.0
    #: Core-visible stall for an off-die write acknowledged immediately
    #: at the local FPGA (fast-ack path; per 32 B WCB burst) (ns).
    fpga_ack_ns: float = 470.0
    #: FPGA-side service to perform one memory access on behalf of the
    #: host (transparent routing touches device memory through it) (ns).
    fpga_service_ns: float = 500.0
    #: Receiver-core read of one 32 B line from the SIF response buffer
    #: (data previously pushed by the host) (ns).
    sif_buffer_read_ns: float = 540.0
    #: Capacity of the SIF response buffer in 32 B lines (push-ahead
    #: window for the software-cache read path).
    response_buffer_lines: int = 128

    def __post_init__(self) -> None:
        if min(self.latency_ns, self.packet_overhead_ns, self.dma_setup_ns) < 0:
            raise ValueError("latencies must be non-negative")
        if self.bandwidth_bpns <= 0:
            raise ValueError("bandwidth must be positive")
        if self.response_buffer_lines < 1:
            raise ValueError("response buffer needs at least one line")


class PCIeCable:
    """One device's bidirectional PCIe connection to the host."""

    def __init__(
        self,
        sim: Simulator,
        params: PCIeParams,
        device: "SCCDevice",
        fast_write_ack: bool = False,
    ):
        self.sim = sim
        self.params = params
        self.device = device
        self.fast_write_ack = fast_write_ack
        name = f"pcie{device.device_id}"
        self.up = Link(
            sim,
            f"{name}.up",
            latency_ns=params.latency_ns,
            bandwidth_bpns=params.bandwidth_bpns,
            overhead_ns=params.packet_overhead_ns,
        )
        self.down = Link(
            sim,
            f"{name}.down",
            latency_ns=params.latency_ns,
            bandwidth_bpns=params.bandwidth_bpns,
            overhead_ns=params.packet_overhead_ns,
        )

    def metrics_snapshot(self) -> dict[str, float]:
        """Per-direction cable series: ``pcie.*{device=<id>,dir=up|down}``.

        Links carrying a fault model additionally contribute their
        ``faults.*`` counters under the same device/dir labels.
        """

        def rekey(snap: dict[str, float]) -> dict[str, float]:
            return {k.replace("link.", "pcie.", 1): v for k, v in snap.items()}

        parts = []
        for link, direction in ((self.up, "up"), (self.down, "down")):
            snap = rekey(link.metrics_snapshot())
            if link.faults is not None:
                snap.update(link.faults.metrics_snapshot())
            parts.append(
                label_keys(snap, device=self.device.device_id, dir=direction)
            )
        return merge_snapshots(parts)
