"""The host system: driver, communication tasks, and shared services.

Models the paper's two-socket Xeon server with one single-port and one
four-port PCIe expansion card — up to five SCC devices on one host (§4).
:class:`Host` owns, per device: a :class:`~repro.host.pcie.PCIeCable`, a
:class:`~repro.host.commtask.CommunicationTask` and a
:class:`~repro.host.vdma.VDMAController`; and shared across devices: the
region registry and the software MPB cache.

``extensions_enabled`` switches between the previous transparent-routing
prototype [13] (False) and the vSCC functionality this paper adds
(True). The FPGA fast-write-ack option is refused for more than two
devices unless ``allow_unstable=True`` — the paper reports it as
known-unstable in that regime and uses it only as an upper bound.

Scaling past one host, several ``Host`` instances join a
:class:`~repro.host.interhost.HostCluster`; each keeps its own
communication tasks, cables, DMA/vDMA engines and software cache, and
the lookup helpers transparently resolve *foreign* devices through the
cluster. :meth:`Host.route_down` is the one routing primitive the
protocol layers use for the final host→device hop: local targets take
the historic direct cable post (bit-identical), cross-host targets ride
the inter-host link first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.obs.metrics import merge_snapshots
from repro.scc.chip import SCCDevice
from repro.sim.engine import Simulator

from .commtask import CommunicationTask
from .dma import DMAEngine
from .fabric import HostFabric
from .pcie import PCIeCable, PCIeParams
from .regions import Region, RegionKind, RegionRegistry
from .softcache import HostMpbCache
from .vdma import VDMAController

__all__ = ["HostParams", "Host"]

#: Physical slot limit of the paper's host (1× single-port + 1× four-port
#: OSS-HIB5-x4 expansion card).
MAX_DEVICES = 5


@dataclass(frozen=True)
class HostParams:
    """Host-side service costs and buffer policies."""

    #: Communication-task software cost per handled request (ns).
    service_ns: float = 2400.0
    #: DMA granule between device MPB and host memory (bytes).
    granule: int = 1920
    #: Push group toward a receiving device's SIF response buffer (bytes).
    push_group: int = 512
    #: vDMA engine startup per programmed copy (ns).
    vdma_setup_ns: float = 1500.0

    def __post_init__(self) -> None:
        if self.granule <= 0 or self.push_group <= 0:
            raise ValueError("granule and push_group must be positive")
        if self.service_ns < 0 or self.vdma_setup_ns < 0:
            raise ValueError("service costs must be non-negative")


class Host:
    """The Xeon host tying up to five SCC devices into one vSCC."""

    def __init__(
        self,
        sim: Simulator,
        devices: Sequence[SCCDevice],
        pcie_params: Optional[PCIeParams] = None,
        host_params: Optional[HostParams] = None,
        extensions_enabled: bool = True,
        fast_write_ack: bool = False,
        allow_unstable: bool = False,
        host_id: int = 0,
    ):
        if not devices:
            raise ValueError("a host needs at least one device")
        if len(devices) > MAX_DEVICES:
            raise ValueError(
                f"the host chassis takes at most {MAX_DEVICES} PCIe expansion "
                f"cables, got {len(devices)} devices"
            )
        ids = [d.device_id for d in devices]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate device ids: {ids}")
        if fast_write_ack and len(devices) > 2 and not allow_unstable:
            raise ValueError(
                "the FPGA fast-write-acknowledge option is unstable for three "
                "or more tightly coupled devices (paper §2.3); pass "
                "allow_unstable=True to model it anyway"
            )
        self.sim = sim
        self.host_id = host_id
        #: Set by :class:`repro.host.interhost.HostCluster` when this host
        #: joins a multi-host fabric; ``None`` on a standalone host (every
        #: pre-cluster code path checks this and stays untouched).
        self.cluster = None
        self.params = host_params or HostParams()
        self.pcie_params = pcie_params or PCIeParams()
        self.extensions_enabled = extensions_enabled
        #: Whether the request scheduler may chain back-to-back vDMA
        #: descriptors for one route into a single engine pass. Off by
        #: default (static-scheme runs stay bit-identical); dynamic
        #: communication policies opt in via ``VSCCSystem``.
        self.sched_coalesce = False
        self.devices = {d.device_id: d for d in devices}
        self.cables = {
            d.device_id: PCIeCable(sim, self.pcie_params, d, fast_write_ack)
            for d in devices
        }
        self.dmas = {
            d.device_id: DMAEngine(self.cables[d.device_id], self.params.granule)
            for d in devices
        }
        self.tasks = {d.device_id: CommunicationTask(self, d.device_id) for d in devices}
        self.regions = RegionRegistry()
        self.cache = HostMpbCache(self)
        #: Set by :class:`repro.faults.FaultInjector` when a fault plan is
        #: installed; ``None`` on a fault-free host.
        self.fault_injector = None
        self.vdma = {d.device_id: VDMAController(self, d.device_id) for d in devices}
        for d in devices:
            d.fabric = HostFabric(self, d.device_id)
            d.sif.cable = self.cables[d.device_id]

    # -- lookup ------------------------------------------------------------------
    #
    # Local devices resolve through this host's own dicts (the historic
    # behaviour); foreign devices fall back to the cluster directory, so
    # the protocol layers can reason about any device in the fabric.

    def is_local(self, device_id: int) -> bool:
        return device_id in self.devices

    def host_for(self, device_id: int) -> "Host":
        """The host owning ``device_id`` (self for a local device)."""
        if device_id in self.devices:
            return self
        if self.cluster is None:
            raise KeyError(f"device {device_id} is not on this host")
        return self.cluster.host_for(device_id)

    def device_of(self, device_id: int) -> SCCDevice:
        dev = self.devices.get(device_id)
        if dev is not None:
            return dev
        return self.host_for(device_id).devices[device_id]

    def cable_of(self, device_id: int) -> PCIeCable:
        cable = self.cables.get(device_id)
        if cable is not None:
            return cable
        return self.host_for(device_id).cables[device_id]

    def dma_of(self, device_id: int) -> DMAEngine:
        dma = self.dmas.get(device_id)
        if dma is not None:
            return dma
        return self.host_for(device_id).dmas[device_id]

    def task_of(self, device_id: int) -> CommunicationTask:
        task = self.tasks.get(device_id)
        if task is not None:
            return task
        return self.host_for(device_id).tasks[device_id]

    # -- routing -----------------------------------------------------------------

    def route_down(
        self,
        dst_device: int,
        nbytes: int,
        on_arrival=None,
        extra_overhead_ns: float = 0.0,
        owner: str = "src",
    ):
        """Post the final host→device hop toward ``dst_device``.

        The one cross-tier routing primitive: a local target takes the
        direct cable post (exactly the historic path — single-host runs
        stay bit-identical); a foreign target first rides the directed
        inter-host link to its owning host, then that host's cable.
        ``owner`` is the policy layer's host-affinity axis: which host's
        communication task owns the inter-host forward and pays its
        ``service_ns`` on the link ("src" = this host, "dst" = the
        target's host). ``extra_overhead_ns`` is charged on the final
        cable hop either way. Returns the arrival event of the hop
        posted *now* (for a cross-host route: the inter-host leg; the
        cable leg chains off its arrival).
        """
        cable = self.cables.get(dst_device)
        if cable is not None:
            return cable.down.post(
                nbytes, on_arrival=on_arrival, extra_overhead_ns=extra_overhead_ns
            )
        dst_host = self.host_for(dst_device)
        link = self.cluster.link(self.host_id, dst_host.host_id)
        owner_host = dst_host if owner == "dst" else self

        def _hop() -> None:
            dst_host.cables[dst_device].down.post(
                nbytes, on_arrival=on_arrival, extra_overhead_ns=extra_overhead_ns
            )

        return link.link.post(
            nbytes,
            on_arrival=_hop,
            extra_overhead_ns=owner_host.params.service_ns,
        )

    def push_engine_for(self, device_id: int):
        """The push engine reaching ``device_id`` from this host.

        Local devices get the cable's :class:`~repro.host.dma.DMAEngine`;
        foreign devices an :class:`~repro.host.interhost.InterHostPush`
        with the same ``push()`` contract.
        """
        dma = self.dmas.get(device_id)
        if dma is not None:
            return dma
        from .interhost import InterHostPush

        return InterHostPush(self, device_id)

    def require_extensions(self, feature: str) -> None:
        if not self.extensions_enabled:
            raise RuntimeError(
                f"{feature} require the vSCC communication-task extensions; "
                "this host runs the transparent-routing prototype"
            )

    # -- registration (RCCE init calls this per rank) -----------------------------------

    def register_rank_regions(self, device_id: int, core_id: int) -> None:
        """Register a core's MPB payload + SF spans with the task (§3.1).

        On a multi-host fabric every host registers *all* ranks' regions
        (the directory is host-local metadata, not simulated traffic), so
        each communication task can classify foreign addresses too.
        """
        device = self.device_of(device_id)
        payload = device.params.mpb_payload_bytes
        self.regions.register(
            Region(device_id, core_id, 0, payload, RegionKind.BUFFER)
        )
        self.regions.register(
            Region(
                device_id,
                core_id,
                payload,
                device.params.sf_bytes,
                RegionKind.FLAG,
            )
        )

    # -- stats -----------------------------------------------------------------------------

    def metrics_snapshot(self) -> dict[str, float]:
        """Host-side series: cables, DMA engines, tasks, cache, vDMA."""
        parts = []
        parts.extend(cable.metrics_snapshot() for cable in self.cables.values())
        parts.extend(dma.metrics_snapshot() for dma in self.dmas.values())
        parts.extend(task.metrics_snapshot() for task in self.tasks.values())
        parts.extend(vdma.metrics_snapshot() for vdma in self.vdma.values())
        parts.append(self.cache.metrics_snapshot())
        return merge_snapshots(parts)
