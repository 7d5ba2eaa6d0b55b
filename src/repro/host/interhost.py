"""The inter-host tier: host-to-host links above PCIe.

The paper's system stops at one host terminating up to five PCIe
cables; the third fabric level (ROADMAP "multi-host fabrics", the DNP's
off-chip interconnect tier) connects *hosts* with a latency tier another
order of magnitude above PCIe. :class:`HostCluster` ties several
:class:`~repro.host.driver.Host` instances together with one directed
:class:`~repro.sim.resources.Link` per ordered host pair — the same
occupancy machinery as the PCIe cables, so serialization, delay fusion
and the ``faults`` envelope/retransmit layer all work unchanged on the
new tier.

A cross-host transfer composes three physical segments::

    src device --PCIe up--> src host --interhost--> dst host --PCIe down--> dst device

The middle segment is :meth:`repro.host.driver.Host.forward`, the one
code path that posts on an inter-host link. It is owned by one of the
two hosts' communication tasks (the policy layer's *host-affinity* axis
decides which; the owner pays its ``service_ns`` forwarding cost on the
link). Every cross-host path is built from it: the final hop of a
protocol write (``Host.route_down``), a write-combiner flush, a
cached-get prefetch granule and an RPC descriptor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.obs.metrics import label_keys, merge_snapshots
from repro.sim.engine import Simulator
from repro.sim.resources import Link

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .driver import Host

__all__ = ["InterHostParams", "InterHostLink", "HostCluster"]


@dataclass(frozen=True)
class InterHostParams:
    """Timing of one directed host-to-host path.

    Defaults model a commodity interconnect one rung above PCIe: ~25 µs
    base latency (vs 3.4 µs per PCIe hop) and roughly a quarter of the
    per-cable streaming bandwidth, shared by all traffic between a host
    pair.
    """

    #: Time of flight host→host, including NIC traversal on both ends (ns).
    latency_ns: float = 25000.0
    #: Effective streaming bandwidth per direction (bytes/ns).
    bandwidth_bpns: float = 0.012
    #: Per-transfer serialization overhead (header, doorbell) (ns).
    packet_overhead_ns: float = 900.0

    def __post_init__(self) -> None:
        if min(self.latency_ns, self.packet_overhead_ns) < 0:
            raise ValueError("latencies must be non-negative")
        if self.bandwidth_bpns <= 0:
            raise ValueError("bandwidth must be positive")


class InterHostLink:
    """One directed host→host pipe (half of a host pair's connection)."""

    def __init__(
        self,
        sim: Simulator,
        params: InterHostParams,
        src_host_id: int,
        dst_host_id: int,
    ):
        self.sim = sim
        self.params = params
        self.src_host_id = src_host_id
        self.dst_host_id = dst_host_id
        self.link = Link(
            sim,
            f"interhost{src_host_id}to{dst_host_id}",
            latency_ns=params.latency_ns,
            bandwidth_bpns=params.bandwidth_bpns,
            overhead_ns=params.packet_overhead_ns,
        )

    def metrics_snapshot(self) -> dict[str, float]:
        """Series ``interhost.*{src=<a>,dst=<b>}`` (+ ``faults.*`` if armed)."""
        snap = {
            k.replace("link.", "interhost.", 1): v
            for k, v in self.link.metrics_snapshot().items()
        }
        if self.link.faults is not None:
            snap.update(self.link.faults.metrics_snapshot())
        return label_keys(snap, src=self.src_host_id, dst=self.dst_host_id)


class HostCluster:
    """Several hosts tied together by the inter-host tier.

    Owns one :class:`InterHostLink` per ordered host pair and the global
    device→host directory the per-host lookups fall back to for foreign
    devices. Installing the cluster sets ``host.cluster`` on every
    member, which is what arms :meth:`repro.host.driver.Host.forward`
    and the foreign-device lookups — a host with ``cluster is None``
    only ever forwards to itself.
    """

    def __init__(
        self,
        sim: Simulator,
        hosts: Sequence["Host"],
        params: Optional[InterHostParams] = None,
    ):
        if len(hosts) < 2:
            raise ValueError("a host cluster needs at least two hosts")
        ids = [h.host_id for h in hosts]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate host ids: {ids}")
        self.sim = sim
        self.params = params or InterHostParams()
        self.hosts = list(hosts)
        self._device_host: dict[int, "Host"] = {}
        for host in hosts:
            for device_id in host.devices:
                if device_id in self._device_host:
                    raise ValueError(
                        f"device {device_id} appears on host "
                        f"{self._device_host[device_id].host_id} and host "
                        f"{host.host_id}"
                    )
                self._device_host[device_id] = host
        self.links: dict[tuple[int, int], InterHostLink] = {
            (a, b): InterHostLink(sim, self.params, a, b)
            for a in ids
            for b in ids
            if a != b
        }
        for host in hosts:
            host.cluster = self

    def host_for(self, device_id: int) -> "Host":
        """The host a (possibly foreign) device hangs off."""
        try:
            return self._device_host[device_id]
        except KeyError:
            raise KeyError(f"device {device_id} is on no host of this cluster")

    def link(self, src_host_id: int, dst_host_id: int) -> InterHostLink:
        """The directed link carrying ``src`` → ``dst`` traffic."""
        return self.links[(src_host_id, dst_host_id)]

    def host_map(self, num_devices: int) -> tuple[int, ...]:
        """Device→host assignment as a tuple (for :class:`FabricTopology`)."""
        return tuple(
            self.host_for(device_id).host_id for device_id in range(num_devices)
        )

    def metrics_snapshot(self) -> dict[str, float]:
        return merge_snapshots(
            [link.metrics_snapshot() for link in self.links.values()]
        )
