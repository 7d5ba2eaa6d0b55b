"""The vSCC system façade: build, boot and run a multi-device session.

:class:`VSCCSystem` assembles the full research vehicle of the paper —
up to five simulated SCC devices on one host, a communication scheme, a
rank layout over the cores that booted — and runs RCCE programs on it::

    from repro.vscc import VSCCSystem, CommScheme

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(b"hello", dest=239)
        elif comm.rank == 239:
            data = yield from comm.recv(5, src=0)

    system = VSCCSystem(num_devices=5, scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA)
    result = system.run(program)
    result.results[239]       # per-rank return values
    result.metrics["pcie.bytes{device=0,dir=up}"]

The system is an :class:`repro.rcce.session.RcceSession` — the same
simulator, devices, rank layout, communicators and ``run`` — with the
host tier on top. ``system.metrics`` merges the always-on counters of
every component (:mod:`repro.obs`); ``system.tracer`` is the
simulator's ``sim.tracer``. ``run(trace_json=...)`` additionally
records protocol/vDMA trace events and writes that run's Chrome-trace
file.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.host.driver import Host, HostParams
from repro.host.interhost import HostCluster, InterHostParams
from repro.host.pcie import PCIeParams
from repro.rcce.api import RcceOptions
from repro.rcce.session import RcceSession
from repro.results import RunResult
from repro.scc.params import SCCParams

from .policy import SchemePolicy, StaticPolicy
from .protocol import VsccSelector
from .schemes import CommScheme
from .topology import FabricTopology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults import FaultPlan

__all__ = ["RunResult", "VSCCSystem"]


class VSCCSystem(RcceSession):
    """A grid of cluster-on-a-chip processors behind one or more hosts.

    The default is the paper's configuration: every device on a single
    host. ``num_hosts``/``devices_per_host`` scale the fabric to the
    three-level hierarchy (mesh → PCIe → inter-host): devices are
    assigned to hosts in contiguous slices, each host owns its own
    communication tasks/cables/engines, and host-to-host traffic rides
    the :class:`~repro.host.interhost.InterHostLink` tier
    (``interhost_params``). Single-host systems build no cluster and are
    bit-identical to the pre-fabric code.
    """

    def __init__(
        self,
        num_devices: int = 5,
        scheme: Optional[CommScheme] = None,
        params: Optional[SCCParams] = None,
        pcie_params: Optional[PCIeParams] = None,
        host_params: Optional[HostParams] = None,
        options: Optional[RcceOptions] = None,
        failure_prob: float = 0.0,
        seed: Optional[int] = None,
        allow_unstable: bool = False,
        direct_threshold: Optional[int] = None,
        announce_prefetch: bool = True,
        vdma_fused_mmio: bool = True,
        fault_plan: Optional["FaultPlan"] = None,
        policy: Optional[SchemePolicy] = None,
        num_hosts: int = 1,
        devices_per_host: Optional[int] = None,
        interhost_params: Optional[InterHostParams] = None,
    ):
        if num_hosts < 1:
            raise ValueError("need at least one host")
        if devices_per_host is not None:
            if devices_per_host < 1:
                raise ValueError("need at least one device per host")
            num_devices = num_hosts * devices_per_host
        if num_devices < 1:
            raise ValueError("need at least one device")
        if num_devices < num_hosts:
            raise ValueError(
                f"{num_hosts} hosts need at least {num_hosts} devices, "
                f"got {num_devices}"
            )
        if policy is None:
            policy = StaticPolicy(
                CommScheme.LOCAL_PUT_LOCAL_GET_VDMA if scheme is None else scheme
            )
        elif scheme is not None:
            raise ValueError(
                "pass either scheme= (sugar for StaticPolicy) or policy=, not both"
            )
        elif not isinstance(policy, SchemePolicy):
            raise TypeError(f"policy must be a SchemePolicy, got {policy!r}")
        #: The run-static scheme, or ``None`` under a dynamic policy.
        self.scheme = policy.static_scheme
        self.policy = policy
        self._num_devices = num_devices
        super().__init__(params, options, failure_prob, seed)
        # Contiguous device slices per host, ``per_host`` devices each;
        # a slice start is capped so every later host keeps at least one
        # device, which leaves the short slices at the end.
        per_host = devices_per_host or -(-num_devices // num_hosts)
        starts = [
            min(h * per_host, num_devices - (num_hosts - h))
            for h in range(num_hosts + 1)
        ]
        self.hosts: list[Host] = []
        for host_id in range(num_hosts):
            self.hosts.append(
                Host(
                    self.sim,
                    self.devices[starts[host_id] : starts[host_id + 1]],
                    pcie_params=pcie_params,
                    host_params=host_params,
                    extensions_enabled=any(
                        s.needs_extensions for s in policy.schemes
                    ),
                    fast_write_ack=any(
                        s.uses_fast_write_ack for s in policy.schemes
                    ),
                    allow_unstable=allow_unstable,
                    host_id=host_id,
                )
            )
        #: The first (on a single-host system: only) host — the historic
        #: attribute every pre-fabric caller reads.
        self.host = self.hosts[0]
        #: Inter-host tier; ``None`` on a single-host system.
        self.cluster: Optional[HostCluster] = None
        if num_hosts > 1:
            self.cluster = HostCluster(self.sim, self.hosts, interhost_params)
            self.topology = FabricTopology(
                self.layout, self.params, host_map=self.cluster.host_map(num_devices)
            )
        # Dynamic policies opt the host scheduler into vDMA descriptor
        # coalescing; static runs keep the historic timing bit-identical.
        for host in self.hosts:
            host.sched_coalesce = policy.coalesce_vdma
        # §3.1: every rank registers its buffer/flag regions with the
        # task — with *every* host, so cross-host sends can classify a
        # foreign target address without a directory round trip.
        for host in self.hosts:
            for device in self.devices:
                for core in device.available_cores:
                    host.register_rank_regions(device.device_id, core)
        self.selector = VsccSelector(
            self.host,
            policy,
            self.options,
            direct_threshold=direct_threshold,
            announce_prefetch=announce_prefetch,
            vdma_fused_mmio=vdma_fused_mmio,
        )
        #: Only a non-empty fault plan installs an injector — an empty
        #: (or absent) plan leaves every link untouched, keeping the
        #: simulation bit-identical to the fault-free kernel.
        self.fault_plan = fault_plan
        #: RPC dispatchers installed on this system
        #: (:func:`repro.apps.rpc.install_rpc`); their ``rpc.*`` series
        #: join :meth:`metrics`. Empty on every non-RPC run.
        self.rpc_dispatchers: list = []
        if fault_plan is not None and not fault_plan.is_empty:
            from repro.faults.injector import FaultInjector

            self.fault_injector = FaultInjector(fault_plan, self.host)

    # -- stats ----------------------------------------------------------------------------

    def _metric_parts(self) -> list[dict[str, float]]:
        """The session's parts, then the host tier's."""
        parts = super()._metric_parts()
        parts.extend(host.metrics_snapshot() for host in self.hosts)
        if self.cluster is not None:
            parts.append(self.cluster.metrics_snapshot())
        parts.append(self.selector.metrics_snapshot())
        parts.extend(d.metrics_snapshot() for d in self.rpc_dispatchers)
        if self.fault_injector is not None:
            parts.append(self.fault_injector.metrics_snapshot())
        return parts
