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

Observability: ``system.obs`` is the simulator-scoped metrics registry
(:mod:`repro.obs`); flip ``system.obs.enabled = True`` before running to
collect the typed instruments (histograms, gauges) on top of the
always-on counters. ``run(trace_json=...)`` additionally records
protocol/vDMA trace events and writes a Chrome-trace file.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator, Optional, Sequence, Union
from pathlib import Path

import numpy as np

from repro.host.driver import Host, HostParams
from repro.host.interhost import HostCluster, InterHostParams
from repro.host.pcie import PCIeParams
from repro.obs.metrics import MetricsRegistry, merge_snapshots, registry_for
from repro.rcce.api import Rcce, RcceOptions
from repro.rcce.config import RankLayout, SccConfigFile
from repro.rcce.flags import FlagLayout
from repro.results import RunResult
from repro.scc.chip import SCCDevice
from repro.scc.params import SCCParams
from repro.sim.engine import Process, Simulator
from repro.sim.trace import Tracer

from .policy import SchemePolicy, StaticPolicy
from .protocol import VsccSelector
from .schemes import CommScheme
from .topology import FabricTopology, VsccTopology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults import FaultInjector, FaultPlan

__all__ = ["RunResult", "VSCCSystem"]

#: Trace categories recorded when ``run(trace_json=...)`` is used.
TRACE_CATEGORIES = ("protocol", "vdma", "faults", "policy", "sched", "coll", "rpc")


class VSCCSystem:
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
        core_order: str = "ascending",
        allow_unstable: bool = False,
        direct_threshold: Optional[int] = None,
        announce_prefetch: bool = True,
        vdma_fused_mmio: bool = True,
        fault_plan: Optional["FaultPlan"] = None,
        policy: Optional[SchemePolicy] = None,
        fuse_delays: Optional[bool] = None,
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
        self.params = params or SCCParams()
        self.options = options or RcceOptions()
        # ``fuse_delays`` pins the delay-fusion fast path per system (the
        # service layer runs many systems with per-job specs in one
        # process, where mutating ``REPRO_FUSE`` would race); ``None``
        # defers to the environment exactly like a direct Simulator().
        self.sim = Simulator(fuse_delays=fuse_delays)
        self.tracer = Tracer()
        self.devices = [
            SCCDevice(self.sim, self.params, device_id=i, tracer=self.tracer)
            for i in range(num_devices)
        ]
        rng = np.random.default_rng(seed)
        for device in self.devices:
            device.boot(failure_prob=failure_prob, rng=rng)
        # Contiguous device slices per host: device d lives on host
        # d // devices_per_host (the last host absorbs any remainder).
        per_host = devices_per_host or -(-num_devices // num_hosts)
        self.hosts: list[Host] = []
        for host_id in range(num_hosts):
            slice_devices = self.devices[
                host_id * per_host : (host_id + 1) * per_host
            ] if host_id < num_hosts - 1 else self.devices[host_id * per_host :]
            self.hosts.append(
                Host(
                    self.sim,
                    slice_devices,
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
        self.config = SccConfigFile.from_devices(self.devices)
        self.layout = RankLayout.from_config(self.config, core_order)
        self.flags = FlagLayout(self.layout, self.params)
        if self.cluster is None:
            self.topology: FabricTopology = VsccTopology(self.layout, self.params)
        else:
            self.topology = FabricTopology(
                self.layout, self.params,
                host_map=self.cluster.host_map(num_devices),
            )
        self.selector = VsccSelector(
            self.host,
            policy,
            self.options,
            direct_threshold=direct_threshold,
            announce_prefetch=announce_prefetch,
            vdma_fused_mmio=vdma_fused_mmio,
        )
        self._comms: dict[int, Rcce] = {}
        #: The simulator-scoped metrics registry (disabled by default so
        #: the hot path stays allocation-free; see :mod:`repro.obs`).
        self.obs: MetricsRegistry = registry_for(self.sim)
        #: Fault-injection subsystem (:mod:`repro.faults`). Only a
        #: non-empty plan installs anything — an empty (or absent) plan
        #: leaves every link untouched, keeping the simulation
        #: bit-identical to the fault-free kernel.
        self.fault_plan = fault_plan
        #: RPC dispatchers installed on this system
        #: (:func:`repro.apps.rpc.install_rpc`); their ``rpc.*`` series
        #: join :meth:`metrics`. Empty on every non-RPC run.
        self.rpc_dispatchers: list = []
        self.fault_injector: Optional["FaultInjector"] = None
        if fault_plan is not None and not fault_plan.is_empty:
            from repro.faults.injector import FaultInjector

            self.fault_injector = FaultInjector(
                fault_plan, self.host, tracer=self.tracer
            )

    # -- communicators ---------------------------------------------------------

    @property
    def num_ranks(self) -> int:
        return self.layout.num_ranks

    def comm_for(self, rank: int) -> Rcce:
        """The (cached) RCCE communicator of one rank."""
        comm = self._comms.get(rank)
        if comm is None:
            device_id, core = self.layout.placement(rank)
            env = self.devices[device_id].core(core)
            comm = Rcce(
                env,
                self.layout,
                options=self.options,
                selector=self.selector,
                flags=self.flags,
            )
            # Hand the communicator the system topology so hierarchical
            # collectives see the host tier (the lazy default would build
            # a single-host VsccTopology).
            comm._topology = self.topology
            self._comms[rank] = comm
        return comm

    # -- program execution -----------------------------------------------------------

    def spawn_ranks(
        self,
        program: Callable[[Rcce], Generator],
        ranks: Optional[Sequence[int]] = None,
    ) -> dict[int, Process]:
        """Spawn ``program(comm)`` on the given ranks (default: all)."""
        ranks = list(range(self.num_ranks)) if ranks is None else list(ranks)
        return {
            rank: self.sim.spawn(program(self.comm_for(rank)), name=f"rank{rank}")
            for rank in ranks
        }

    def run(
        self,
        program: Callable[[Rcce], Generator],
        ranks: Optional[Sequence[int]] = None,
        until: Optional[float] = None,
        trace_json: Optional[Union[str, Path]] = None,
    ) -> RunResult:
        """Spawn ``program`` on ``ranks``, run to completion, report.

        ``trace_json`` enables protocol/vDMA tracing for the duration of
        the run and writes a Chrome-trace (Perfetto-loadable) file there.
        """
        extra_categories = []
        if trace_json is not None:
            extra_categories = [
                c for c in TRACE_CATEGORIES if not self.tracer.wants(c)
            ]
            self.tracer.enable(*extra_categories)
        start_ns = self.sim.now
        try:
            procs = self.spawn_ranks(program, ranks)
            self.sim.run(until=until)
            trace_path = None
            if trace_json is not None:
                from repro.obs.chrometrace import write_chrome_trace

                trace_path = write_chrome_trace(trace_json, self.tracer)
        finally:
            if extra_categories:
                self.tracer.disable(*extra_categories)
        elapsed_ns = self.sim.now - start_ns
        injector = self.fault_injector
        return RunResult(
            results={rank: proc.result for rank, proc in procs.items()},
            elapsed_ns=elapsed_ns,
            core_cycles=self.params.core_clock.to_cycles(elapsed_ns),
            metrics=self.metrics,
            trace_path=trace_path,
            degraded_devices=() if injector is None else injector.degraded_devices,
        )

    # -- stats ----------------------------------------------------------------------------

    @property
    def metrics(self) -> dict[str, float]:
        """One aggregated snapshot of every instrumented component.

        Series use the ``name{label=value,...}`` key format; device-side
        series carry a ``device=`` label. Includes the typed-instrument
        registry (``system.obs``) when it was enabled.
        """
        parts = [self.sim.metrics_snapshot()]
        parts.extend(device.metrics_snapshot() for device in self.devices)
        parts.extend(host.metrics_snapshot() for host in self.hosts)
        if self.cluster is not None:
            parts.append(self.cluster.metrics_snapshot())
        parts.append(self.selector.metrics_snapshot())
        parts.extend(d.metrics_snapshot() for d in self.rpc_dispatchers)
        if self.fault_injector is not None:
            parts.append(self.fault_injector.metrics_snapshot())
        parts.append(self.obs.snapshot())
        return merge_snapshots(parts)

    def traffic_matrix(self) -> np.ndarray:
        """bytes sent per (src, dst) rank pair so far."""
        n = self.num_ranks
        matrix = np.zeros((n, n), np.int64)
        for (src, dst), nbytes in self.layout.traffic.items():
            matrix[src, dst] = nbytes
        return matrix
