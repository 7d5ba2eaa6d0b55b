"""The RCCE session: boot SCC devices and run RCCE programs on them.

:class:`RcceSession` owns everything an RCCE program needs — the
simulator, the booted devices, the rank layout, flag layout and fabric
topology, one communicator per rank — and the run loop that spawns a
program on ranks and reports a :class:`repro.results.RunResult`. A
plain session boots one device with no host attached; off-die accesses
raise. It serves the on-chip half of Fig 6a and every plain-RCCE
example and test::

    session = RcceSession()
    result = session.run(program, ranks=[0, 1])
    result.results[1], result.elapsed_ns

:class:`repro.vscc.system.VSCCSystem` is the same session behind one or
more hosts: it subclasses this one and adds only the host tier (hosts,
policy and selector, fault injector, RPC dispatchers).
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Generator, Optional, Sequence, Union

import numpy as np

from repro.obs.chrometrace import write_chrome_trace
from repro.obs.metrics import MetricsRegistry, merge_snapshots
from repro.results import RunResult
from repro.scc.chip import SCCDevice
from repro.scc.params import SCCParams
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer
from repro.vscc.topology import FabricTopology

from .api import Rcce, RcceOptions
from .config import RankLayout, SccConfigFile
from .flags import FlagLayout

__all__ = ["RcceSession", "TRACE_CATEGORIES"]

#: Trace categories recorded when ``run(trace_json=...)`` is used.
TRACE_CATEGORIES = ("protocol", "vdma", "faults", "policy", "sched", "coll", "rpc")


class RcceSession:
    """Booted SCC devices, their rank layout, and the RCCE run loop.

    Observability belongs to the simulator: ``session.obs`` is
    ``sim.obs``, the metrics registry (:mod:`repro.obs`), and
    ``session.tracer`` is ``sim.tracer``. ``run(trace_json=...)``
    records the trace categories for that run and writes its
    Chrome-trace file.
    """

    #: How many devices the constructor boots; a subclass sets its own
    #: count on the instance before calling it.
    _num_devices = 1
    #: The transport selector every communicator shares; ``None`` gives
    #: each rank its own on-chip selector.
    selector = None
    #: Fault-injection subsystem (:mod:`repro.faults`); ``None`` on a
    #: fault-free session.
    fault_injector = None

    def __init__(
        self,
        params: Optional[SCCParams] = None,
        options: Optional[RcceOptions] = None,
        failure_prob: float = 0.0,
        seed: Optional[int] = None,
    ):
        self.sim = Simulator()
        #: The simulator's tracer and metrics registry (disabled by
        #: default so the hot path stays allocation-free; see
        #: :mod:`repro.obs`).
        self.tracer: Tracer = self.sim.tracer
        self.obs: MetricsRegistry = self.sim.obs
        self.params = params or SCCParams()
        self.options = options or RcceOptions()
        self.devices = [
            SCCDevice(self.sim, self.params, device_id=i)
            for i in range(self._num_devices)
        ]
        rng = np.random.default_rng(seed)
        for device in self.devices:
            device.boot(failure_prob=failure_prob, rng=rng)
        #: The first (on a plain session: only) device.
        self.device = self.devices[0]
        self.config = SccConfigFile.from_devices(self.devices)
        self.layout = RankLayout.from_config(self.config)
        self.flags = FlagLayout(self.layout, self.params)
        self.topology = FabricTopology(self.layout, self.params)
        self._comms: dict[int, Rcce] = {}

    @property
    def num_ranks(self) -> int:
        return self.layout.num_ranks

    def comm_for(self, rank: int) -> Rcce:
        """The (cached) RCCE communicator of one rank."""
        comm = self._comms.get(rank)
        if comm is None:
            device_id, core = self.layout.placement(rank)
            comm = Rcce(
                self.devices[device_id].core(core),
                self.layout,
                options=self.options,
                selector=self.selector,
                flags=self.flags,
            )
            # One topology for every rank, so all of them share its
            # memos and hierarchical collectives see the host tier (the
            # communicator's lazy default would be a one-host topology).
            comm._topology = self.topology
            self._comms[rank] = comm
        return comm

    def run(
        self,
        program: Callable[[Rcce], Generator],
        ranks: Optional[Sequence[int]] = None,
        until: Optional[float] = None,
        trace_json: Optional[Union[str, Path]] = None,
    ) -> RunResult:
        """Spawn ``program(comm)`` on ``ranks`` (default: all), run to
        completion, report.

        ``trace_json`` enables :data:`TRACE_CATEGORIES` for the duration
        of the run and writes the records this run emitted as a
        Chrome-trace (Perfetto-loadable) file there.
        """
        tracer = self.tracer
        extra_categories = []
        if trace_json is not None:
            extra_categories = [c for c in TRACE_CATEGORIES if not tracer.wants(c)]
            tracer.enable(*extra_categories)
        if ranks is None:
            ranks = range(self.num_ranks)
        start_ns = self.sim.now
        first_record = len(tracer.records)
        try:
            procs = {
                rank: self.sim.spawn(program(self.comm_for(rank)), name=f"rank{rank}")
                for rank in ranks
            }
            self.sim.run(until=until)
            trace_path = None
            if trace_json is not None:
                trace_path = write_chrome_trace(
                    trace_json, tracer.records[first_record:]
                )
        finally:
            if extra_categories:
                tracer.disable(*extra_categories)
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
        series carry a ``device=`` label.
        """
        return merge_snapshots(self._metric_parts())

    def _metric_parts(self) -> list[dict[str, float]]:
        """The snapshots :attr:`metrics` merges: kernel, then devices."""
        parts = [self.sim.metrics_snapshot()]
        parts.extend(device.metrics_snapshot() for device in self.devices)
        return parts
