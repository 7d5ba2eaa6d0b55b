"""Single-device RCCE session: boot one SCC and run programs on it.

The on-chip counterpart of :class:`repro.vscc.system.VSCCSystem` — used
by the on-chip half of Fig 6a and by all plain-RCCE examples/tests. No
host is attached; off-die accesses raise. Like the system façade it
returns :class:`repro.results.RunResult` from :meth:`run`::

    session = RcceSession()
    result = session.run(program, ranks=[0, 1])
    result.results[1], result.elapsed_ns
"""

from __future__ import annotations

from typing import Callable, Generator, Optional, Sequence

import numpy as np

from repro.obs.metrics import merge_snapshots
from repro.results import RunResult
from repro.scc.chip import SCCDevice
from repro.scc.params import SCCParams
from repro.sim.engine import Process, Simulator
from repro.vscc.topology import VsccTopology

from .api import Rcce, RcceOptions
from .config import RankLayout, SccConfigFile
from .flags import FlagLayout

__all__ = ["RcceSession"]


class RcceSession:
    """One SCC device, one RCCE session."""

    def __init__(
        self,
        params: Optional[SCCParams] = None,
        options: Optional[RcceOptions] = None,
        failure_prob: float = 0.0,
        seed: Optional[int] = None,
        core_order: str = "ascending",
    ):
        self.sim = Simulator()
        self.params = params or SCCParams()
        self.options = options or RcceOptions()
        self.device = SCCDevice(self.sim, self.params)
        self.device.boot(
            failure_prob=failure_prob, rng=np.random.default_rng(seed)
        )
        self.config = SccConfigFile.from_devices([self.device])
        self.layout = RankLayout.from_config(self.config, core_order)
        self.flags = FlagLayout(self.layout, self.params)
        self.topology = VsccTopology(self.layout, self.params)
        self._comms: dict[int, Rcce] = {}

    @property
    def num_ranks(self) -> int:
        return self.layout.num_ranks

    @property
    def metrics(self) -> dict[str, float]:
        """Aggregated kernel + device metrics snapshot."""
        return merge_snapshots(
            [self.sim.metrics_snapshot(), self.device.metrics_snapshot()]
        )

    def comm_for(self, rank: int) -> Rcce:
        comm = self._comms.get(rank)
        if comm is None:
            _device, core = self.layout.placement(rank)
            comm = Rcce(
                self.device.core(core),
                self.layout,
                options=self.options,
                flags=self.flags,
            )
            # One topology for every rank, so all of them share its
            # memo of hierarchical plan shapes.
            comm._topology = self.topology
            self._comms[rank] = comm
        return comm

    def spawn_ranks(
        self,
        program: Callable[[Rcce], Generator],
        ranks: Optional[Sequence[int]] = None,
    ) -> dict[int, Process]:
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
    ) -> RunResult:
        """Spawn ``program`` on ``ranks``, run to completion, report."""
        start_ns = self.sim.now
        procs = self.spawn_ranks(program, ranks)
        self.sim.run(until=until)
        elapsed_ns = self.sim.now - start_ns
        return RunResult(
            results={rank: proc.result for rank, proc in procs.items()},
            elapsed_ns=elapsed_ns,
            core_cycles=self.params.core_clock.to_cycles(elapsed_ns),
            metrics=self.metrics,
        )
