"""One SCC device: 24 tiles, 48 cores, MPB, mesh, SIF.

The device also models the boot behaviour the paper describes in §4: the
SCC is a research system, and with multiple devices attached "the
situation occurs frequently that not all 240 cores are available at
startup" — silent core failures simply remove cores from the available
set, and the RCCE startup workaround (regenerating the core-id
configuration file) is exercised by :mod:`repro.rcce.config`.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.obs.metrics import label_keys, merge_snapshots
from repro.sim.engine import Simulator

from .core import CoreEnv
from .memctrl import MemoryControllers
from .mesh import XYRouter
from .mpb import MPBMemory
from .params import SCCParams
from .sif import SystemInterface

__all__ = ["SCCDevice"]


class SCCDevice:
    """A simulated Intel SCC, optionally attached to a host fabric."""

    def __init__(
        self,
        sim: Simulator,
        params: Optional[SCCParams] = None,
        device_id: int = 0,
    ):
        self.sim = sim
        self.params = params or SCCParams()
        self.device_id = device_id
        self.mpb = MPBMemory(sim, self.params, device_id)
        self.router = XYRouter(self.params)
        self.sif = SystemInterface(self.params, self.router)
        self.memctrl = MemoryControllers(sim, self.params, device_id)
        # Core contexts are built by core() on first use: a run pays only
        # for the cores it touches.
        self._cores: list[Optional[CoreEnv]] = [None] * self.params.num_cores
        #: Interconnect fabric for off-die accesses: the host installs this
        #: device's communication task (``repro.host.commtask``) here.
        self.fabric = None
        self._available: Optional[list[int]] = None

    # -- boot / availability ---------------------------------------------------

    def boot(
        self,
        failure_prob: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        failed_cores: Sequence[int] = (),
    ) -> list[int]:
        """Boot one Linux instance per core; some may silently fail.

        ``failure_prob`` draws i.i.d. silent failures (paper §4);
        ``failed_cores`` forces specific ones (for tests). Returns the
        sorted list of available core ids.
        """
        if not 0.0 <= failure_prob < 1.0:
            raise ValueError(f"failure probability {failure_prob} outside [0, 1)")
        failed = set(int(c) for c in failed_cores)
        for c in failed:
            self.params._check_core(c)
        if failure_prob > 0.0:
            rng = rng or np.random.default_rng()
            draws = rng.random(self.params.num_cores) < failure_prob
            failed.update(int(i) for i in np.nonzero(draws)[0])
        # A device must keep at least one live core to be usable at all.
        if len(failed) >= self.params.num_cores:
            failed.discard(min(failed))
        self._available = [i for i in range(self.params.num_cores) if i not in failed]
        return list(self._available)

    @property
    def available_cores(self) -> list[int]:
        if self._available is None:
            raise RuntimeError(f"device {self.device_id} has not been booted")
        return list(self._available)

    def core(self, core_id: int) -> CoreEnv:
        self.params._check_core(core_id)
        env = self._cores[core_id]
        if env is None:
            env = self._cores[core_id] = CoreEnv(self, core_id)
        return env

    # -- observability ------------------------------------------------------------

    def metrics_snapshot(self) -> dict[str, float]:
        """On-die series of this device, labeled ``{device=<id>}``."""
        snap = merge_snapshots(
            (self.router.metrics_snapshot(), self.memctrl.metrics_snapshot())
        )
        if self._available is not None:
            snap["cores.available"] = float(len(self._available))
        return label_keys(snap, device=self.device_id)
