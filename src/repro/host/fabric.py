"""Interconnect fabric installed on each device by the host.

:class:`HostFabric` is what a :class:`repro.scc.core.CoreEnv` calls for
any access that leaves the die. It classifies the access against the
region registry (flag / buffer / unregistered) and the host's feature
configuration, and dispatches to the matching communication-task path:

========================  =========================================
access                     path
========================  =========================================
read, extensions on        software cache + push stream (Fig 4b)
read, transparent          per-line routed round trips [13]
write, fast-ack cable      FPGA-acked streaming (hw upper bound)
write, registered buffer   host write-combining stream (Fig 4c)
write, otherwise           per-line routed round trips
flag write                 immediate-ack fast path (or routed)
MMIO                       register bank of this device's task
========================  =========================================
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Union

import numpy as np

from repro.scc.mpb import MpbAddr, as_u8

from .regions import RegionKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.scc.core import CoreEnv

    from .driver import Host

__all__ = ["HostFabric"]

Bytes = Union[bytes, bytearray, np.ndarray]


class HostFabric:
    """Off-die access dispatcher for one device."""

    def __init__(self, host: "Host", device_id: int):
        self.host = host
        self.device_id = device_id

    def _task(self):
        return self.host.task_of(self.device_id)

    # -- reads ---------------------------------------------------------------

    def remote_read(self, env: "CoreEnv", addr: MpbAddr, length: int) -> Generator:
        host = self.host
        kind = host.regions.classify(addr, length)
        if (
            host.extensions_enabled
            and kind is RegionKind.BUFFER
        ):
            data = yield from host.cache.serve(env, addr, length)
            return data
        # Flag reads bypass all host buffers (forwarded without caching,
        # §3.1); unregistered spans and transparent mode are routed.
        data = yield from self._task().transparent_read(env, addr, length)
        return data

    # -- writes -----------------------------------------------------------------

    def remote_write(self, env: "CoreEnv", addr: MpbAddr, data: Bytes) -> Generator:
        host = self.host
        payload = as_u8(data)
        cable = host.cable_of(self.device_id)
        if cable.fast_write_ack:
            yield from self._task().streamed_write(env, addr, payload, via_host_wcb=False)
            return
        kind = host.regions.classify(addr, len(payload))
        if host.extensions_enabled and kind is RegionKind.BUFFER:
            yield from self._task().streamed_write(env, addr, payload, via_host_wcb=True)
            return
        yield from self._task().transparent_write(env, addr, payload)

    def wcb_open(self, env: "CoreEnv", target: MpbAddr, nbytes: int) -> Generator:
        """Announce a remote-put stream (MSG registers, fused write)."""
        self.host.require_extensions("host write-combining streams")
        yield from self._task().issue_wcb_open(env, target, nbytes)

    def direct_write(self, env: "CoreEnv", addr: MpbAddr, data: Bytes) -> Generator:
        """Sub-threshold direct transfer path (requires extensions)."""
        self.host.require_extensions("direct small-message transfers")
        yield from self._task().small_direct_write(env, addr, as_u8(data))

    def remote_flag_write(self, env: "CoreEnv", addr: MpbAddr, value: int) -> Generator:
        fast = self.host.extensions_enabled or self.host.cable_of(self.device_id).fast_write_ack
        yield from self._task().flag_write(env, addr, value, fast_ack=fast)

    # -- MMIO ----------------------------------------------------------------------

    def mmio_write(self, env: "CoreEnv", reg: int, value: object) -> Generator:
        """Write one register: always a single transaction."""
        self.host.require_extensions("memory-mapped registers")
        yield from self._task().mmio_write(env, [(reg, value)], fused=False)

    def mmio_write_block(
        self, env: "CoreEnv", regs: list[tuple[int, object]], fused: bool
    ) -> Generator:
        """Write several registers; ``fused`` models one WCB transaction."""
        self.host.require_extensions("memory-mapped registers")
        yield from self._task().mmio_write(env, regs, fused=fused)

    def mmio_read(self, env: "CoreEnv", reg: int) -> Generator:
        self.host.require_extensions("memory-mapped registers")
        value = yield from self._task().mmio_read(env, reg)
        return value
