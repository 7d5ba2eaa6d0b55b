"""Memory-mapped register bank the communication task adds per device.

The paper extends the SCC's instruction set *in system software*: a new
set of memory-mapped registers, served by the communication task, lets a
core control host-side functionality — program the vDMA controller,
announce a message's location for prefetching, and invalidate the host's
software cache (paper §3.2/§3.3, Fig 5).

The three vDMA registers (address, count, control) are allocated
contiguously within one 32 B-aligned block so the core's write-combining
buffer fuses the three programming stores into a single transaction —
"continuous allocation of memory mapped register with an alignment of
32 B reduces this overhead" (§3.3). The register map below preserves that
layout; :meth:`repro.host.commtask.CommunicationTask.mmio_write` charges
the fused store as one transaction (``fused=True``), and the
``abl_mmio_fusion`` scenario of :mod:`repro.scenarios` measures its effect.
"""

from __future__ import annotations

from typing import Callable

__all__ = [
    "MmioBank",
    "REG_VDMA_ADDR",
    "REG_VDMA_COUNT",
    "REG_VDMA_CTRL",
    "REG_MSG_ADDR",
    "REG_MSG_COUNT",
    "REG_MSG_CTRL",
    "REG_CACHE_INV",
]

# Register addresses are byte offsets in the MMIO window.

# vDMA controller: one 32 B-aligned block → WCB-fusable programming.
REG_VDMA_ADDR = 0x000
REG_VDMA_COUNT = 0x008
REG_VDMA_CTRL = 0x010

# Message announcement for the software cache's prefetcher
# (sender tells the task location/size/target of a pending message).
REG_MSG_ADDR = 0x020
REG_MSG_COUNT = 0x028
REG_MSG_CTRL = 0x030

# Software-cache consistency control (paper §3.1: the sender explicitly
# invalidates the outdated part of the host copy).
REG_CACHE_INV = 0x040


class MmioBank:
    """Dispatches MMIO writes/reads of one device to host handlers.

    Handlers are registered per register address; a write handler
    receives ``(core_id, value)`` and runs in the communication task's
    context (plain callable — the task charges its own service time).
    """

    def __init__(self, device_id: int):
        self.device_id = device_id
        self._write_handlers: dict[int, Callable[[int, int], None]] = {}
        self._values: dict[int, int] = {}

    def on_write(self, reg: int, handler: Callable[[int, int], None]) -> None:
        if reg in self._write_handlers:
            raise ValueError(f"register 0x{reg:03x} already has a write handler")
        self._write_handlers[reg] = handler

    def write(self, core_id: int, reg: int, value: int) -> None:
        self._values[reg] = value
        handler = self._write_handlers.get(reg)
        if handler is not None:
            handler(core_id, value)

    def read(self, reg: int) -> int:
        return self._values.get(reg, 0)
