"""Host substrate: PCIe cables, driver, and the communication task.

Public surface::

    from repro.host import Host, HostParams, PCIeParams

Each device's :class:`CommunicationTask` is also its interconnect fabric
(``SCCDevice.fabric``): every off-die access of a core enters the host
through one of the task's entry points.
"""

from .commtask import CommunicationTask
from .dma import DMAEngine
from .driver import Host, HostParams, MAX_DEVICES
from .mmio import (
    MmioBank,
    REG_CACHE_INV,
    REG_MSG_ADDR,
    REG_MSG_COUNT,
    REG_MSG_CTRL,
    REG_VDMA_ADDR,
    REG_VDMA_COUNT,
    REG_VDMA_CTRL,
)
from .pcie import PCIeCable, PCIeParams
from .regions import Region, RegionKind, RegionRegistry
from .softcache import CacheEntry, HostMpbCache
from .vdma import VdmaCommand, VDMAController
from .wcbuf import HostWriteCombiner

__all__ = [
    "CacheEntry",
    "CommunicationTask",
    "DMAEngine",
    "Host",
    "HostMpbCache",
    "HostParams",
    "HostWriteCombiner",
    "MAX_DEVICES",
    "MmioBank",
    "PCIeCable",
    "PCIeParams",
    "REG_CACHE_INV",
    "REG_MSG_ADDR",
    "REG_MSG_COUNT",
    "REG_MSG_CTRL",
    "REG_VDMA_ADDR",
    "REG_VDMA_COUNT",
    "REG_VDMA_CTRL",
    "Region",
    "RegionKind",
    "RegionRegistry",
    "VDMAController",
    "VdmaCommand",
]
