"""Simulated Intel SCC: chip geometry, timing model, on-chip memory.

Public surface::

    from repro.scc import SCCParams, SCCDevice, MpbAddr, CACHE_LINE
"""

from .cache import L1MpbtCache
from .chip import SCCDevice
from .core import CoreEnv
from .memctrl import MemoryControllers
from .mesh import XYRouter
from .mpb import MpbAddr, MPBMemory
from .params import CACHE_LINE, SCCParams
from .sif import SIF_TILE_XY, SystemInterface

__all__ = [
    "CACHE_LINE",
    "CoreEnv",
    "L1MpbtCache",
    "MPBMemory",
    "MemoryControllers",
    "MpbAddr",
    "SCCDevice",
    "SCCParams",
    "SIF_TILE_XY",
    "SystemInterface",
    "XYRouter",
]
