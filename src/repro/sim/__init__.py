"""Discrete-event simulation kernel used by the whole vSCC reproduction.

Public surface::

    from repro.sim import Simulator, Delay, Event, Link, Clock
"""

from .clock import Clock
from .engine import Delay, Event, Process, Simulator
from .engine import Signal
from .errors import DeadlockError, InvalidYield, ProcessFailed, SimulationError
from .resources import Link
from .trace import TraceRecord, Tracer

__all__ = [
    "Clock",
    "DeadlockError",
    "Delay",
    "Event",
    "InvalidYield",
    "Link",
    "Process",
    "ProcessFailed",
    "Signal",
    "SimulationError",
    "Simulator",
    "TraceRecord",
    "Tracer",
]
