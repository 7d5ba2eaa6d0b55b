"""Discrete-event simulation kernel used by the whole vSCC reproduction.

Public surface::

    from repro.sim import Simulator, Event, Link, Clock
"""

from .clock import Clock
from .engine import Event, Process, Signal, Simulator
from .errors import DeadlockError, InvalidYield, ProcessFailed, SimulationError
from .resources import Link
from .trace import TraceRecord, Tracer

__all__ = [
    "Clock",
    "DeadlockError",
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
