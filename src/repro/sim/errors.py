"""Exceptions raised by the discrete-event simulation kernel.

Unpinned: ``DeadlockError``/``ProcessFailed`` — the failure paths the
kernel tests drive.
"""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for all simulation-kernel errors."""


class DeadlockError(SimulationError):
    """The event queue drained while processes were still waiting.

    This is raised by :meth:`repro.sim.engine.Simulator.run` when there is
    at least one live process but no scheduled event that could ever wake
    it up — the simulated system has deadlocked (e.g. a receiver waits on
    a flag that no sender will set).
    """

    def __init__(self, waiting: list[str]):
        self.waiting = list(waiting)
        names = ", ".join(self.waiting) or "<unknown>"
        super().__init__(f"simulation deadlock; blocked processes: {names}")


class ProcessFailed(SimulationError):
    """A simulated process raised an exception.

    The original exception is available as ``__cause__`` and the failing
    process name as :attr:`process_name`.
    """

    def __init__(self, process_name: str, cause: BaseException):
        self.process_name = process_name
        super().__init__(f"process {process_name!r} failed: {cause!r}")
        self.__cause__ = cause


class InvalidYield(SimulationError):
    """A process yielded an object the kernel does not understand."""
