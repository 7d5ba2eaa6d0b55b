"""Unbounded FIFO queue between simulated processes.

The host communication task consumes request queues fed by the device
side; :class:`SimQueue` provides the classic put (non-blocking) / get
(blocking coroutine) pair, preserving FIFO order among waiters.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator

from .engine import Event, Simulator

__all__ = ["SimQueue"]


class SimQueue:
    """FIFO queue; ``put`` is immediate, ``get`` parks until an item exists."""

    def __init__(self, sim: Simulator, name: str = "queue"):
        self.sim = sim
        self.name = name
        self._gate_name = f"{name}.get"
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def put(self, item: Any) -> None:
        if self._getters:
            gate = self._getters.popleft()
            gate.trigger(item)
        else:
            self._items.append(item)

    def get(self) -> Generator:
        """Coroutine: return the next item, waiting if necessary."""
        if self._items:
            return self._items.popleft()
        gate = self.sim.event(name=self._gate_name)
        self._getters.append(gate)
        item = yield gate
        return item
