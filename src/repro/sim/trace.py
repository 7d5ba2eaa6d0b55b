"""Lightweight categorized event tracing.

Benchmarks use traces to reconstruct protocol timelines (Fig 2) and the
traffic matrix (Fig 8). Tracing is off by default; a disabled category
costs each guarded call site a method call (:meth:`Tracer.wants`) and a
set membership test.

Unpinned: ``Tracer.disable`` — ``run(trace_json=...)`` turns its
categories back off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = ["TraceRecord", "Tracer"]


@dataclass(frozen=True)
class TraceRecord:
    """One trace entry: simulated time, category and free-form payload."""

    t: float
    category: str
    payload: tuple[Any, ...]


@dataclass
class Tracer:
    """Collects :class:`TraceRecord` for enabled categories."""

    enabled: set[str] = field(default_factory=set)
    records: list[TraceRecord] = field(default_factory=list)

    def enable(self, *categories: str) -> None:
        self.enabled.update(categories)

    def disable(self, *categories: str) -> None:
        self.enabled.difference_update(categories)

    def wants(self, category: str) -> bool:
        """Cheap hot-path guard: emit only builds a payload if this holds.

        ``emit(*payload)`` makes the *caller* allocate the payload tuple
        (and often pre-format values) before the category check runs, so
        hot call sites must guard with ``if tracer.wants("cat"):`` to
        keep disabled tracing allocation-free.
        """
        return category in self.enabled

    def emit(self, t: float, category: str, *payload: Any) -> None:
        if category in self.enabled:
            self.records.append(TraceRecord(t, category, payload))

    def select(self, category: str) -> Iterator[TraceRecord]:
        return (r for r in self.records if r.category == category)
