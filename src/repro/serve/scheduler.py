"""Weighted fair-share scheduling over tenants, strict priority within.

The queueing discipline of the service, kept free of asyncio and wall
clocks so every decision is a deterministic function of the submit /
dispatch history — which is what makes the fake-clock and Hypothesis
test harnesses possible.

Two levels:

* **across tenants** — min-virtual-time fair queueing. Each tenant
  accumulates virtual service time ``1/weight`` per dispatched job; the
  scheduler always serves the backlogged tenant with the smallest
  virtual time (ties break by tenant name). A tenant that goes idle
  re-enters at ``max(own vtime, global vclock)``, so sleeping never
  banks credit to burst with later — and a flood from one tenant cannot
  starve another: with ``T`` equally-weighted backlogged tenants, any
  window of ``k`` consecutive dispatches gives each tenant ``k/T ± 1``.

* **within a tenant** — strict priority, FIFO among equals: a binary
  heap on ``(-priority, submission_seq)``. Priorities order *your own*
  jobs only; they buy nothing against other tenants.

Cancellation of queued entries is lazy (a tombstone set consulted at
pop time) so cancel is O(1) and the heap never needs re-sifting.
"""

from __future__ import annotations

import heapq
from typing import Mapping, Optional

__all__ = ["FairShareScheduler"]


class FairShareScheduler:
    """Deterministic two-level queue: fair-share tenants, priority jobs.

    Entries are any objects with ``job_id``, ``seq`` (global submission
    order) and ``spec.tenant`` / ``spec.priority`` attributes — the
    service's ``JobRecord``.
    """

    def __init__(self, weights: Optional[Mapping[str, float]] = None):
        for tenant, weight in (weights or {}).items():
            if weight <= 0:
                raise ValueError(
                    f"tenant {tenant!r} weight must be positive, got {weight}"
                )
        self._weights = dict(weights or {})
        # tenant -> heap of (-priority, seq, record)
        self._queues: dict[str, list] = {}
        # live (non-tombstoned) entries per tenant
        self._depth: dict[str, int] = {}
        self._vtime: dict[str, float] = {}
        #: Virtual clock: vtime of the most recently served tenant.
        self._vclock = 0.0
        self._tombstones: set[str] = set()

    # -- configuration ---------------------------------------------------------

    def weight(self, tenant: str) -> float:
        """The tenant's share weight; 1.0 for a tenant without one."""
        return self._weights.get(tenant, 1.0)

    # -- queue state -----------------------------------------------------------

    def __len__(self) -> int:
        return sum(self._depth.values())

    def depth(self, tenant: str) -> int:
        return self._depth.get(tenant, 0)

    # -- operations ------------------------------------------------------------

    def push(self, record) -> None:
        """Enqueue a job record (first submission or a retry)."""
        tenant = record.spec.tenant
        if self._depth.get(tenant, 0) == 0:
            # (Re)activation: no banked credit from idle time, but keep
            # any vtime already accumulated (monotone per tenant).
            self._vtime[tenant] = max(self._vtime.get(tenant, 0.0), self._vclock)
        heapq.heappush(
            self._queues.setdefault(tenant, []),
            (-record.spec.priority, record.seq, record),
        )
        self._depth[tenant] = self._depth.get(tenant, 0) + 1

    def pop(self):
        """Dequeue the next job to run, or ``None`` when idle.

        Serves the backlogged tenant with minimal ``(vtime, name)``,
        then its best ``(-priority, seq)`` entry.
        """
        while True:
            best = None
            for tenant, depth in self._depth.items():
                if depth <= 0:
                    continue
                key = (self._vtime[tenant], tenant)
                if best is None or key < best[0]:
                    best = (key, tenant)
            if best is None:
                return None
            tenant = best[1]
            queue = self._queues[tenant]
            record = None
            while queue:
                _, _, candidate = heapq.heappop(queue)
                if candidate.job_id in self._tombstones:
                    self._tombstones.discard(candidate.job_id)
                    continue
                record = candidate
                break
            if record is None:
                # Every remaining entry was a tombstone; the depth said
                # otherwise — that is a bookkeeping bug, not a race.
                raise RuntimeError(f"queue depth drifted for tenant {tenant!r}")
            self._depth[tenant] -= 1
            vtime = self._vtime[tenant]
            self._vclock = max(self._vclock, vtime)
            self._vtime[tenant] = vtime + 1.0 / self.weight(tenant)
            return record

    def remove(self, record) -> bool:
        """Drop a queued record (cancellation); False if not queued."""
        tenant = record.spec.tenant
        if self._depth.get(tenant, 0) <= 0:
            return False
        if record.job_id in self._tombstones:
            return False
        queue = self._queues.get(tenant, ())
        if not any(entry[2].job_id == record.job_id for entry in queue):
            return False
        self._tombstones.add(record.job_id)
        self._depth[tenant] -= 1
        return True
