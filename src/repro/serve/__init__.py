"""vSCC-as-a-service: a multi-tenant async job layer over the simulator.

The paper models a *system* of cluster-on-a-chip processors; this
package models the operational reality of sharing that system — many
tenants submitting simulation jobs against one bounded worker pool,
with fair-share scheduling across tenants, strict priority within each,
streaming progress, cancellation, and retry budgets that distinguish
infrastructure failures (retryable) from deterministic simulation
errors (not). No wall-clock limit ends a job.

Layering, bottom-up:

* :mod:`repro.serve.job` — specs, states, and
  :func:`~repro.serve.job.execute_job` (the one execution path); the
  workloads a spec names live in :data:`repro.scenarios.WORKLOADS`.
* :mod:`repro.serve.scheduler` — deterministic two-level fair queueing.
* :mod:`repro.serve.core` — the clock-injected lifecycle state machine;
  :func:`repro.scenarios.run_fleet` drives it synchronously for the
  ``serve_mixed_tenants`` pin.
* :mod:`repro.serve.pool` — process- and thread-backed worker pools.
* :mod:`repro.serve.service` — the asyncio shell: tenants submit specs
  and await handles.

Quickstart::

    import asyncio
    from repro.serve import JobSpec, SimService

    async def main():
        async with SimService(workers=2) as service:
            handle = await service.submit(JobSpec(
                workload="pingpong", params={"sizes": (256, 4096)},
                tenant="alice", num_devices=2, scheme="vdma",
            ))
            result = await handle.result()
            print(result.state, result.sim_now_ns)

    asyncio.run(main())

Determinism contract: each job rebuilds its whole system from the spec
inside a worker, so the *simulated* outcome (``sim_now_ns``, ``events``)
is a pure function of the spec — identical across workers, schedulers,
retries and pool backends. ``REPRO_FUSE`` in the service's environment
picks the event stream (``events``) of every job; ``sim_now_ns`` is the
same under both. Only wall-clock fields (queue wait, run time) vary
between runs; the ``serve_mixed_tenants`` pin fingerprints exactly the
pure part.
"""

from .core import JobRecord, ServeCore
from .job import (
    JOB_EVENT_SCHEMA,
    JobAborted,
    JobError,
    JobSpec,
    JobState,
    TERMINAL_STATES,
    execute_job,
)
from .pool import InlinePool, ProcessPool
from .scheduler import FairShareScheduler
from .service import JobHandle, SimService

__all__ = [
    "JOB_EVENT_SCHEMA",
    "FairShareScheduler",
    "InlinePool",
    "JobAborted",
    "JobError",
    "JobHandle",
    "JobRecord",
    "JobSpec",
    "JobState",
    "ProcessPool",
    "ServeCore",
    "SimService",
    "TERMINAL_STATES",
    "execute_job",
]
