"""Job model of the vSCC service: specs, states, execution.

A *job* is one simulation run requested by a tenant: a
:class:`repro.vscc.VSCCSystem` configuration (device count, scheme,
seed, optional fault plan) plus a named *workload*
(:data:`repro.scenarios.WORKLOADS`) with parameters. Specs are pure
data, picklable across the worker-pool process boundary, so the worker
that executes a job rebuilds the whole system from scratch, which is
also what makes job outcomes deterministic: the same spec always
produces the bit-identical simulated fingerprint, no matter which
worker ran it, in what order, or how many times it was retried.

:func:`execute_job` is the single execution path. It is synchronous and
process-agnostic: the process pool calls it inside a worker, the inline
pool calls it on a thread, and :func:`repro.scenarios.run_fleet` and the
tests call it directly. Progress and metrics snapshots stream out
through the ``emit`` callback as the payloads of
``schemas/job_result.schema.json`` events.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Mapping, Optional

__all__ = [
    "JOB_EVENT_SCHEMA",
    "JobAborted",
    "JobError",
    "JobSpec",
    "JobState",
    "PROGRESS_EVERY_EVENTS",
    "TERMINAL_STATES",
    "execute_job",
]

#: Schema tag carried by every streamed job event
#: (``schemas/job_result.schema.json``).
JOB_EVENT_SCHEMA = "repro.job_event/v1"

#: Kernel events between streamed ``progress`` events and between the
#: cooperative abort checks of an attempt.
PROGRESS_EVERY_EVENTS = 25_000


class JobState(str, Enum):
    """Lifecycle states of a job. Exactly one terminal state per job."""

    #: Accepted and queued (also the state a retried job returns to).
    PENDING = "pending"
    #: An attempt is executing on a worker.
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    CANCELLED = "cancelled"


TERMINAL_STATES = frozenset(
    {JobState.COMPLETED, JobState.FAILED, JobState.CANCELLED}
)


class JobAborted(Exception):
    """The attempt was cooperatively aborted (cancel or worker kill)."""


class JobError(Exception):
    """A job attempt failed inside the simulation.

    Carries enough structure to propagate cleanly across the worker
    boundary: the original exception's type name (``DeviceQuarantined``,
    ``DeadlockError``, …), its message, and any devices the run had
    already degraded before failing.
    """

    def __init__(
        self,
        error_type: str,
        message: str,
        degraded_devices: tuple[int, ...] = (),
    ):
        self.error_type = error_type
        self.message = message
        self.degraded_devices = tuple(degraded_devices)
        super().__init__(f"{error_type}: {message}")

    def to_dict(self) -> dict:
        out: dict[str, Any] = {"type": self.error_type, "message": self.message}
        if self.degraded_devices:
            out["degraded_devices"] = list(self.degraded_devices)
        return out


# -- the job spec --------------------------------------------------------------


@dataclass(frozen=True)
class JobSpec:
    """Everything needed to reproduce one simulation job from scratch."""

    #: Workload name, a key of :data:`repro.scenarios.WORKLOADS`.
    workload: str = "pingpong"
    #: Workload parameters (JSON-able scalars/tuples only).
    params: Mapping[str, Any] = field(default_factory=dict)
    tenant: str = "default"
    #: Higher runs first *within the tenant*; tenants compete by
    #: fair-share, never by priority (one tenant cannot starve another).
    priority: int = 0
    num_devices: int = 1
    #: ``CommScheme`` member name or value (``"LOCAL_PUT_LOCAL_GET_VDMA"``
    #: / ``"vdma"``); ``None`` keeps the system default.
    scheme: Optional[str] = None
    seed: Optional[int] = None
    #: Optional chaos plan installed into the job's own system.
    fault_plan: Optional[object] = None
    #: Attempts the service may spend on infrastructure failures (worker
    #: death, abort). Simulation errors never retry — they are
    #: deterministic and would fail identically again.
    max_attempts: int = 2

    def validate(self) -> None:
        from repro.scenarios import WORKLOADS

        if self.workload not in WORKLOADS:
            raise ValueError(
                f"unknown workload {self.workload!r}; "
                f"registered: {', '.join(sorted(WORKLOADS))}"
            )
        if not self.tenant:
            raise ValueError("tenant must be a non-empty string")
        if self.num_devices < 1:
            raise ValueError(f"num_devices must be >= 1, got {self.num_devices}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        self.resolved_scheme()  # raises on unknown scheme names

    def resolved_scheme(self):
        """The spec's :class:`~repro.vscc.schemes.CommScheme`, or None."""
        if self.scheme is None:
            return None
        from repro.vscc.schemes import CommScheme

        try:
            return CommScheme(self.scheme)
        except ValueError:
            try:
                return CommScheme[self.scheme]
            except KeyError:
                raise ValueError(f"unknown scheme {self.scheme!r}") from None


# -- execution -----------------------------------------------------------------


def execute_job(
    spec: JobSpec,
    emit: Optional[Callable[[dict], None]] = None,
    abort: Optional[threading.Event] = None,
) -> dict:
    """Run one attempt of ``spec`` to completion, synchronously.

    Streams ``progress`` events (every :data:`PROGRESS_EVERY_EVENTS`
    kernel events) and one final ``metrics`` snapshot through ``emit``,
    then returns the terminal payload (fingerprint + metrics) the
    service wraps into a :class:`repro.results.JobResult`.

    Progress works by *chunking* the simulator's drain loop with the
    kernel's per-call ``max_events`` budget — never by injecting timer
    events, which would advance the simulated clock past the workload's
    natural end and break fingerprint parity with a direct ``run()``.
    Between chunks the attempt also checks ``abort``, the cooperative
    kill-switch of the inline pool, and unwinds with
    :class:`JobAborted`. (The process pool needs no cooperation — a
    killed worker just disappears.)

    Raises :class:`JobError` on any simulation failure, with the
    original error type (``DeviceQuarantined``, ``DeadlockError``, …)
    and the degraded-device set preserved.
    """
    from repro.scenarios import WORKLOADS
    from repro.sim.errors import ProcessFailed
    from repro.vscc.system import VSCCSystem

    spec.validate()
    if emit is None:
        emit = lambda event: None  # noqa: E731 - null sink

    system = VSCCSystem(
        num_devices=spec.num_devices,
        scheme=spec.resolved_scheme(),
        seed=spec.seed,
        fault_plan=spec.fault_plan,
    )
    sim = system.sim

    inner_run = sim.run

    def chunked_run(until=None):
        while True:
            if abort is not None and abort.is_set():
                raise JobAborted(f"attempt aborted at {sim.now} sim ns")
            before = sim.events_processed
            now = inner_run(until=until, max_events=PROGRESS_EVERY_EVENTS)
            if sim.events_processed - before < PROGRESS_EVERY_EVENTS:
                return now  # drained (or past ``until``) inside the chunk
            emit(
                {
                    "type": "progress",
                    "sim_now_ns": sim.now,
                    "events": float(sim.events_processed),
                }
            )

    sim.run = chunked_run

    try:
        run = WORKLOADS[spec.workload](system, dict(spec.params))
    except Exception as exc:  # noqa: BLE001 - re-raised with structure below
        cause = exc.__cause__ if isinstance(exc, ProcessFailed) else exc
        if isinstance(cause, JobAborted):
            raise cause from None
        if isinstance(cause, JobError):
            raise cause from exc
        degraded: tuple[int, ...] = ()
        if system.fault_injector is not None:
            degraded = system.fault_injector.degraded_devices
        raise JobError(type(cause).__name__, str(cause), degraded) from exc

    metrics = {str(k): float(v) for k, v in system.metrics.items()}
    emit({"type": "metrics", "metrics": metrics})
    return {
        "sim_now_ns": sim.now,
        "events": float(sim.events_processed),
        "elapsed_ns": run.elapsed_ns,
        "core_cycles": run.core_cycles,
        "degraded_devices": list(run.degraded_devices),
        "metrics": metrics,
    }
