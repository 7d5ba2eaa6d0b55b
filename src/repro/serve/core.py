"""Service core: the job-lifecycle state machine, clock-injected.

Everything that decides *what happens to a job* lives here, synchronous
and deterministic: submission, dispatch (via the
:class:`~repro.serve.scheduler.FairShareScheduler`), attempt outcomes,
retry budgets, cancellation, and the exactly-one-terminal-state
invariant. The asyncio service (:mod:`repro.serve.service`) is a
thin shell that feeds this core with pool messages and executes the
directives it returns. :func:`repro.scenarios.run_fleet`, the serve
pin, drives it synchronously: one attempt at a time on the calling
thread, on a constant clock. The test harness feeds it directly with a
fake clock and a virtual pool, which is how scheduler behaviour is
tested without a single real timer.

State machine (DESIGN.md §13)::

    submit          dispatch           outcome
    ──────▶ PENDING ───────▶ RUNNING ──┬──▶ COMPLETED
              ▲                        ├──▶ FAILED      (sim error, or
              │     infra retry        │                 budget exhausted)
              └────────────────────────┤
                                       └──▶ CANCELLED

Simulation errors never retry (they are deterministic — the same spec
would fail identically); only *infrastructure* failures (worker death,
abort) consume the retry budget. No wall-clock limit ends an attempt;
cancel does. Every transition into a terminal state happens exactly
once — a second transition raises, and the Hypothesis harness leans on
that.

Service-level observability rides on :class:`repro.obs.MetricsRegistry`
(a standalone registry — simulator-scoped registries belong to each
job's own system): ``serve.jobs{state=}`` counters, per-tenant
``serve.queue_depth{tenant=}`` gauges, a ``serve.running`` gauge, and
``serve.queue_wait_ms`` / ``serve.run_ms`` / per-tenant
``serve.job_latency_ms{tenant=}`` histograms (p50/p95/p99 in snapshots).

Unpinned: the failure, retry and cancel paths and the snapshots — the
pin's fleet only completes; the core, property and chaos suites drive
them (ROADMAP 21).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Mapping, Optional

from repro.obs.metrics import MetricsRegistry
from repro.results import JobResult

from .job import JOB_EVENT_SCHEMA, JobSpec, JobState, TERMINAL_STATES
from .scheduler import FairShareScheduler

__all__ = ["JobRecord", "ServeCore"]

#: Latency percentiles the service reports (p50/p95/p99).
LATENCY_PERCENTILES = (50.0, 95.0, 99.0)


class JobRecord:
    """Mutable lifecycle state of one job inside the core."""

    __slots__ = (
        "spec",
        "job_id",
        "seq",
        "state",
        "attempts",
        "submitted_at",
        "enqueued_at",
        "attempt_started_at",
        "finished_at",
        "worker",
        "cancel_requested",
        "queue_wait_s",
        "error",
        "result",
    )

    def __init__(self, spec: JobSpec, job_id: str, seq: int, now: float):
        self.spec = spec
        self.job_id = job_id
        #: Global submission order; FIFO tie-break within a priority.
        self.seq = seq
        self.state = JobState.PENDING
        self.attempts = 0
        self.submitted_at = now
        #: Last time the job entered the queue (submission or retry).
        self.enqueued_at = now
        self.attempt_started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.worker: Optional[int] = None
        self.cancel_requested = False
        #: Accumulated wall seconds spent queued across attempts.
        self.queue_wait_s = 0.0
        self.error: Optional[dict] = None
        self.result: Optional[JobResult] = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES


class ServeCore:
    """Deterministic heart of the service; returns (events, directives).

    Every mutating method returns the job events to stream (already in
    the ``schemas/job_result.schema.json`` envelope) and, where the
    caller must act on the worker pool, directives of the form
    ``("kill", worker_id)``.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        weights: Optional[Mapping[str, float]] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.clock = clock or time.monotonic
        self.scheduler = FairShareScheduler(weights)
        self.registry = registry or MetricsRegistry(enabled=True)
        self.jobs: dict[str, JobRecord] = {}
        #: worker id -> job_id of the attempt it is running.
        self.worker_jobs: dict[int, str] = {}
        self._seq = 0
        self._event_seq = 0
        self._t0 = self.clock()
        self._running_gauge = self.registry.gauge("serve.running")

    # -- event plumbing --------------------------------------------------------

    def _event(self, job: JobRecord, type_: str, **fields: Any) -> dict:
        self._event_seq += 1
        event = {
            "schema": JOB_EVENT_SCHEMA,
            "type": type_,
            "job_id": job.job_id,
            "tenant": job.spec.tenant,
            "attempt": job.attempts,
            "seq": self._event_seq,
            "wall_s": max(0.0, self.clock() - self._t0),
        }
        event.update(fields)
        return event

    def wrap_stream_event(self, job_id: str, payload: Mapping[str, Any]) -> dict:
        """Envelope a worker-side event (progress/metrics) for streaming."""
        job = self.jobs[job_id]
        payload = dict(payload)
        type_ = payload.pop("type", "progress")
        return self._event(job, type_, **payload)

    def _gauge_queue(self, tenant: str) -> None:
        self.registry.gauge("serve.queue_depth", tenant=tenant).set(
            self.scheduler.depth(tenant)
        )

    # -- lifecycle entry points ------------------------------------------------

    def submit(self, spec: JobSpec) -> tuple[JobRecord, list[dict]]:
        spec.validate()
        now = self.clock()
        self._seq += 1
        job_id = f"{spec.tenant}/{self._seq}"
        job = JobRecord(spec, job_id, self._seq, now)
        self.jobs[job_id] = job
        self.scheduler.push(job)
        self.registry.counter("serve.jobs", state="accepted").inc()
        self._gauge_queue(spec.tenant)
        event = self._event(
            job,
            "queued",
            priority=spec.priority,
            queue_depth=float(len(self.scheduler)),
        )
        return job, [event]

    def next_assignment(self, worker: int) -> Optional[tuple[JobRecord, list[dict]]]:
        """Dispatch the next queued job onto ``worker``, if any."""
        if worker in self.worker_jobs:
            raise RuntimeError(f"worker {worker} is already running a job")
        job = self.scheduler.pop()
        if job is None:
            return None
        now = self.clock()
        wait_s = max(0.0, now - job.enqueued_at)
        job.queue_wait_s += wait_s
        job.state = JobState.RUNNING
        job.attempts += 1
        job.attempt_started_at = now
        job.worker = worker
        self.worker_jobs[worker] = job.job_id
        self.registry.histogram("serve.queue_wait_ms").observe(wait_s * 1e3)
        self._running_gauge.set(len(self.worker_jobs))
        self._gauge_queue(job.spec.tenant)
        return job, [self._event(job, "started", worker=float(worker))]

    def attempt_finished(self, job_id: str, payload: Mapping[str, Any]) -> list[dict]:
        """A worker reported a completed run for the job's live attempt."""
        job = self.jobs[job_id]
        self._release_worker(job)
        if job.cancel_requested:
            # The cancel raced the completion: the work is done, honor it.
            job.cancel_requested = False
        now = self.clock()
        run_s = max(0.0, now - (job.attempt_started_at or now))
        result = JobResult(
            job_id=job.job_id,
            tenant=job.spec.tenant,
            state=JobState.COMPLETED.value,
            attempts=job.attempts,
            sim_now_ns=payload.get("sim_now_ns"),
            events=payload.get("events"),
            elapsed_ns=payload.get("elapsed_ns"),
            core_cycles=payload.get("core_cycles"),
            degraded_devices=tuple(payload.get("degraded_devices", ())),
            metrics=dict(payload.get("metrics", {})),
            queue_wait_s=job.queue_wait_s,
            run_s=run_s,
        )
        return self._finalize(job, JobState.COMPLETED, result, now)

    def attempt_failed(
        self, job_id: str, error: Mapping[str, Any], infra: bool
    ) -> list[dict]:
        """A worker attempt ended without a result.

        ``infra`` distinguishes infrastructure failures (worker death,
        aborts) — which retry while budget remains — from deterministic
        simulation errors, which fail the job immediately.
        """
        job = self.jobs[job_id]
        self._release_worker(job)
        now = self.clock()
        error = dict(error)
        if job.cancel_requested:
            result = self._result_for(job, JobState.CANCELLED, error=None, now=now)
            return self._finalize(job, JobState.CANCELLED, result, now)
        if infra and job.attempts < job.spec.max_attempts:
            job.state = JobState.PENDING
            job.enqueued_at = now
            job.worker = None
            self.scheduler.push(job)
            self.registry.counter("serve.jobs", state="retried").inc()
            self._gauge_queue(job.spec.tenant)
            return [self._event(job, "retrying", error=error)]
        result = self._result_for(job, JobState.FAILED, error=error, now=now)
        return self._finalize(job, JobState.FAILED, result, now)

    def request_cancel(self, job_id: str) -> tuple[list[dict], list[tuple]]:
        """Cancel a job; returns (events, pool directives)."""
        job = self.jobs.get(job_id)
        if job is None:
            raise KeyError(f"unknown job {job_id!r}")
        if job.terminal:
            return [], []
        now = self.clock()
        if job.state is JobState.PENDING:
            if not self.scheduler.remove(job):
                raise RuntimeError(f"pending job {job_id!r} missing from queue")
            self._gauge_queue(job.spec.tenant)
            result = self._result_for(job, JobState.CANCELLED, error=None, now=now)
            return self._finalize(job, JobState.CANCELLED, result, now), []
        # RUNNING: ask the pool to kill the attempt; the worker-death
        # report finishes the transition (cancel_requested steers it).
        if job.cancel_requested:
            return [], []
        job.cancel_requested = True
        return [], [("kill", job.worker)]

    def worker_died(self, worker: int) -> list[dict]:
        """The pool lost a worker; fail its live attempt (infra)."""
        job_id = self.worker_jobs.get(worker)
        if job_id is None:
            return []
        return self.attempt_failed(
            job_id,
            {"type": "WorkerDied", "message": f"worker {worker} died mid-attempt"},
            infra=True,
        )

    # -- terminal bookkeeping --------------------------------------------------

    def _release_worker(self, job: JobRecord) -> None:
        if job.state is not JobState.RUNNING:
            raise RuntimeError(
                f"job {job.job_id!r} got an attempt outcome in state {job.state}"
            )
        if job.worker is not None:
            self.worker_jobs.pop(job.worker, None)
            job.worker = None
        self._running_gauge.set(len(self.worker_jobs))

    def _result_for(
        self,
        job: JobRecord,
        state: JobState,
        error: Optional[Mapping[str, Any]],
        now: float,
    ) -> JobResult:
        run_s = 0.0
        if job.attempt_started_at is not None and job.attempts:
            run_s = max(0.0, now - job.attempt_started_at)
        degraded = tuple((error or {}).get("degraded_devices", ()))
        error_out = None
        if error is not None:
            error_out = {"type": error["type"], "message": error.get("message", "")}
        return JobResult(
            job_id=job.job_id,
            tenant=job.spec.tenant,
            state=state.value,
            attempts=job.attempts,
            degraded_devices=degraded,
            error=error_out,
            queue_wait_s=job.queue_wait_s,
            run_s=run_s,
        )

    def _finalize(
        self, job: JobRecord, state: JobState, result: JobResult, now: float
    ) -> list[dict]:
        if job.terminal:
            raise RuntimeError(
                f"job {job.job_id!r} reached a second terminal state "
                f"({job.state} -> {state})"
            )
        job.state = state
        job.finished_at = now
        job.result = result
        job.error = result.error
        self.registry.counter("serve.jobs", state=state.value).inc()
        latency_ms = max(0.0, now - job.submitted_at) * 1e3
        self.registry.histogram("serve.job_latency_ms", tenant=job.spec.tenant).observe(
            latency_ms
        )
        if state is JobState.COMPLETED:
            self.registry.histogram("serve.run_ms").observe(result.run_s * 1e3)
        return [self._event(job, "result", job_result=result.to_dict())]

    # -- introspection ---------------------------------------------------------

    def all_terminal(self) -> bool:
        return not self.worker_jobs and len(self.scheduler) == 0 and all(
            job.terminal for job in self.jobs.values()
        )

    def unfinished(self) -> list[str]:
        return [j.job_id for j in self.jobs.values() if not j.terminal]

    def snapshot(self) -> dict[str, float]:
        """Service-level metrics in the uniform series-key format."""
        snap = self.registry.snapshot()
        snap["serve.jobs_known"] = float(len(self.jobs))
        snap["serve.queued"] = float(len(self.scheduler))
        return snap

    def latency_summary(self) -> dict[str, dict[str, float]]:
        """Per-tenant job-latency percentiles (ms), via the registry."""
        out: dict[str, dict[str, float]] = {}
        for key, inst in list(self.registry._series.items()):
            if not key.startswith("serve.job_latency_ms{"):
                continue
            tenant = key[len("serve.job_latency_ms{tenant=") : -1]
            if getattr(inst, "count", 0):
                out[tenant] = {
                    "count": float(inst.count),
                    **inst.percentiles(LATENCY_PERCENTILES),
                }
        return out
