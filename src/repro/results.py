"""The run-result surface of the RCCE session.

:class:`RunResult` is what ``RcceSession.run()`` returns — and so
``VSCCSystem.run()``, the same session with a host tier — the
``run() -> RunResult`` API that replaced the historic ``launch() ->
dict`` surface. :class:`JobResult` is what a served job resolves to. The
module is dependency-free, so the session (:mod:`repro.rcce.session`)
and the service (:mod:`repro.serve`) share the types without a layering
cycle.

Unpinned: ``JobResult.ok``/``from_dict`` — the service's job-stream
readers (ROADMAP 21).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional

__all__ = ["JobResult", "RunResult"]


@dataclass(frozen=True)
class RunResult:
    """What one ``run()`` call produced.

    ``elapsed_ns``/``core_cycles`` cover only this run (the simulator
    clock is monotonic across runs on the same system).
    """

    #: Per-rank return value of the program generator.
    results: dict[int, Any] = field(default_factory=dict)
    #: Simulated wall time this run took (ns).
    elapsed_ns: float = 0.0
    #: ``elapsed_ns`` in core-clock cycles (533 MHz by default).
    core_cycles: float = 0.0
    #: Aggregated metrics snapshot at the end of the run (cumulative
    #: over the system's lifetime, not per-run).
    metrics: dict[str, float] = field(default_factory=dict)
    #: Where the Chrome trace was written, if requested.
    trace_path: Optional[Path] = None
    #: Devices quarantined during this system's lifetime (retry budget
    #: exhausted under a fault plan), sorted. Empty on fault-free runs —
    #: and on faulty runs the resilience layer fully absorbed.
    degraded_devices: tuple[int, ...] = ()

    def __getitem__(self, rank: int) -> Any:
        return self.results[rank]


@dataclass(frozen=True)
class JobResult:
    """Terminal outcome of one :mod:`repro.serve` job.

    The service-level counterpart of :class:`RunResult`: where a
    ``RunResult`` is what one in-process ``run()`` call returned, a
    ``JobResult`` wraps that run with the job lifecycle around it —
    tenant, attempts, queue/run wall latencies, and the error that ended
    a failed job. Everything here is plain JSON-serializable data
    (:meth:`to_dict`/:meth:`from_dict` round-trip exactly), because job
    results cross process boundaries and are streamed to submitters as
    the ``result`` payload of ``schemas/job_result.schema.json``.
    """

    #: Service-assigned job id (unique within one service lifetime).
    job_id: str
    tenant: str
    #: Terminal :class:`repro.serve.JobState` value: ``"completed"``,
    #: ``"failed"`` or ``"cancelled"`` — exactly one per job, ever.
    state: str
    #: Attempts consumed (1 on the happy path; >1 after infra retries).
    attempts: int = 1
    #: Simulated clock at the end of the run (ns); ``None`` when the job
    #: never produced a completed run.
    sim_now_ns: Optional[float] = None
    #: Kernel events the run dispatched.
    events: Optional[float] = None
    #: Simulated wall time of the run (ns), per ``RunResult.elapsed_ns``.
    elapsed_ns: Optional[float] = None
    core_cycles: Optional[float] = None
    #: Devices quarantined-but-recovered during the run (degraded mode).
    degraded_devices: tuple[int, ...] = ()
    #: Final aggregated ``metrics_snapshot()`` of the job's system.
    metrics: dict[str, float] = field(default_factory=dict)
    #: ``{"type": ..., "message": ...}`` for failed jobs, else ``None``.
    error: Optional[dict] = None
    #: Wall seconds spent queued (submission → last dispatch).
    queue_wait_s: float = 0.0
    #: Wall seconds of the terminal attempt (dispatch → outcome).
    run_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.state == "completed"

    def to_dict(self) -> dict:
        """JSON-ready mapping (the ``job_result`` schema payload)."""
        out: dict[str, Any] = {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "state": self.state,
            "attempts": self.attempts,
            "degraded_devices": list(self.degraded_devices),
            "metrics": dict(self.metrics),
            "queue_wait_s": self.queue_wait_s,
            "run_s": self.run_s,
        }
        for key in ("sim_now_ns", "events", "elapsed_ns", "core_cycles"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.error is not None:
            out["error"] = dict(self.error)
        return out

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "JobResult":
        return cls(
            job_id=doc["job_id"],
            tenant=doc["tenant"],
            state=doc["state"],
            attempts=int(doc.get("attempts", 1)),
            sim_now_ns=doc.get("sim_now_ns"),
            events=doc.get("events"),
            elapsed_ns=doc.get("elapsed_ns"),
            core_cycles=doc.get("core_cycles"),
            degraded_devices=tuple(doc.get("degraded_devices", ())),
            metrics=dict(doc.get("metrics", {})),
            error=dict(doc["error"]) if doc.get("error") is not None else None,
            queue_wait_s=float(doc.get("queue_wait_s", 0.0)),
            run_s=float(doc.get("run_s", 0.0)),
        )
