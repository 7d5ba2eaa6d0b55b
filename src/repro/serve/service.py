"""The asyncio service shell around :class:`~repro.serve.core.ServeCore`.

:class:`SimService` owns the event loop side of the system: it bridges
worker-pool reader threads into a single-consumer asyncio queue
(``loop.call_soon_threadsafe`` — the only thread boundary in the whole
service), runs the dispatcher that applies each pool message to the
core, fans job events out to subscribers, and resolves the per-job
result futures that :class:`JobHandle.result` awaits.

Design rule: *the core decides, the service executes.* Every state
transition happens inside :class:`ServeCore` (synchronous,
deterministic, fake-clock-testable); this module only moves messages
and performs the directives — pool kills, respawns — the core hands
back. If you are looking for scheduling or retry policy, it is not
here.

Unpinned: no pin reaches :class:`SimService` or :class:`JobHandle`; the
``serve_fleet`` workload of ``benchmarks/e2e`` and the chaos suites keep
them (ROADMAP 21).
"""

from __future__ import annotations

import asyncio
import collections
from typing import AsyncIterator, Mapping, Optional

from repro.results import JobResult

from .core import ServeCore
from .job import JobSpec
from .pool import InlinePool, ProcessPool

__all__ = ["JobHandle", "SimService"]

#: Sentinel posted to the message queue to stop the dispatcher.
_SHUTDOWN = object()


class JobHandle:
    """A submitted job, as seen by its submitter.

    Subscribes to the job's event stream at submission time, so
    :meth:`events` never misses the ``queued`` event no matter how late
    it is consumed.
    """

    def __init__(self, service: "SimService", job_id: str,
                 queue: "asyncio.Queue", future: "asyncio.Future"):
        self.service = service
        self.job_id = job_id
        self._queue = queue
        self._future = future

    async def result(self, timeout: Optional[float] = None) -> JobResult:
        """The terminal :class:`JobResult` (never raises for job errors —
        inspect ``result.state`` / ``result.error``)."""
        if timeout is None:
            return await asyncio.shield(self._future)
        return await asyncio.wait_for(asyncio.shield(self._future), timeout)

    async def events(self) -> AsyncIterator[dict]:
        """Stream this job's events; ends after the ``result`` event."""
        while True:
            event = await self._queue.get()
            yield event
            if event["type"] == "result":
                return

    async def cancel(self) -> None:
        await self.service.cancel(self.job_id)


class SimService:
    """Multi-tenant async façade over the vSCC simulator.

    ``pool`` selects the execution backend: ``"process"`` (forked
    workers, hard kills — the default) or ``"inline"`` (threads,
    cooperative kills — test-friendly); both implement the contract in
    :mod:`repro.serve.pool`.
    """

    def __init__(
        self,
        workers: int = 2,
        pool: str = "process",
        weights: Optional[Mapping[str, float]] = None,
    ):
        self.core = ServeCore(weights=weights)
        self._pool_spec = pool
        self._workers = workers
        self.pool: Optional[ProcessPool | InlinePool] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._queue: Optional[asyncio.Queue] = None
        #: Pool messages posted from other threads, moved onto ``_queue``
        #: by ``_drain_inbox`` on the loop thread.
        self._inbox: collections.deque = collections.deque()
        self._wake_pending = False
        self._dispatcher: Optional[asyncio.Task] = None
        self._subs: dict[str, list[asyncio.Queue]] = {}
        self._futures: dict[str, asyncio.Future] = {}
        #: Every event ever broadcast, in order — the service-level
        #: audit log the bench fingerprints and schema tests read.
        self.event_log: list[dict] = []
        self._started = False

    # -- lifecycle -------------------------------------------------------------

    def _make_pool(self):
        if self._pool_spec == "process":
            return ProcessPool(self._workers, self._post)
        if self._pool_spec == "inline":
            return InlinePool(self._workers, self._post)
        raise ValueError(f"unknown pool spec {self._pool_spec!r}")

    async def start(self) -> "SimService":
        if self._started:
            raise RuntimeError("service already started")
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue()
        self.pool = self._make_pool()
        self.pool.start()
        self._dispatcher = asyncio.create_task(
            self._dispatch_loop(), name="serve-dispatcher"
        )
        self._started = True
        return self

    async def shutdown(self, timeout: float = 30.0) -> None:
        """Cancel everything unfinished, drain, stop the pool."""
        if not self._started:
            return
        for job_id in self.core.unfinished():
            await self.cancel(job_id)
        try:
            await self.join(timeout=timeout)
        except asyncio.TimeoutError:
            pass  # stop anyway; pool teardown hard-kills stragglers
        self._queue.put_nowait(_SHUTDOWN)
        await self._dispatcher
        await asyncio.get_running_loop().run_in_executor(None, self.pool.stop)
        for future in self._futures.values():
            if not future.done():
                future.cancel()
        self._started = False

    async def __aenter__(self) -> "SimService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.shutdown()

    # -- submission API --------------------------------------------------------

    async def submit(self, spec: JobSpec) -> JobHandle:
        if not self._started:
            raise RuntimeError("service is not running (use `async with` "
                               "or await start())")
        job, events = self.core.submit(spec)
        queue: asyncio.Queue = asyncio.Queue()
        self._subs[job.job_id] = [queue]
        future = self._loop.create_future()
        self._futures[job.job_id] = future
        handle = JobHandle(self, job.job_id, queue, future)
        self._broadcast(events)
        self._dispatch()
        return handle

    async def cancel(self, job_id: str) -> None:
        events, directives = self.core.request_cancel(job_id)
        self._broadcast(events)
        for _, worker in directives:
            self.pool.kill(worker)

    async def join(self, timeout: Optional[float] = None) -> list[JobResult]:
        """Wait for every known job to reach its terminal state."""
        pending = [asyncio.shield(f) for f in self._futures.values()]
        if not pending:
            return []
        gathered = asyncio.gather(*pending)
        if timeout is not None:
            gathered = asyncio.wait_for(gathered, timeout)
        return list(await gathered)

    # -- observability ---------------------------------------------------------

    def metrics_snapshot(self) -> dict[str, float]:
        return self.core.snapshot()

    def latency_summary(self) -> dict[str, dict[str, float]]:
        return self.core.latency_summary()

    def chaos_kill_worker(self, worker: int) -> None:
        """Test hook: hard-kill a worker mid-whatever (chaos harness)."""
        self.pool.kill(worker)

    # -- internals -------------------------------------------------------------

    def _post(self, msg: dict) -> None:
        """Thread-safe entry for pool messages (reader threads land here).

        Wake-ups are coalesced: one ``call_soon_threadsafe`` per drain,
        not one per message. An inline attempt streams progress every
        few hundred microseconds of CPU; a self-pipe write per message
        releases and at once retakes the GIL, which restarts CPython's
        switch-interval wait of the loop thread, so the loop starved and
        cancels waited for the attempt to finish.
        """
        self._inbox.append(msg)
        if not self._wake_pending:
            self._wake_pending = True
            self._loop.call_soon_threadsafe(self._drain_inbox)

    def _drain_inbox(self) -> None:
        self._wake_pending = False
        while self._inbox:
            self._queue.put_nowait(self._inbox.popleft())

    async def _dispatch_loop(self) -> None:
        while True:
            msg = await self._queue.get()
            if msg is _SHUTDOWN:
                return
            self._handle(msg)

    def _handle(self, msg: dict) -> None:
        kind = msg["type"]
        if kind == "attempt_done":
            job_id = msg["job_id"]
            if self.core.worker_jobs.get(msg["worker"]) != job_id:
                return  # stale report from a killed incarnation
            if msg["ok"]:
                events = self.core.attempt_finished(job_id, msg["payload"])
            else:
                events = self.core.attempt_failed(
                    job_id, msg["error"], infra=msg.get("infra", True)
                )
            self._broadcast(events)
            self._dispatch()
        elif kind == "stream":
            job_id = msg["job_id"]
            if self.core.worker_jobs.get(msg["worker"]) != job_id:
                return
            self._broadcast([self.core.wrap_stream_event(job_id, msg["event"])])
        elif kind == "worker_exit":
            worker = msg["worker"]
            if self.pool.generation(worker) != msg["gen"]:
                return  # already respawned past this incarnation
            events = self.core.worker_died(worker)
            self._broadcast(events)
            self.pool.respawn(worker)
            self._dispatch()

    def _dispatch(self) -> None:
        """Hand queued jobs to every idle, alive worker.

        Rescans after a failed assignment: the failure both requeues the
        job (or exhausts it) and respawns the slot, so the fresh
        incarnation must get a chance in this same pass — no later
        message is guaranteed to arrive and re-trigger dispatch.
        """
        while True:
            retry = False
            for worker in self.pool.workers():
                if len(self.core.scheduler) == 0:
                    return
                if worker in self.core.worker_jobs or not self.pool.alive(worker):
                    continue
                assignment = self.core.next_assignment(worker)
                if assignment is None:
                    return
                job, events = assignment
                try:
                    self.pool.assign(worker, job.job_id, job.spec)
                except Exception:  # noqa: BLE001 - worker died under us
                    events = events + self.core.worker_died(worker)
                    self.pool.respawn(worker)
                    retry = True
                self._broadcast(events)
            if not retry:
                return

    def _broadcast(self, events: list[dict]) -> None:
        for event in events:
            self.event_log.append(event)
            for queue in self._subs.get(event["job_id"], ()):
                queue.put_nowait(event)
            if event["type"] == "result":
                future = self._futures.get(event["job_id"])
                if future is not None and not future.done():
                    future.set_result(self.core.jobs[event["job_id"]].result)
