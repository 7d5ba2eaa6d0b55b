"""Worker pools: where job attempts actually execute.

Two interchangeable implementations behind one small contract:

* :class:`ProcessPool` — the real thing. ``size`` forked worker
  processes, each owning one end of a duplex pipe. A worker loops
  receiving ``(job_id, spec)`` assignments, runs
  :func:`repro.serve.job.execute_job`, and streams progress / metrics /
  the terminal outcome back up the pipe. A per-worker reader *thread* in
  the parent turns pipe traffic into ``on_message`` callbacks — and
  turns pipe EOF into a ``worker_exit`` message, which is how worker
  death (chaos kill, OOM, crash) surfaces without any heartbeat
  protocol. Kill is ``SIGKILL``: no cooperation needed, the pipe EOF is
  the acknowledgement.

* :class:`InlinePool` — same contract on daemon threads in-process, for
  tests and environments where forking is unwanted. Threads cannot be
  killed, so :meth:`InlinePool.kill` sets the attempt's abort event and
  relies on the cooperative abort checks between run-loop chunks (a
  spec with ``progress_every_events=None`` is uncancellable here — the
  process pool has no such caveat).

The contract (duck-typed; the service and the chaos tests are the two
consumers)::

    start() / stop()
    workers() -> list[int]           # stable slot ids
    alive(worker) -> bool
    assign(worker, job_id, spec)     # one attempt; worker must be idle
    kill(worker)                     # hard-stop the current attempt
    respawn(worker)                  # bring a dead slot back (no-op inline)

Messages delivered to ``on_message`` (called from reader threads — the
callback must be thread-safe; the asyncio service bridges with
``loop.call_soon_threadsafe``)::

    {"type": "attempt_done", "worker", "gen", "job_id",
     "ok": True,  "payload": {...}}                  # or
     "ok": False, "infra": bool, "error": {...}}
    {"type": "stream",      "worker", "gen", "job_id", "event": {...}}
    {"type": "worker_exit", "worker", "gen"}

``infra`` in a failed ``attempt_done`` distinguishes retryable
infrastructure trouble (abort) from deterministic simulation errors;
``worker_exit`` is always infrastructure.
"""

from __future__ import annotations

import multiprocessing
import threading
from typing import Any, Callable, Optional

from .job import JobAborted, JobError, JobSpec, execute_job

__all__ = ["InlinePool", "ProcessPool"]


def _run_attempt(job_id: str, spec: JobSpec, send: Callable[[dict], None],
                 abort: Optional[threading.Event] = None) -> None:
    """One attempt, any pool: execute and report exactly one outcome."""

    def emit(event: dict) -> None:
        send({"type": "stream", "job_id": job_id, "event": event})

    try:
        payload = execute_job(spec, emit=emit, abort=abort)
    except JobAborted as exc:
        send(
            {
                "type": "attempt_done",
                "job_id": job_id,
                "ok": False,
                "infra": True,
                "error": {"type": "JobAborted", "message": str(exc)},
            }
        )
    except JobError as exc:
        send(
            {
                "type": "attempt_done",
                "job_id": job_id,
                "ok": False,
                "infra": False,
                "error": exc.to_dict(),
            }
        )
    except Exception as exc:  # noqa: BLE001 - spec/build errors, still per-job
        send(
            {
                "type": "attempt_done",
                "job_id": job_id,
                "ok": False,
                "infra": False,
                "error": {"type": type(exc).__name__, "message": str(exc)},
            }
        )
    else:
        send({"type": "attempt_done", "job_id": job_id, "ok": True,
              "payload": payload})


def _worker_main(conn) -> None:
    """Child-process loop: recv assignments until EOF / ``None`` sentinel."""
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            if msg is None:
                break
            job_id, spec = msg
            try:
                _run_attempt(job_id, spec, conn.send)
            except (BrokenPipeError, OSError):
                break  # parent went away mid-report
    finally:
        try:
            conn.close()
        except OSError:
            pass


class _Slot:
    """Parent-side state of one process-pool worker slot."""

    __slots__ = ("process", "conn", "gen", "reader")

    def __init__(self, process, conn, gen: int, reader: threading.Thread):
        self.process = process
        self.conn = conn
        self.gen = gen
        self.reader = reader


class ProcessPool:
    """Fixed set of forked worker processes, respawnable per slot.

    ``fork`` start method on purpose: workers inherit every imported
    module, so assignment carries only the (picklable) spec and startup
    is milliseconds, not a fresh interpreter; the workload registry is
    imported on first use. Slot ids are stable across respawns; ``gen``
    counts incarnations so stale messages are attributable.
    """

    def __init__(self, size: int, on_message: Callable[[dict], None]):
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        self.size = size
        self.on_message = on_message
        self._ctx = multiprocessing.get_context("fork")
        self._slots: dict[int, _Slot] = {}
        self._stopping = False

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        for slot_id in range(self.size):
            self._spawn(slot_id, gen=0)

    def _spawn(self, slot_id: int, gen: int) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn,),
            name=f"serve-worker-{slot_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        reader = threading.Thread(
            target=self._read_loop,
            args=(slot_id, gen, parent_conn),
            name=f"serve-reader-{slot_id}.{gen}",
            daemon=True,
        )
        self._slots[slot_id] = _Slot(process, parent_conn, gen, reader)
        reader.start()

    def _read_loop(self, slot_id: int, gen: int, conn) -> None:
        while True:
            try:
                msg = conn.recv()
            except Exception:  # noqa: BLE001 - EOF, or a SIGKILL-truncated frame
                break
            msg["worker"] = slot_id
            msg["gen"] = gen
            self.on_message(msg)
        if not self._stopping:
            self.on_message({"type": "worker_exit", "worker": slot_id,
                             "gen": gen})

    def stop(self) -> None:
        self._stopping = True
        for slot in self._slots.values():
            try:
                slot.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for slot in self._slots.values():
            slot.process.join(timeout=2.0)
            if slot.process.is_alive():
                slot.process.kill()
                slot.process.join(timeout=2.0)
            try:
                slot.conn.close()
            except OSError:
                pass
            slot.reader.join(timeout=2.0)
        self._slots.clear()

    # -- contract --------------------------------------------------------------

    def workers(self) -> list[int]:
        return sorted(self._slots)

    def alive(self, worker: int) -> bool:
        slot = self._slots.get(worker)
        return slot is not None and slot.process.is_alive()

    def generation(self, worker: int) -> int:
        return self._slots[worker].gen

    def assign(self, worker: int, job_id: str, spec: JobSpec) -> None:
        self._slots[worker].conn.send((job_id, spec))

    def kill(self, worker: int) -> None:
        """SIGKILL the slot's process; EOF on the pipe reports the death."""
        slot = self._slots.get(worker)
        if slot is not None and slot.process.is_alive():
            slot.process.kill()

    def respawn(self, worker: int) -> None:
        """Replace the slot's process with a fresh incarnation.

        Unconditional on purpose: the caller invokes this on pipe EOF
        (or a failed assign), at which point the old incarnation is
        unusable even if ``is_alive()`` still reads True — SIGKILL
        delivery, fd teardown and zombie reaping are not atomic, and
        skipping the respawn in that window would strand the slot dead
        forever (no further EOF will ever arrive to retrigger it).
        """
        slot = self._slots.get(worker)
        if slot is None:
            raise KeyError(f"unknown worker slot {worker}")
        if slot.process.is_alive():
            slot.process.kill()
        slot.process.join(timeout=2.0)
        try:
            slot.conn.close()
        except OSError:
            pass
        self._spawn(worker, gen=slot.gen + 1)


class _InlineAttempt:
    __slots__ = ("thread", "abort", "gen")

    def __init__(self, thread: threading.Thread, abort: threading.Event,
                 gen: int):
        self.thread = thread
        self.abort = abort
        self.gen = gen


class InlinePool:
    """Thread-backed pool for tests: same contract, no processes.

    Kill is cooperative (the abort event is honored at the next progress
    heartbeat) and a slot is never truly dead — ``respawn`` is a no-op
    and ``worker_exit`` never occurs naturally; chaos tests that need
    worker death use :class:`ProcessPool` or synthesize the message.
    """

    def __init__(self, size: int, on_message: Callable[[dict], None]):
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        self.size = size
        self.on_message = on_message
        self._attempts: dict[int, _InlineAttempt] = {}
        self._gens: dict[int, int] = {}

    def start(self) -> None:
        pass

    def stop(self) -> None:
        # snapshot: finishing threads pop themselves from the dict
        attempts = list(self._attempts.values())
        for attempt in attempts:
            attempt.abort.set()
        for attempt in attempts:
            attempt.thread.join(timeout=5.0)
        self._attempts.clear()

    def workers(self) -> list[int]:
        return list(range(self.size))

    def alive(self, worker: int) -> bool:
        return 0 <= worker < self.size

    def generation(self, worker: int) -> int:
        return self._gens.get(worker, 0)

    def assign(self, worker: int, job_id: str, spec: JobSpec) -> None:
        if not self.alive(worker):
            raise KeyError(f"unknown worker slot {worker}")
        gen = self._gens.get(worker, 0) + 1
        self._gens[worker] = gen
        abort = threading.Event()

        def send(msg: dict) -> None:
            msg["worker"] = worker
            msg["gen"] = gen
            self.on_message(msg)

        attempt = _InlineAttempt(None, abort, gen)

        def run() -> None:
            try:
                _run_attempt(job_id, spec, send, abort=abort)
            finally:
                # guarded pop: the attempt_done we just sent may already
                # have triggered a re-assign of this slot, and clobbering
                # the successor's entry would orphan its abort switch
                if self._attempts.get(worker) is attempt:
                    self._attempts.pop(worker, None)

        thread = threading.Thread(
            target=run, name=f"serve-inline-{worker}.{gen}", daemon=True
        )
        attempt.thread = thread
        self._attempts[worker] = attempt
        thread.start()

    def kill(self, worker: int) -> None:
        attempt = self._attempts.get(worker)
        if attempt is not None:
            attempt.abort.set()

    def respawn(self, worker: int) -> None:
        pass
