"""ServeCore lifecycle state machine, driven by hand on a fake clock.

No pool, no asyncio, no real time: the tests play the role of the
service shell — dispatching, reporting outcomes, cancelling — and
assert on the returned events, directives, and metrics.
"""

from __future__ import annotations

import pytest

from repro.serve import JobSpec, JobState


def spec(tenant="t", **kw):
    kw.setdefault("workload", "spin")
    return JobSpec(tenant=tenant, **kw)


def complete(core, job_id, sim_now_ns=1000.0, events=10.0):
    return core.attempt_finished(
        job_id,
        {"sim_now_ns": sim_now_ns, "events": events, "elapsed_ns": sim_now_ns,
         "core_cycles": 1.0, "degraded_devices": [], "metrics": {"a": 1.0}},
    )


class TestHappyPath:
    def test_submit_dispatch_complete(self, core, clock):
        job, events = core.submit(spec())
        assert job.state is JobState.PENDING
        assert [e["type"] for e in events] == ["queued"]
        assert events[0]["queue_depth"] == 1.0

        clock.advance(0.5)
        job2, events = core.next_assignment(worker=0)
        assert job2 is job
        assert job.state is JobState.RUNNING
        assert [e["type"] for e in events] == ["started"]
        assert core.worker_jobs == {0: job.job_id}

        clock.advance(0.25)
        events = complete(core, job.job_id, sim_now_ns=4000.0)
        assert [e["type"] for e in events] == ["result"]
        assert job.state is JobState.COMPLETED
        result = job.result
        assert result.ok and result.attempts == 1
        assert result.sim_now_ns == 4000.0
        assert result.queue_wait_s == pytest.approx(0.5)
        assert result.run_s == pytest.approx(0.25)
        assert core.worker_jobs == {}
        assert core.all_terminal()

    def test_job_ids_are_tenant_scoped_and_unique(self, core):
        a, _ = core.submit(spec(tenant="a"))
        b, _ = core.submit(spec(tenant="b"))
        a2, _ = core.submit(spec(tenant="a"))
        assert len({a.job_id, b.job_id, a2.job_id}) == 3
        assert a.job_id.startswith("a/") and b.job_id.startswith("b/")

    def test_idle_pop_returns_none(self, core):
        assert core.next_assignment(worker=0) is None

    def test_busy_worker_cannot_double_dispatch(self, core):
        core.submit(spec())
        core.submit(spec())
        core.next_assignment(worker=0)
        with pytest.raises(RuntimeError):
            core.next_assignment(worker=0)


class TestFailureAndRetry:
    def test_simulation_error_fails_immediately(self, core):
        job, _ = core.submit(spec(max_attempts=3))
        core.next_assignment(worker=0)
        events = core.attempt_failed(
            job.job_id, {"type": "DeadlockError", "message": "stuck"}, infra=False
        )
        assert [e["type"] for e in events] == ["result"]
        assert job.state is JobState.FAILED
        assert job.result.error == {"type": "DeadlockError", "message": "stuck"}
        assert job.result.attempts == 1

    def test_infra_failure_retries_within_budget(self, core):
        job, _ = core.submit(spec(max_attempts=3))
        core.next_assignment(worker=0)
        events = core.worker_died(0)
        assert [e["type"] for e in events] == ["retrying"]
        assert job.state is JobState.PENDING
        assert core.worker_jobs == {}
        # budget: attempts 2 and 3 also die -> failed
        core.next_assignment(worker=1)
        assert [e["type"] for e in core.worker_died(1)] == ["retrying"]
        core.next_assignment(worker=1)
        events = core.worker_died(1)
        assert [e["type"] for e in events] == ["result"]
        assert job.state is JobState.FAILED
        assert job.result.error["type"] == "WorkerDied"
        assert job.result.attempts == 3

    def test_worker_death_without_job_is_noop(self, core):
        assert core.worker_died(5) == []

    def test_degraded_devices_survive_failure(self, core):
        job, _ = core.submit(spec())
        core.next_assignment(worker=0)
        core.attempt_failed(
            job.job_id,
            {"type": "DeviceQuarantined", "message": "dev 1",
             "degraded_devices": [1]},
            infra=False,
        )
        assert job.result.degraded_devices == (1,)


class TestCancel:
    def test_cancel_pending_is_immediate(self, core):
        job, _ = core.submit(spec())
        events, directives = core.request_cancel(job.job_id)
        assert [e["type"] for e in events] == ["result"]
        assert directives == []
        assert job.state is JobState.CANCELLED
        assert core.next_assignment(worker=0) is None

    def test_cancel_running_kills_then_terminalizes(self, core):
        job, _ = core.submit(spec())
        core.next_assignment(worker=0)
        events, directives = core.request_cancel(job.job_id)
        assert events == []
        assert directives == [("kill", 0)]
        # the kill lands as a worker death; cancel wins over retry
        events = core.worker_died(0)
        assert [e["type"] for e in events] == ["result"]
        assert job.state is JobState.CANCELLED
        assert job.result.state == "cancelled"

    def test_cancel_races_completion_gracefully(self, core):
        job, _ = core.submit(spec())
        core.next_assignment(worker=0)
        _, directives = core.request_cancel(job.job_id)
        assert directives == [("kill", 0)]
        # the result beat the kill: work is done, honor it
        complete(core, job.job_id)
        assert job.state is JobState.COMPLETED

    def test_cancel_terminal_is_noop(self, core):
        job, _ = core.submit(spec())
        core.request_cancel(job.job_id)
        events, directives = core.request_cancel(job.job_id)
        assert events == [] and directives == []

    def test_cancel_unknown_raises(self, core):
        with pytest.raises(KeyError):
            core.request_cancel("nope/1")

    def test_double_cancel_running_sends_one_kill(self, core):
        job, _ = core.submit(spec())
        core.next_assignment(worker=0)
        _, d1 = core.request_cancel(job.job_id)
        _, d2 = core.request_cancel(job.job_id)
        assert d1 == [("kill", 0)] and d2 == []


class TestInvariants:
    def test_exactly_one_terminal_transition(self, core):
        job, _ = core.submit(spec())
        core.next_assignment(worker=0)
        complete(core, job.job_id)
        with pytest.raises(RuntimeError):
            core._finalize(job, JobState.FAILED, job.result, core.clock())

    def test_outcome_without_running_state_raises(self, core):
        job, _ = core.submit(spec())
        with pytest.raises(RuntimeError):
            complete(core, job.job_id)

    def test_event_seq_strictly_increases(self, core):
        seqs = []
        for _ in range(3):
            job, events = core.submit(spec())
            seqs += [e["seq"] for e in events]
            _, events = core.next_assignment(worker=0)
            seqs += [e["seq"] for e in events]
            seqs += [e["seq"] for e in complete(core, job.job_id)]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)


class TestObservability:
    def test_counters_and_gauges(self, core):
        jobs = [core.submit(spec())[0] for _ in range(3)]
        core.next_assignment(worker=0)
        snap = core.snapshot()
        assert snap["serve.jobs{state=accepted}"] == 3.0
        assert snap["serve.queue_depth{tenant=t}"] == 2.0
        assert snap["serve.running"] == 1.0
        complete(core, jobs[0].job_id)
        core.request_cancel(jobs[1].job_id)
        core.next_assignment(worker=0)
        core.attempt_failed(jobs[2].job_id, {"type": "X", "message": ""}, infra=False)
        snap = core.snapshot()
        assert snap["serve.jobs{state=completed}"] == 1.0
        assert snap["serve.jobs{state=cancelled}"] == 1.0
        assert snap["serve.jobs{state=failed}"] == 1.0
        assert snap["serve.running"] == 0.0
        assert snap["serve.queued"] == 0.0

    def test_latency_summary_per_tenant(self, core, clock):
        for tenant, wait in (("a", 0.1), ("b", 0.4)):
            job, _ = core.submit(spec(tenant=tenant))
            clock.advance(wait)
            core.next_assignment(worker=0)
            clock.advance(0.2)
            complete(core, job.job_id)
        summary = core.latency_summary()
        assert set(summary) == {"a", "b"}
        assert summary["a"]["count"] == 1.0
        assert summary["a"]["p50"] == pytest.approx(300.0)  # ms
        assert summary["b"]["p99"] == pytest.approx(600.0)

    def test_queue_wait_accumulates_across_retries(self, core, clock):
        job, _ = core.submit(spec(max_attempts=2))
        clock.advance(1.0)
        core.next_assignment(worker=0)
        core.worker_died(0)  # requeued
        clock.advance(2.0)
        core.next_assignment(worker=0)
        complete(core, job.job_id)
        assert job.result.queue_wait_s == pytest.approx(3.0)
