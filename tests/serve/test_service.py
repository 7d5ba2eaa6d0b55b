"""Asyncio service end-to-end on the inline (thread) pool.

Covers the full submit → stream → result path, cancellation of queued
and running jobs, error propagation, a tenant's submit-and-gather path,
and service metrics — everything except real process death, which lives
in ``test_chaos.py``.
"""

from __future__ import annotations

import pytest

from repro.serve import JobSpec, SimService

from .conftest import run_async

SMALL_SPIN = {"steps": 16, "step_ns": 250.0}
LONG_SPIN = {"steps": 10_000_000, "step_ns": 10.0}


def spin_spec(tenant="t", params=SMALL_SPIN, **kw):
    kw.setdefault("progress_every_events", 1000)
    return JobSpec(workload="spin", tenant=tenant, params=dict(params), **kw)


class TestEndToEnd:
    def test_submit_and_result(self):
        async def scenario():
            async with SimService(workers=2, pool="inline") as service:
                handle = await service.submit(spin_spec())
                result = await handle.result(timeout=30)
                assert result.ok
                assert result.sim_now_ns == pytest.approx(4000.0)
                assert result.attempts == 1
                assert result.metrics
                return service.event_log

        log = run_async(scenario())
        assert [e["type"] for e in log] == ["queued", "started", "metrics", "result"]

    def test_event_stream_ends_at_result(self):
        async def scenario():
            async with SimService(workers=1, pool="inline") as service:
                handle = await service.submit(spin_spec())
                seen = [e async for e in handle.events()]
                assert seen[0]["type"] == "queued"
                assert seen[-1]["type"] == "result"
                assert all(e["job_id"] == handle.job_id for e in seen)
                assert seen[-1]["job_result"]["state"] == "completed"

        run_async(scenario())

    def test_simulation_error_propagates(self):
        async def scenario():
            async with SimService(workers=1, pool="inline") as service:
                handle = await service.submit(
                    JobSpec(workload="deadlock", tenant="t", max_attempts=3)
                )
                result = await handle.result(timeout=30)
                assert result.state == "failed"
                assert result.error["type"] == "DeadlockError"
                # deterministic failure: never retried
                assert result.attempts == 1

        run_async(scenario())

    def test_many_jobs_many_tenants_all_terminal(self):
        async def scenario():
            async with SimService(workers=2, pool="inline") as service:
                handles = []
                for i in range(12):
                    handles.append(
                        await service.submit(
                            spin_spec(tenant=f"tenant{i % 3}", priority=i % 2)
                        )
                    )
                results = await service.join(timeout=60)
                assert len(results) == 12
                assert all(r.ok for r in results)
                snap = service.metrics_snapshot()
                assert snap["serve.jobs{state=completed}"] == 12.0
                assert service.core.all_terminal()

        run_async(scenario())

    def test_submit_before_start_rejected(self):
        async def scenario():
            service = SimService(workers=1, pool="inline")
            with pytest.raises(RuntimeError):
                await service.submit(spin_spec())

        run_async(scenario())

    def test_deterministic_fingerprint_through_service(self):
        async def scenario():
            outcomes = []
            for _ in range(2):
                async with SimService(workers=2, pool="inline") as service:
                    handles = [
                        await service.submit(
                            JobSpec(
                                workload="pingpong",
                                tenant=f"t{i}",
                                params={"sizes": (256, 1024)},
                                num_devices=2,
                                scheme="vdma",
                                seed=i,
                            )
                        )
                        for i in range(3)
                    ]
                    results = [await h.result(timeout=60) for h in handles]
                    outcomes.append(
                        [(r.state, r.sim_now_ns, r.events) for r in results]
                    )
            assert outcomes[0] == outcomes[1]

        run_async(scenario())


class TestCancellation:
    def test_cancel_queued_job(self):
        async def scenario():
            async with SimService(workers=1, pool="inline") as service:
                blocker = await service.submit(spin_spec(params=LONG_SPIN))
                queued = await service.submit(spin_spec())
                await queued.cancel()
                result = await queued.result(timeout=30)
                assert result.state == "cancelled"
                await blocker.cancel()
                assert (await blocker.result(timeout=30)).state == "cancelled"

        run_async(scenario())

    def test_cancel_running_job(self):
        async def scenario():
            async with SimService(workers=1, pool="inline") as service:
                handle = await service.submit(spin_spec(params=LONG_SPIN))
                # wait until it actually starts
                async for event in handle.events():
                    if event["type"] == "started":
                        break
                await handle.cancel()
                result = await handle.result(timeout=30)
                assert result.state == "cancelled"
                # the worker slot is usable again afterwards
                after = await service.submit(spin_spec())
                assert (await after.result(timeout=30)).ok

        run_async(scenario())

    def test_shutdown_cancels_unfinished(self):
        async def scenario():
            service = SimService(workers=1, pool="inline")
            await service.start()
            running = await service.submit(spin_spec(params=LONG_SPIN))
            queued = await service.submit(spin_spec(params=LONG_SPIN))
            await service.shutdown(timeout=30)
            assert service.core.jobs[running.job_id].terminal
            assert service.core.jobs[queued.job_id].state.value == "cancelled"

        run_async(scenario())


class TestTimeout:
    def test_per_job_timeout_enforced(self):
        async def scenario():
            async with SimService(workers=1, pool="inline",
                                  tick_s=0.01) as service:
                handle = await service.submit(
                    spin_spec(params=LONG_SPIN, timeout_s=0.2, max_attempts=1)
                )
                result = await handle.result(timeout=30)
                assert result.state == "failed"
                assert result.error["type"] == "JobTimeout"

        run_async(scenario())


class TestClient:
    """What a tenant's client does with the service: submit specs
    stamped with its tenant and await their handles."""

    def test_client_stamps_tenant(self):
        async def scenario():
            async with SimService(workers=1, pool="inline") as service:
                handle = await service.submit(spin_spec(tenant="alice"))
                result = await handle.result(timeout=30)
                assert result.ok and result.tenant == "alice"

        run_async(scenario())

    def test_submit_many_and_gather(self):
        async def scenario():
            async with SimService(workers=2, pool="inline") as service:
                handles = [
                    await service.submit(spin_spec(tenant="c")) for _ in range(5)
                ]
                results = [await h.result(timeout=60) for h in handles]
                assert [r.ok for r in results] == [True] * 5

        run_async(scenario())


class TestObservability:
    def test_latency_summary_populated(self):
        async def scenario():
            async with SimService(workers=2, pool="inline") as service:
                for tenant in ("a", "a", "b"):
                    await service.submit(spin_spec(tenant=tenant))
                await service.join(timeout=60)
                summary = service.latency_summary()
                assert summary["a"]["count"] == 2.0
                assert summary["b"]["p99"] >= 0.0

        run_async(scenario())

    def test_queue_depth_gauge_tracks(self):
        async def scenario():
            async with SimService(workers=1, pool="inline") as service:
                await service.submit(spin_spec(params=LONG_SPIN, tenant="q"))
                await service.submit(spin_spec(tenant="q"))
                await service.submit(spin_spec(tenant="q"))
                snap = service.metrics_snapshot()
                assert snap["serve.queue_depth{tenant=q}"] == 2.0
                await service.shutdown(timeout=30)

        run_async(scenario())
