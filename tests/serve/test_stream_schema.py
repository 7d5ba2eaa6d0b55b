"""Every streamed service payload validates against the checked-in schema.

Runs a scenario that produces each event type at least once — queued,
started, progress, metrics, retrying, result — across completed,
failed, cancelled and retried jobs, then validates the service's whole
audit log with the stdlib validator (``tools/validate_job_stream.py``),
including its stream-level invariants (monotone ``seq``, exactly one
``result`` per job, nothing after it).
"""

from __future__ import annotations

import json
import sys

import pytest

from repro.serve import JobSpec, SimService

from .conftest import run_async

sys.path.insert(0, "tools")

from validate_job_stream import load_events, validate_stream  # noqa: E402


#: Long enough to stream ``progress`` and to still be running when it is
#: killed or cancelled.
LONG_SPIN = {"steps": 10_000_000, "step_ns": 10.0}


@pytest.fixture(scope="module")
def event_log():
    async def scenario():
        async with SimService(workers=2, pool="inline") as service:
            await service.submit(
                JobSpec(workload="pingpong", tenant="alice",
                        params={"sizes": (256,)}, num_devices=2, seed=1)
            )
            await service.submit(JobSpec(workload="deadlock", tenant="bob"))
            # killed once with budget 2: attempt 1 emits ``retrying``;
            # attempt 2 streams ``progress`` and is then cancelled
            slow = await service.submit(
                JobSpec(workload="spin", tenant="carol", params=LONG_SPIN,
                        max_attempts=2)
            )
            doomed = await service.submit(
                JobSpec(workload="spin", tenant="alice", params=LONG_SPIN)
            )
            await doomed.cancel()
            async for event in slow.events():
                if event["type"] == "started" and event["attempt"] == 1:
                    service.chaos_kill_worker(int(event["worker"]))
                elif event["type"] == "progress" and event["attempt"] == 2:
                    await slow.cancel()
                    break
            await service.join(timeout=120)
            return list(service.event_log)

    return run_async(scenario())


def test_all_event_types_exercised(event_log):
    types = {e["type"] for e in event_log}
    assert types == {"queued", "started", "progress", "metrics",
                     "retrying", "result"}
    states = {
        e["job_result"]["state"] for e in event_log if e["type"] == "result"
    }
    assert states == {"completed", "failed", "cancelled"}


def test_every_event_validates(event_log):
    errors = validate_stream(event_log)
    assert errors == []


def test_log_survives_json_round_trip(event_log, tmp_path):
    # as an array ...
    array_path = tmp_path / "events.json"
    array_path.write_text(json.dumps(event_log))
    assert validate_stream(load_events(array_path.read_text())) == []
    # ... and as JSON lines
    jsonl_path = tmp_path / "events.jsonl"
    jsonl_path.write_text("\n".join(json.dumps(e) for e in event_log))
    assert validate_stream(load_events(jsonl_path.read_text())) == []


def test_validator_rejects_bad_payloads(event_log):
    good = dict(event_log[0])

    unknown_key = {**good, "surprise": 1}
    assert validate_stream([unknown_key])

    bad_type = {**good, "type": "exploded"}
    assert validate_stream([bad_type])

    missing_field = {k: v for k, v in good.items() if k != "tenant"}
    assert validate_stream([missing_field])

    # duplicate result / stale seq
    result = next(e for e in event_log if e["type"] == "result")
    assert validate_stream([result, result])


def test_result_payload_round_trips_to_job_result(event_log):
    from repro.results import JobResult

    for event in event_log:
        if event["type"] != "result":
            continue
        restored = JobResult.from_dict(event["job_result"])
        assert restored.to_dict() == event["job_result"]
        assert restored.job_id == event["job_id"]
