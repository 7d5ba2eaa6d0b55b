"""Job model: spec validation, serialization, and the execution path."""

from __future__ import annotations

import threading

import pytest

from repro.faults import DeviceFaults, FaultPlan, LinkFaults
from repro.scenarios import WORKLOADS
from repro.serve import JobAborted, JobError, JobSpec, execute_job


class TestJobSpec:
    def test_defaults_validate(self):
        JobSpec().validate()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("workload", "no-such-workload"),
            ("tenant", ""),
            ("num_devices", 0),
            ("max_attempts", 0),
            ("timeout_s", 0.0),
            ("timeout_s", -1.0),
            ("progress_every_events", 0),
            ("scheme", "no-such-scheme"),
        ],
    )
    def test_bad_fields_rejected(self, field, value):
        with pytest.raises(ValueError):
            JobSpec(**{field: value}).validate()

    def test_builtin_workloads_registered(self):
        names = sorted(WORKLOADS)
        for expected in ("allreduce", "bt", "deadlock", "pingpong", "spin"):
            assert expected in names

    def test_scheme_resolves_by_value_and_name(self):
        from repro.vscc.schemes import CommScheme

        assert JobSpec(scheme="vdma").resolved_scheme() is not None
        by_name = JobSpec(scheme=CommScheme("vdma").name).resolved_scheme()
        assert by_name == JobSpec(scheme="vdma").resolved_scheme()
        assert JobSpec().resolved_scheme() is None

    def test_dict_round_trip(self):
        spec = JobSpec(
            workload="pingpong",
            params={"sizes": (256,), "iterations": 2},
            tenant="alice",
            priority=3,
            num_devices=2,
            scheme="vdma",
            seed=7,
            timeout_s=1.5,
            max_attempts=3,
            progress_every_events=100,
        )
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_dict_round_trip_with_fault_plan(self):
        plan = FaultPlan(
            seed=11,
            link_defaults=LinkFaults(drop=0.01),
            links={"pcie:0": LinkFaults(corrupt=0.1)},
            devices={1: DeviceFaults(dead_at_ns=5000.0)},
            max_retries=7,
        )
        spec = JobSpec(workload="spin", fault_plan=plan, seed=3)
        restored = JobSpec.from_dict(spec.to_dict())
        assert restored.fault_plan == plan
        assert restored == spec


class TestExecuteJob:
    def test_returns_fingerprint_and_metrics(self):
        events = []
        out = execute_job(
            JobSpec(workload="spin", params={"steps": 16, "step_ns": 250.0}),
            emit=events.append,
        )
        assert out["sim_now_ns"] == pytest.approx(4000.0)
        assert out["events"] >= 16
        assert out["metrics"]
        assert events[-1]["type"] == "metrics"

    def test_deterministic_across_calls(self):
        spec = JobSpec(
            workload="pingpong",
            params={"sizes": (256, 4096)},
            num_devices=2,
            scheme="vdma",
            seed=5,
        )
        a, b = execute_job(spec), execute_job(spec)
        assert a["sim_now_ns"] == b["sim_now_ns"]
        assert a["events"] == b["events"]

    def test_chunked_progress_does_not_perturb_simulation(self):
        base = dict(workload="pingpong", params={"sizes": (256, 1024)}, num_devices=2)
        chunked_events = []
        chunked = execute_job(
            JobSpec(progress_every_events=25, **base), emit=chunked_events.append
        )
        plain = execute_job(JobSpec(progress_every_events=None, **base))
        assert chunked["sim_now_ns"] == plain["sim_now_ns"]
        assert chunked["events"] == plain["events"]
        progress = [e for e in chunked_events if e["type"] == "progress"]
        assert progress, "a 25-event chunk must emit progress on this workload"
        ticks = [e["events"] for e in progress]
        assert ticks == sorted(ticks)

    def test_simulation_error_carries_original_type(self):
        with pytest.raises(JobError) as excinfo:
            execute_job(JobSpec(workload="deadlock"))
        assert excinfo.value.error_type == "DeadlockError"
        assert "rank" in excinfo.value.message

    def test_workload_value_errors_become_job_errors(self):
        with pytest.raises(JobError) as excinfo:
            execute_job(JobSpec(workload="pingpong", params={"ranks": (1, 1)}))
        assert excinfo.value.error_type == "ValueError"

    def test_bt_job_rejects_zero_niter(self):
        spec = JobSpec(workload="bt", params={"niter": 0, "nranks": 4})
        with pytest.raises(JobError) as excinfo:
            execute_job(spec)
        assert excinfo.value.error_type == "ValueError"
        assert "niter must be >= 1" in excinfo.value.message

    def test_rpc_lost_responses_raise_structured_job_error(self, monkeypatch):
        import repro.apps.rpc as rpc

        real_run_rpc = rpc.run_rpc

        def losing_run_rpc(*args, **kwargs):
            report = real_run_rpc(*args, **kwargs)
            del report.completions[1:]
            return report

        monkeypatch.setattr(rpc, "run_rpc", losing_run_rpc)
        spec = JobSpec(
            workload="rpc", params={"nranks": 2, "calls_per_rank": 4},
            num_devices=2,
        )
        with pytest.raises(JobError) as excinfo:
            execute_job(spec)
        assert excinfo.value.error_type == "LostResponses"
        assert excinfo.value.message == "rpc job lost responses: 1/8"

    def test_pingpong_checks_every_echo(self, monkeypatch):
        from repro.rcce.api import Rcce

        real_send = Rcce.send
        echoes = []

        def corrupting_send(self, data, dest):
            if self.rank == 1:
                echoes.append(dest)
                if len(echoes) == 2:  # the middle of three round trips
                    data = data.copy()
                    data[0] ^= 0xFF
            return real_send(self, data, dest)

        monkeypatch.setattr(Rcce, "send", corrupting_send)
        spec = JobSpec(
            workload="pingpong", params={"sizes": (256,), "iterations": 3}
        )
        with pytest.raises(JobError) as excinfo:
            execute_job(spec)
        assert "payload corrupted at size 256" in excinfo.value.message
        assert len(echoes) == 2

    def test_rpc_job_sets_only_the_dispatcher_knobs(self, monkeypatch):
        import repro.apps.rpc as rpc

        real_run_rpc = rpc.run_rpc
        seen = []

        def spying_run_rpc(system, calls, params):
            seen.append(params)
            return real_run_rpc(system, calls, params)

        monkeypatch.setattr(rpc, "run_rpc", spying_run_rpc)
        knobs = {
            "coalesce_bytes": 64,
            "coalesce_max": 4,
            "batch_bytes": 1024,
            "flush_deadline_ns": 10_000.0,
            "cache": False,
        }
        spec = JobSpec(
            workload="rpc",
            params={"nranks": 2, "calls_per_rank": 4, "cache_capacity": 3, **knobs},
            num_devices=2,
        )
        execute_job(spec)
        (params,) = seen
        assert {k: getattr(params, k) for k in knobs} == knobs
        assert params.cache_capacity == rpc.RpcParams().cache_capacity

    def test_abort_between_chunks(self):
        abort = threading.Event()
        abort.set()
        with pytest.raises(JobAborted):
            execute_job(
                JobSpec(
                    workload="spin",
                    params={"steps": 10_000, "step_ns": 10.0},
                    progress_every_events=50,
                ),
                abort=abort,
            )

    def test_fault_plan_runs_through_service_path(self):
        spec = JobSpec(
            workload="pingpong",
            params={"sizes": (256,), "iterations": 2},
            num_devices=2,
            scheme="remote-put-wcb",
            fault_plan=FaultPlan.lossy(0.05, seed=3),
            seed=3,
        )
        out = execute_job(spec)
        assert out["sim_now_ns"] > 0
        # lossy-but-recoverable: the resilience layer absorbed the faults
        assert out["degraded_devices"] == []
