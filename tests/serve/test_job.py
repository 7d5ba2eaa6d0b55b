"""Job model: spec validation and the execution path."""

from __future__ import annotations

import threading

import pytest

import repro.serve.job as job_module
from repro.faults import FaultPlan
from repro.scenarios import WORKLOADS
from repro.serve import JobAborted, JobError, JobSpec, execute_job
from repro.vscc.system import VSCCSystem


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

    def test_chunked_progress_does_not_perturb_simulation(self, monkeypatch):
        monkeypatch.setattr(job_module, "PROGRESS_EVERY_EVENTS", 25)
        params = {"sizes": (256, 1024)}
        chunked_events = []
        chunked = execute_job(
            JobSpec(workload="pingpong", params=params, num_devices=2),
            emit=chunked_events.append,
        )
        plain = VSCCSystem(num_devices=2)
        WORKLOADS["pingpong"](plain, dict(params))
        assert chunked["sim_now_ns"] == plain.sim.now
        assert chunked["events"] == plain.sim.events_processed
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

    def test_abort_between_chunks(self):
        abort = threading.Event()
        abort.set()
        with pytest.raises(JobAborted):
            execute_job(
                JobSpec(workload="spin", params={"steps": 10_000, "step_ns": 10.0}),
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
