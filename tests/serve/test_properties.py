"""Property-based tests (hypothesis) on the service core and scheduler.

Universally quantified claims, under arbitrary interleavings of submit /
dispatch / complete / fail / kill / cancel / clock-advance:

1. **liveness, no lost jobs** — after the system drains, every job
   submitted has reached exactly one terminal state, exactly one
   ``result`` event was streamed per job, and nothing stays queued or
   running (the no-deadlock / no-starvation claim);
2. **budget algebra** — attempts never exceed ``max_attempts``; a job
   fails with ``WorkerDied`` only at its last attempt;
3. **priority order within a tenant** — every dispatch picks the
   highest-priority (FIFO among equals) queued job of the tenant it
   serves;
4. **fair-share envelope** — across equally-weighted tenants that stay
   backlogged, dispatch counts in any window stay within a ±2 band of
   the even split.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.serve import FairShareScheduler, JobSpec, JobState, ServeCore

from .conftest import FakeClock

WORKERS = (0, 1, 2)

action = st.one_of(
    st.tuples(
        st.just("submit"),
        st.sampled_from(["a", "b", "c"]),
        st.integers(0, 3),       # priority
        st.integers(1, 3),       # max_attempts
    ),
    st.tuples(st.just("dispatch"), st.sampled_from(WORKERS)),
    st.tuples(st.just("complete"), st.sampled_from(WORKERS)),
    st.tuples(st.just("fail_sim"), st.sampled_from(WORKERS)),
    st.tuples(st.just("worker_die"), st.sampled_from(WORKERS)),
    st.tuples(st.just("cancel"), st.integers(0, 60)),
    st.tuples(st.just("advance"), st.floats(0.01, 2.0)),
)


class Model:
    """Interpreter: applies actions to a ServeCore, checking invariants."""

    def __init__(self):
        self.clock = FakeClock()
        self.core = ServeCore(clock=self.clock)
        self.events: list[dict] = []
        self.queued: dict[str, list] = {}  # tenant -> JobRecords, model mirror
        self.last_seq = 0

    def record(self, events):
        for event in events:
            assert event["seq"] > self.last_seq, "event seq must increase"
            self.last_seq = event["seq"]
        self.events.extend(events)

    # -- actions ---------------------------------------------------------------

    def submit(self, tenant, priority, max_attempts):
        spec = JobSpec(
            workload="spin",
            tenant=tenant,
            priority=priority,
            max_attempts=max_attempts,
        )
        job, events = self.core.submit(spec)
        self.record(events)
        self.queued.setdefault(tenant, []).append(job)

    def dispatch(self, worker):
        if worker in self.core.worker_jobs:
            return
        out = self.core.next_assignment(worker)
        if out is None:
            assert len(self.core.scheduler) == 0
            return
        job, events = out
        self.record(events)
        mirror = self.queued[job.spec.tenant]
        # property 3: highest priority, FIFO among equals, of its tenant
        best = max(mirror, key=lambda j: (j.spec.priority, -j.seq))
        assert job.spec.priority == best.spec.priority
        assert job.seq == min(
            j.seq for j in mirror if j.spec.priority == job.spec.priority
        )
        mirror.remove(job)

    def _outcome(self, worker, fn):
        job_id = self.core.worker_jobs.get(worker)
        if job_id is None:
            return
        job = self.core.jobs[job_id]
        self.record(fn(job))
        # property 2: budget algebra
        assert job.attempts <= job.spec.max_attempts
        if job.state is JobState.PENDING:  # retried
            self.queued[job.spec.tenant].append(job)
        elif job.state is JobState.FAILED and job.result.error["type"] == "WorkerDied":
            assert job.attempts == job.spec.max_attempts

    def complete(self, worker):
        self._outcome(
            worker,
            lambda job: self.core.attempt_finished(
                job.job_id,
                {"sim_now_ns": 1.0, "events": 1.0, "elapsed_ns": 1.0,
                 "core_cycles": 1.0, "degraded_devices": [], "metrics": {}},
            ),
        )

    def fail_sim(self, worker):
        self._outcome(
            worker,
            lambda job: self.core.attempt_failed(
                job.job_id, {"type": "DeadlockError", "message": "x"},
                infra=False,
            ),
        )

    def worker_die(self, worker):
        self._outcome(worker, lambda job: self.core.worker_died(worker))

    def cancel(self, index):
        jobs = sorted(self.core.jobs)
        if not jobs:
            return
        job = self.core.jobs[jobs[index % len(jobs)]]
        was_pending = job.state is JobState.PENDING
        events, directives = self.core.request_cancel(job.job_id)
        self.record(events)
        if was_pending:
            self.queued[job.spec.tenant].remove(job)
        for _, worker in directives:
            # a kill directive always lands as a worker death eventually
            self.worker_die(worker)

    def advance(self, dt):
        self.clock.advance(dt)

    # -- drain + final invariants ---------------------------------------------

    def drain(self):
        for _ in range(10_000):
            if self.core.all_terminal():
                break
            for worker in WORKERS:
                self.dispatch(worker)
            for worker in list(self.core.worker_jobs):
                self.complete(worker)
        assert self.core.all_terminal(), (
            f"stuck jobs: {self.core.unfinished()}"
        )

    def check_final(self):
        # property 1: exactly one result event per job, nothing lost
        results = [e["job_id"] for e in self.events if e["type"] == "result"]
        assert sorted(results) == sorted(self.core.jobs)
        terminal_after = set()
        for event in self.events:
            assert event["job_id"] not in terminal_after, "event after result"
            if event["type"] == "result":
                terminal_after.add(event["job_id"])
        snap = self.core.snapshot()
        accepted = snap.get("serve.jobs{state=accepted}", 0.0)
        finished = sum(
            snap.get(f"serve.jobs{{state={s}}}", 0.0)
            for s in ("completed", "failed", "cancelled")
        )
        assert accepted == finished == len(self.core.jobs)


@settings(max_examples=60, deadline=None)
@given(st.lists(action, max_size=60))
def test_core_invariants_under_random_interleavings(actions):
    model = Model()
    for act in actions:
        getattr(model, act[0])(*act[1:])
    model.drain()
    model.check_final()


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(["a", "b", "c"]), st.integers(0, 3)),
             min_size=6, max_size=60)
)
def test_fair_share_envelope(jobs):
    """Property 4 on the bare scheduler, equal weights."""

    class Rec:
        seq = 0

        def __init__(self, tenant, priority):
            Rec.seq += 1
            self.seq = Rec.seq
            self.job_id = f"{tenant}/{self.seq}"
            self.spec = type("S", (), {"tenant": tenant, "priority": priority})()

    sched = FairShareScheduler()
    for tenant, priority in jobs:
        sched.push(Rec(tenant, priority))
    tenants = {t for t, _ in jobs}
    totals = {t: sum(1 for tt, _ in jobs if tt == t) for t in tenants}
    served = {t: 0 for t in tenants}
    order = []
    while True:
        rec = sched.pop()
        if rec is None:
            break
        order.append(rec.spec.tenant)
        served[rec.spec.tenant] += 1
        # while every tenant is still backlogged, no tenant may be more
        # than 2 dispatches ahead of another
        backlogged = [t for t in tenants if served[t] < totals[t]]
        if len(backlogged) == len(tenants):
            counts = [served[t] for t in tenants]
            assert max(counts) - min(counts) <= 2
    assert len(order) == len(jobs)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(0, 5), min_size=1, max_size=30),
    st.randoms(use_true_random=False),
)
def test_single_tenant_strict_priority(priorities, rng):
    """With one tenant, dispatch order is exactly (priority desc, seq)."""
    clock = FakeClock()
    core = ServeCore(clock=clock)
    jobs = []
    for p in priorities:
        job, _ = core.submit(JobSpec(workload="spin", tenant="only", priority=p))
        jobs.append(job)
    expected = sorted(jobs, key=lambda j: (-j.spec.priority, j.seq))
    got = []
    while True:
        out = core.next_assignment(worker=0)
        if out is None:
            break
        job, _ = out
        got.append(job)
        core.attempt_finished(
            job.job_id,
            {"sim_now_ns": 1.0, "events": 1.0, "elapsed_ns": 1.0,
             "core_cycles": 1.0, "degraded_devices": [], "metrics": {}},
        )
    assert got == expected
