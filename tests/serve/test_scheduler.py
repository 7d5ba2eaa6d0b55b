"""Fair-share scheduler: priority order, fairness envelope, tombstones."""

from __future__ import annotations

import pytest

from repro.serve import FairShareScheduler


class Rec:
    """Minimal stand-in for a JobRecord (what the scheduler duck-types)."""

    _seq = 0

    def __init__(self, tenant: str, priority: int = 0):
        Rec._seq += 1
        self.seq = Rec._seq
        self.job_id = f"{tenant}/{self.seq}"

        class Spec:
            pass

        self.spec = Spec()
        self.spec.tenant = tenant
        self.spec.priority = priority

    def __repr__(self):
        return self.job_id


def drain(sched):
    out = []
    while True:
        rec = sched.pop()
        if rec is None:
            return out
        out.append(rec)


class TestWithinTenant:
    def test_fifo_among_equal_priorities(self):
        sched = FairShareScheduler()
        recs = [Rec("a") for _ in range(5)]
        for r in recs:
            sched.push(r)
        assert drain(sched) == recs

    def test_priority_beats_fifo(self):
        sched = FairShareScheduler()
        low = Rec("a", priority=0)
        high = Rec("a", priority=9)
        mid = Rec("a", priority=5)
        for r in (low, high, mid):
            sched.push(r)
        assert drain(sched) == [high, mid, low]

    def test_priority_is_tenant_local(self):
        # b's high priority cannot let it take two slots before a runs.
        sched = FairShareScheduler()
        sched.push(Rec("b", priority=100))
        sched.push(Rec("b", priority=100))
        a = Rec("a", priority=0)
        sched.push(a)
        order = drain(sched)
        assert a in order[:2]


class TestFairShare:
    def test_equal_weight_interleave(self):
        sched = FairShareScheduler()
        for _ in range(10):
            sched.push(Rec("a"))
            sched.push(Rec("b"))
        tenants = [r.spec.tenant for r in drain(sched)]
        # any prefix is within +-1 of an even split
        for k in range(1, len(tenants) + 1):
            counts = tenants[:k].count("a"), tenants[:k].count("b")
            assert abs(counts[0] - counts[1]) <= 1

    def test_weighted_share(self):
        sched = FairShareScheduler(weights={"big": 3.0, "small": 1.0})
        for _ in range(30):
            sched.push(Rec("big"))
            sched.push(Rec("small"))
        first20 = [r.spec.tenant for r in [sched.pop() for _ in range(20)]]
        big = first20.count("big")
        # 3:1 weights over 20 dispatches: big gets ~15
        assert 13 <= big <= 17

    def test_flood_cannot_starve(self):
        sched = FairShareScheduler()
        for _ in range(100):
            sched.push(Rec("flood"))
        latecomer = Rec("quiet")
        sched.push(latecomer)
        first3 = [sched.pop() for _ in range(3)]
        assert latecomer in first3

    def test_idle_tenant_banks_no_credit(self):
        sched = FairShareScheduler()
        # a runs 10 jobs while b is idle
        for _ in range(10):
            sched.push(Rec("a"))
        drain(sched)
        # now both backlogged: b must not get 10 dispatches in a row
        for _ in range(10):
            sched.push(Rec("a"))
            sched.push(Rec("b"))
        first6 = [r.spec.tenant for r in [sched.pop() for _ in range(6)]]
        assert first6.count("b") <= 4

    def test_depths_and_len(self):
        sched = FairShareScheduler()
        assert len(sched) == 0
        sched.push(Rec("a"))
        sched.push(Rec("a"))
        sched.push(Rec("b"))
        assert len(sched) == 3
        assert sched.depth("a") == 2
        assert sched.depth("b") == 1
        assert sched.depth("c") == 0

    def test_bad_weights_rejected(self):
        with pytest.raises(ValueError):
            FairShareScheduler(weights={"a": 0.0})
        with pytest.raises(ValueError):
            FairShareScheduler(default_weight=-1.0)


class TestRemove:
    def test_remove_skips_at_pop(self):
        sched = FairShareScheduler()
        a, b, c = Rec("t"), Rec("t"), Rec("t")
        for r in (a, b, c):
            sched.push(r)
        assert sched.remove(b)
        assert len(sched) == 2
        assert drain(sched) == [a, c]

    def test_remove_unqueued_is_false(self):
        sched = FairShareScheduler()
        a = Rec("t")
        assert not sched.remove(a)
        sched.push(a)
        assert sched.pop() is a
        assert not sched.remove(a)

    def test_double_remove_is_false(self):
        sched = FairShareScheduler()
        a, b = Rec("t"), Rec("t")
        sched.push(a)
        sched.push(b)
        assert sched.remove(a)
        assert not sched.remove(a)
        assert drain(sched) == [b]

    def test_remove_all_then_pop_none(self):
        sched = FairShareScheduler()
        recs = [Rec("t") for _ in range(4)]
        for r in recs:
            sched.push(r)
        for r in recs:
            assert sched.remove(r)
        assert sched.pop() is None
        assert len(sched) == 0
