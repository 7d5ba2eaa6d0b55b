"""The host engines run as kernel records, not processes.

A vDMA copy, a software-cache prefetch and its segment pulls, a cache
push-ahead stream and a host-WCB flush are each one
:class:`repro.sim.engine.Record`: no generator and no
:class:`~repro.sim.engine.Process` per transfer, with the event stream
and the liveness of the process each replaced.
"""

import pytest

from repro.apps.pingpong import run_pingpong
from repro.faults.plan import FaultPlan, LinkFaults
from repro.sim import engine
from repro.sim.engine import FUSE_ENV_VAR
from repro.sim.errors import DeadlockError
from repro.vscc.schemes import CommScheme
from repro.vscc.system import VSCCSystem

#: The daemons each inter-device scheme runs, by event source.
DAEMONS = {
    CommScheme.LOCAL_PUT_LOCAL_GET_VDMA: ("daemon:vdma",),
    CommScheme.LOCAL_PUT_REMOTE_GET: (
        "daemon:prefetch", "daemon:prefetch-seg", "daemon:cache-pusher",
    ),
    CommScheme.REMOTE_PUT_WCB: ("daemon:hostwcb-push",),
}


@pytest.fixture(params=[True, False], ids=["fused", "unfused"])
def fuse(request, monkeypatch):
    monkeypatch.setenv(FUSE_ENV_VAR, "1" if request.param else "0")
    return request.param


@pytest.mark.parametrize("scheme", list(DAEMONS), ids=lambda s: s.value)
def test_pingpong_builds_no_process_outside_the_ranks(scheme, fuse, monkeypatch):
    built = []
    init = engine.Process.__init__

    def spy(self, sim, gen, name):
        built.append(name)
        init(self, sim, gen, name)

    monkeypatch.setattr(engine.Process, "__init__", spy)
    system = VSCCSystem(num_devices=2, scheme=scheme)
    run_pingpong(system, 0, 48, sizes=[20000], iterations=2)
    assert built == ["rank0", "rank48"]
    metrics = system.metrics
    for source in DAEMONS[scheme]:
        assert metrics[f"kernel.events{{source={source}}}"] > 0
    assert metrics["sim.processes_spawned"] > 2
    assert metrics["sim.processes_live"] == 0.0


def test_vdma_copy_stuck_behind_a_severed_cable(fuse):
    """A stuck copy stays live, is not named as deadlocked, and its
    watchdog still fires."""
    plan = FaultPlan(
        seed=1, link_defaults=LinkFaults(drop=1e-12), on_exhaust="sever",
        vdma_watchdog_ns=1_000_000.0,
    )
    system = VSCCSystem(
        num_devices=2, scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA, fault_plan=plan
    )
    system.sim.after(10_000.0, lambda: system.fault_injector.quarantine(1, severed=True))

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(b"x" * 4096, 48)
        else:
            yield from comm.recv(4096, 0)

    with pytest.raises(DeadlockError) as deadlock:
        system.run(program, ranks=[0, 48])
    assert sorted(deadlock.value.waiting) == ["rank0", "rank48"]
    metrics = system.metrics
    assert metrics["vdma.transfers{device=0}"] == 2.0
    assert metrics["vdma.copies_completed{device=0}"] == 0.0
    assert metrics["vdma.watchdog_fires{device=0}"] == 2.0
    # Two blocked ranks and the two stuck copies.
    assert metrics["sim.processes_live"] == 4.0
