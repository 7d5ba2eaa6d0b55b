"""Multi-host end-to-end behaviour and single-host bit-identity."""

import numpy as np
import pytest

from repro.faults import FaultPlan, LinkFaults
from repro.rcce.api import RcceOptions
from repro.vscc.policy import StaticPolicy
from repro.vscc.schemes import CommScheme
from repro.vscc.system import VSCCSystem

VDMA = CommScheme.LOCAL_PUT_LOCAL_GET_VDMA


def test_two_host_allreduce_end_to_end():
    """192 ranks over 2 hosts x 2 devices: three-level allreduce is
    correct and really rides the inter-host tier."""
    system = VSCCSystem(
        num_hosts=2, devices_per_host=2, scheme=VDMA,
        options=RcceOptions(hierarchical_collectives=True),
    )
    n = system.num_ranks
    assert n == 192
    got = {}

    def program(comm):
        acc = yield from comm.allreduce(np.full(8, float(comm.rank)), np.add)
        if comm.rank in (0, 95, 96, 191):
            got[comm.rank] = acc.copy()

    system.run(program)
    expected = np.full(8, float(n * (n - 1) // 2))
    for rank, acc in got.items():
        assert (acc == expected).all(), rank
    interhost = sum(
        v for k, v in system.metrics.items() if k.startswith("interhost.bytes")
    )
    assert interhost > 0


def test_cross_host_send_recv():
    system = VSCCSystem(num_hosts=2, devices_per_host=1, scheme=VDMA)
    payload = (np.arange(2000) % 249).astype(np.uint8)
    got = {}

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(payload, dest=50)
        elif comm.rank == 50:
            got["data"] = yield from comm.recv(len(payload), src=0)

    system.run(program, ranks=[0, 50])
    assert (got["data"] == payload).all()
    # Both directed links between the pair carried something (data one
    # way, flag/ack traffic back).
    assert system.metrics["interhost.bytes{dst=1,src=0}"] > 0


def test_cross_host_write_combiner_rides_interhost_push():
    """REMOTE_PUT_WCB to a foreign device flushes through InterHostPush:
    granules ride src host -> inter-host link -> dst cable."""
    system = VSCCSystem(
        num_hosts=2, devices_per_host=1, scheme=CommScheme.REMOTE_PUT_WCB,
    )
    payload = (np.arange(3000) % 251).astype(np.uint8)
    got = {}

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(payload, dest=50)
        elif comm.rank == 50:
            got["data"] = yield from comm.recv(len(payload), src=0)

    system.run(program, ranks=[0, 50])
    assert (got["data"] == payload).all()
    # The payload (plus envelope) crossed the inter-host tier forward.
    assert system.metrics["interhost.bytes{dst=1,src=0}"] >= len(payload)


def test_host_affinity_dst_is_journaled():
    """cross_host_affinity='dst' puts the copy on the destination host's
    communication task and lands in the policy journal metrics."""
    system = VSCCSystem(
        num_hosts=2, devices_per_host=1,
        policy=StaticPolicy(VDMA, cross_host_affinity="dst"),
    )

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(b"x" * 512, dest=50)
        elif comm.rank == 50:
            yield from comm.recv(512, src=0)

    system.run(program, ranks=[0, 50])
    assert system.metrics["policy.host_affinity{owner=dst}"] >= 1.0
    assert "policy.host_affinity{owner=src}" not in system.metrics


def test_single_host_emits_no_fabric_metrics():
    system = VSCCSystem(num_devices=2, scheme=VDMA)

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(b"y" * 64, dest=48)
        elif comm.rank == 48:
            yield from comm.recv(64, src=0)

    system.run(program, ranks=[0, 48])
    assert not any(k.startswith("interhost.") for k in system.metrics)
    assert not any(k.startswith("policy.host_affinity") for k in system.metrics)


def test_interhost_link_faults_retransmit():
    """Drops on the inter-host tier retry through the same ack/seq
    envelope as PCIe faults; delivery stays exactly-once in-order."""
    plan = FaultPlan(
        links={"interhost0to1": LinkFaults(drop=0.4)},
        seed=7, max_retries=8,
    )
    system = VSCCSystem(
        num_hosts=2, devices_per_host=1, scheme=VDMA, fault_plan=plan,
    )
    # Big enough for ~17 granules on the wire: seed 7 fires 9 drops.
    payload = (np.arange(32000) % 251).astype(np.uint8)
    got = {}

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(payload, dest=50)
        elif comm.rank == 50:
            got["data"] = yield from comm.recv(len(payload), src=0)

    system.run(program, ranks=[0, 50])
    assert (got["data"] == payload).all()
    m = system.metrics
    assert m["faults.dropped{dst=1,src=0}"] > 0
    assert m["faults.retries{dst=1,src=0}"] > 0
    assert m["faults.lost{dst=1,src=0}"] == 0
    # The reverse link has no fault state installed (its spec is null),
    # so its counters never materialize.
    assert "faults.retries{dst=0,src=1}" not in m


def _fingerprint(**system_kwargs):
    """(sim time, allreduce result) of one fixed 2-device program."""
    system = VSCCSystem(num_devices=2, scheme=VDMA, **system_kwargs)
    n = system.num_ranks
    out = {}

    def program(comm):
        yield from comm.barrier(group_size=n)
        acc = yield from comm.allreduce(
            np.arange(16.0) + comm.rank, np.add, group_size=n
        )
        if comm.rank == 0:
            out["acc"] = acc.copy()

    system.run(program)
    return system.sim.now, system.sim.events_processed, out["acc"]


def test_single_host_bit_identity_fused_vs_unfused():
    t_fused, _ev_f, acc_fused = _fingerprint(fuse_delays=True)
    t_plain, _ev_p, acc_plain = _fingerprint(fuse_delays=False)
    # Fusion collapses event counts but must not move simulated time.
    assert t_fused == t_plain
    assert (acc_fused == acc_plain).all()
