"""Micro-benchmarks for simulation-kernel primitives.

Each function exercises one hot primitive of the simulator in isolation
— process/Delay churn, zero-delay wake-ups, MPB watchpoint pulsing, XY
router accounting — at a fixed, deterministic operation count, and
returns a fingerprint dict (simulated time, event/op counts) that must
be bit-identical run-to-run and across kernel refactors.

``benchmarks/bench_wallclock.py`` registers these as ``micro_*``
scenarios so their wall-clock cost lands in ``BENCH_wallclock.json``
next to the figure-level benches: future kernel PRs see the
per-primitive cost they changed, not just the end-to-end effect.

Run standalone for a quick ns/op table::

    PYTHONPATH=src python benchmarks/bench_kernel_micro.py
"""

from __future__ import annotations

from repro.scc.mesh import XYRouter
from repro.scc.mpb import MpbAddr, MPBMemory
from repro.scc.params import SCCParams
from repro.sim.engine import Delay, Simulator

__all__ = [
    "chunk_send_churn",
    "flag_wait_churn",
    "router_account",
    "spawn_delay_churn",
    "watchpoint_pulse",
    "yield_float_churn",
    "zero_delay_churn",
]


def spawn_delay_churn(nprocs: int = 200, nyields: int = 200) -> dict:
    """Spawn ``nprocs`` processes that each yield ``nyields`` Delay objects.

    Measures the classic per-event cost: Delay construction, heap push /
    pop, generator resume.
    """
    sim = Simulator()

    def prog():
        for _ in range(nyields):
            yield Delay(1.0)

    for _ in range(nprocs):
        sim.spawn(prog())
    sim.run()
    return {
        "ops": nprocs * nyields,
        "sim_now_ns": sim.now,
        "events": sim.events_processed,
    }


def yield_float_churn(nprocs: int = 200, nyields: int = 200) -> dict:
    """Same churn as :func:`spawn_delay_churn`, but yielding bare floats.

    Measures the allocation-free delay fast path.
    """
    sim = Simulator()

    def prog():
        for _ in range(nyields):
            yield 1.0

    for _ in range(nprocs):
        sim.spawn(prog())
    sim.run()
    return {
        "ops": nprocs * nyields,
        "sim_now_ns": sim.now,
        "events": sim.events_processed,
    }


def zero_delay_churn(nprocs: int = 100, nyields: int = 500) -> dict:
    """All-zero-delay event storm at t=0 (the FIFO fast-lane regime)."""
    sim = Simulator()

    def prog():
        for _ in range(nyields):
            yield Delay(0.0)

    for _ in range(nprocs):
        sim.spawn(prog())
    sim.run()
    return {
        "ops": nprocs * nyields,
        "sim_now_ns": sim.now,
        "events": sim.events_processed,
    }


def watchpoint_pulse(nwatches: int = 512, nwrites: int = 20000) -> dict:
    """MPB writes against a store with many registered watchpoints.

    Alternates a 32 B payload write (touches no watched byte) with a
    one-byte flag write on a watched byte — the flag-heavy traffic mix
    where per-write watch handling dominates.
    """
    sim = Simulator()
    params = SCCParams()
    mem = MPBMemory(sim, params, device_id=0)
    sf = mem.sf_base()
    # Register watches across the SF region of several cores.
    per_core = min(nwatches // 8 or 1, params.sf_bytes)
    registered = 0
    for core in range(8):
        for b in range(per_core):
            if registered >= nwatches:
                break
            mem.watch(MpbAddr(0, core, sf + b))
            registered += 1
    payload = bytes(32)
    payload_addr = MpbAddr(0, 0, 0)
    flag_addr = MpbAddr(0, 0, sf)
    for i in range(nwrites):
        mem.write(payload_addr, payload)
        mem.write_byte(flag_addr, i & 0xFF)
    return {
        "ops": 2 * nwrites,
        "watches": registered,
        "writes": float(mem.write_count),
    }


def router_account(ncalls: int = 200000) -> dict:
    """XY-router traffic accounting over a fixed pair schedule."""
    params = SCCParams()
    router = XYRouter(params)
    n = params.num_tiles
    pairs = [(i % n, (i * 7 + 3) % n) for i in range(64)]
    for i in range(ncalls):
        src, dst = pairs[i & 63]
        router.account(src, dst, 96)
    return {
        "ops": ncalls,
        "link_busy_ns": router.link_busy_ns,
        "link_bytes": float(sum(router.link_bytes.values())),
        "links_used": float(len(router.link_bytes)),
    }


def flag_wait_churn(nrounds: int = 400) -> dict:
    """set_flag/wait_flag ping-pong between two on-die ranks.

    Exercises the flag hot path end to end: remote one-byte flag write
    (mesh hop + ``call_at`` arrival), watchpoint park, and the fused
    watch-then-poll wake in ``wait_flag_pred`` — the exact pattern that
    dominates the RCCE transports.
    """
    from repro.rcce.flags import FlagLayout
    from repro.rcce.session import RcceSession

    session = RcceSession()
    fl = session.flags
    ping = fl.sent(1, 0)  # in rank 1's SF, written by rank 0
    pong = fl.sent(0, 1)  # in rank 0's SF, written by rank 1

    def rank0(comm):
        env = comm.env
        seq = 0
        for _ in range(nrounds):
            seq = FlagLayout.next_seq(seq)
            yield from env.set_flag(ping, seq)
            yield from env.wait_flag(pong, seq)

    def rank1(comm):
        env = comm.env
        seq = 0
        for _ in range(nrounds):
            seq = FlagLayout.next_seq(seq)
            yield from env.wait_flag(ping, seq)
            yield from env.set_flag(pong, seq)

    sim = session.sim
    sim.spawn(rank0(session.comm_for(0)), name="rank0")
    sim.spawn(rank1(session.comm_for(1)), name="rank1")
    sim.run()
    return {
        "ops": 2 * nrounds,
        "sim_now_ns": sim.now,
        "events": sim.events_processed,
    }


def chunk_send_churn(nmsgs: int = 48, nbytes: int = 4096) -> dict:
    """Blocking RCCE send/recv stream between two on-die ranks.

    Exercises the chunked default transport — ``put_chunk``/``get_chunk``
    staging through the communication buffer plus the sent/ready flag
    handshake — with a payload checksum in the fingerprint so data
    corruption fails the bench, not just timing drift.
    """
    import numpy as np

    from repro.rcce.session import RcceSession

    session = RcceSession()
    payload = (np.arange(nbytes, dtype=np.int64) % 251).astype(np.uint8)
    checksums: list[int] = []

    def sender(comm):
        for _ in range(nmsgs):
            yield from comm.send(payload, dest=1)

    def receiver(comm):
        for _ in range(nmsgs):
            data = yield from comm.recv(nbytes, src=0)
            checksums.append(int(data[::97].sum()))

    sim = session.sim
    sim.spawn(sender(session.comm_for(0)), name="rank0")
    sim.spawn(receiver(session.comm_for(1)), name="rank1")
    sim.run()
    return {
        "ops": nmsgs,
        "bytes": float(nmsgs * nbytes),
        "checksum": float(sum(checksums)),
        "sim_now_ns": sim.now,
        "events": sim.events_processed,
    }


def _main() -> None:
    import time

    for fn in (
        spawn_delay_churn,
        yield_float_churn,
        zero_delay_churn,
        watchpoint_pulse,
        router_account,
        flag_wait_churn,
        chunk_send_churn,
    ):
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
        per_op = wall / result["ops"] * 1e9
        print(f"{fn.__name__:24s} {wall:8.3f} s  {per_op:9.1f} ns/op")


if __name__ == "__main__":
    _main()
