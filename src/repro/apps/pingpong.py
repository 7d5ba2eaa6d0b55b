"""Ping-pong microbenchmark (paper §4.1, Fig 6).

Two ranks bounce a message back and forth; throughput is one-way bytes
over one-way time. The app runs unchanged on a single device (on-chip
curves of Fig 6a) and across devices on any vSCC scheme (Fig 6b) — the
session object decides which transports move the bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Sequence

import numpy as np

from repro.rcce.api import Rcce

__all__ = ["PingPongPoint", "pingpong_program", "run_pingpong", "DEFAULT_SIZES"]

#: Fig 6 sweeps message sizes from tens of bytes to a quarter megabyte.
DEFAULT_SIZES: tuple[int, ...] = (
    32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536,
    131072, 262144,
)


@dataclass(frozen=True)
class PingPongPoint:
    """One measured point of the ping-pong sweep."""

    size: int
    iterations: int
    oneway_ns: float
    #: one-way throughput in MB/s (10⁶ bytes per second)
    throughput_mbps: float

    @classmethod
    def from_elapsed(cls, size: int, iterations: int, elapsed_ns: float):
        oneway = elapsed_ns / (2 * iterations)
        return cls(size, iterations, oneway, size / oneway * 1000.0 if oneway else 0.0)


def _round_trip(comm: Rcce, payload: np.ndarray, peer: int, verify: bool) -> Generator:
    """Send ``payload`` to ``peer`` and receive the echo; ``verify`` checks it."""
    yield from comm.send(payload, peer)
    data = yield from comm.recv(len(payload), peer)
    if verify and len(payload) and not (data == payload).all():
        raise AssertionError(f"ping-pong payload corrupted at size {len(payload)}")


def pingpong_program(
    rank_a: int,
    rank_b: int,
    sizes: Sequence[int] = DEFAULT_SIZES,
    iterations: int = 5,
    warmup: int = 1,
    verify: bool = True,
):
    """The sweep as one program for ``run(program, ranks=[rank_a, rank_b])``.

    The lower rank initiates and returns one :class:`PingPongPoint` per
    size; the higher rank echoes every message back. With ``verify``
    the initiator checks every echo, warm-up round trips included.
    """
    if rank_a == rank_b:
        raise ValueError("ping-pong needs two distinct ranks")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    low, high = sorted((rank_a, rank_b))

    def program(comm: Rcce) -> Generator:
        if comm.rank != low:
            for size in sizes:
                for _ in range(warmup + iterations):
                    data = yield from comm.recv(size, low)
                    yield from comm.send(data, low)
            return None
        points = []
        for size in sizes:
            payload = (np.arange(size, dtype=np.int64) % 251).astype(np.uint8)
            for _ in range(warmup):
                yield from _round_trip(comm, payload, high, verify)
            start = comm.env.sim.now
            for _ in range(iterations):
                yield from _round_trip(comm, payload, high, verify)
            elapsed = comm.env.sim.now - start
            points.append(PingPongPoint.from_elapsed(size, iterations, elapsed))
        return points

    return program


def run_pingpong(
    session,
    rank_a: int,
    rank_b: int,
    sizes: Sequence[int] = DEFAULT_SIZES,
    iterations: int = 5,
    warmup: int = 1,
    verify: bool = True,
) -> list[PingPongPoint]:
    """Run the sweep between two ranks of a session.

    ``session`` is a :class:`repro.rcce.session.RcceSession`: a plain
    one for the on-chip curves, a :class:`repro.vscc.system.VSCCSystem`
    for the inter-device ones.
    """
    program = pingpong_program(rank_a, rank_b, sizes, iterations, warmup, verify)
    ranks = sorted((rank_a, rank_b))
    return session.run(program, ranks=ranks)[ranks[0]]
