"""Ping-pong microbenchmark (paper §4.1, Fig 6).

Two ranks bounce a message back and forth; throughput is one-way bytes
over one-way time. The app runs unchanged on a single device (on-chip
curves of Fig 6a) and across devices on any vSCC scheme (Fig 6b) — the
session object decides which transports move the bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional, Sequence

import numpy as np

from repro.rcce.api import Rcce

__all__ = ["PingPongPoint", "run_pingpong", "DEFAULT_SIZES"]

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


def _pingpong_program(
    peer: int,
    sizes: Sequence[int],
    iterations: int,
    warmup: int,
    results: dict[int, PingPongPoint],
    verify: bool,
):
    """Program factory; the lower rank initiates, the higher echoes."""

    def program(comm: Rcce) -> Generator:
        initiator = comm.rank < peer
        for size in sizes:
            payload = (np.arange(size, dtype=np.int64) % 251).astype(np.uint8)
            if initiator:
                for _ in range(warmup):
                    yield from comm.send(payload, peer)
                    yield from comm.recv(size, peer)
                start = comm.env.sim.now
                for _ in range(iterations):
                    yield from comm.send(payload, peer)
                    data = yield from comm.recv(size, peer)
                elapsed = comm.env.sim.now - start
                if verify and size and not (data == payload).all():
                    raise AssertionError(
                        f"ping-pong payload corrupted at size {size}"
                    )
                results[size] = PingPongPoint.from_elapsed(size, iterations, elapsed)
            else:
                for _ in range(warmup + iterations):
                    data = yield from comm.recv(size, peer)
                    yield from comm.send(data, peer)
        return None

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

    ``session`` is any object with ``run(program, ranks=...)`` —
    a :class:`repro.rcce.session.RcceSession` or a
    :class:`repro.vscc.system.VSCCSystem`.
    """
    if rank_a == rank_b:
        raise ValueError("ping-pong needs two distinct ranks")
    low, high = sorted((rank_a, rank_b))
    results: dict[int, PingPongPoint] = {}
    # Both sides bounce with their actual partner.
    def factory(comm: Rcce) -> Generator:
        partner = high if comm.rank == low else low
        return _pingpong_program(
            partner, sizes, iterations, warmup, results, verify
        )(comm)

    session.run(factory, ranks=[low, high])
    return [results[size] for size in sizes]
