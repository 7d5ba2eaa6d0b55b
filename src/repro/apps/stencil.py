"""2D Jacobi heat stencil on RCCE — a classic halo-exchange workload.

The kind of "parallel application which extensively uses blocking
point-to-point communication with a neighborhood communication pattern"
that the paper's conclusion highlights as scaling excellently on vSCC.
The grid is block-row partitioned; each iteration exchanges one halo row
with each neighbor and applies the 5-point stencil. Real numerics,
verified against :func:`jacobi_reference`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

import numpy as np

from repro.rcce.api import Rcce

__all__ = ["StencilConfig", "jacobi_reference", "stencil_program", "run_stencil"]


@dataclass(frozen=True)
class StencilConfig:
    """Grid and iteration count of a heat-stencil run."""

    nx: int = 64
    ny: int = 64
    iterations: int = 20
    nranks: int = 4
    #: modeled flop per updated point (4 add + 1 mul).
    flops_per_point: float = 5.0
    flops_per_cycle: float = 0.15

    def __post_init__(self) -> None:
        if self.nx < self.nranks:
            raise ValueError("fewer grid rows than ranks")


def initial_grid(config: StencilConfig) -> np.ndarray:
    """Hot edge at the top, cold elsewhere (deterministic)."""
    grid = np.zeros((config.nx, config.ny))
    grid[0, :] = 100.0
    grid[:, 0] = 25.0
    return grid


def jacobi_reference(config: StencilConfig) -> np.ndarray:
    """Serial reference with the identical update order."""
    grid = initial_grid(config)
    for _ in range(config.iterations):
        new = grid.copy()
        new[1:-1, 1:-1] = 0.25 * (
            grid[:-2, 1:-1] + grid[2:, 1:-1] + grid[1:-1, :-2] + grid[1:-1, 2:]
        )
        grid = new
    return grid


def _row_span(config: StencilConfig, rank: int) -> tuple[int, int]:
    base, extra = divmod(config.nx, config.nranks)
    start = rank * base + min(rank, extra)
    return start, start + base + (1 if rank < extra else 0)


def stencil_program(config: StencilConfig, results: dict):
    """Program factory: block-row Jacobi with halo exchange.

    Deadlock-free exchange ordering under synchronous sends: even ranks
    send first, odd ranks receive first.
    """

    def program(comm: Rcce) -> Generator:
        rank = comm.rank
        if rank >= config.nranks:
            return None
        env = comm.env
        start, end = _row_span(config, rank)
        rows = end - start
        local = initial_grid(config)[start:end].copy()
        up = rank - 1 if rank > 0 else None
        down = rank + 1 if rank < config.nranks - 1 else None
        row_bytes = config.ny * 8

        yield from comm.barrier(group_size=config.nranks)
        t0 = env.sim.now
        for _ in range(config.iterations):
            halo_up = halo_down = None

            def exchange(peer: int, send_row: np.ndarray) -> Generator:
                data = None
                if rank % 2 == 0:
                    yield from comm.send(send_row, peer)
                    data = yield from comm.recv(row_bytes, peer)
                else:
                    data = yield from comm.recv(row_bytes, peer)
                    yield from comm.send(send_row, peer)
                return data.view(np.float64)

            if up is not None:
                halo_up = yield from exchange(up, local[0])
            if down is not None:
                halo_down = yield from exchange(down, local[-1])

            stacked = [local]
            if halo_up is not None:
                stacked.insert(0, halo_up.reshape(1, -1))
            if halo_down is not None:
                stacked.append(halo_down.reshape(1, -1))
            padded = np.vstack(stacked)
            top = 1 if halo_up is not None else 0

            new = local.copy()
            lo = 1 if up is None else 0
            hi = rows - 1 if down is None else rows
            for i in range(lo, hi):
                pi = i + top
                if 0 < pi < padded.shape[0] - 1:
                    new[i, 1:-1] = 0.25 * (
                        padded[pi - 1, 1:-1]
                        + padded[pi + 1, 1:-1]
                        + padded[pi, :-2]
                        + padded[pi, 2:]
                    )
            # Boundary rows of the global grid stay fixed.
            if up is None:
                new[0] = local[0]
            if down is None:
                new[-1] = local[-1]
            local = new
            yield from env.compute_flops(
                config.flops_per_point * rows * config.ny, config.flops_per_cycle
            )
        yield from comm.barrier(group_size=config.nranks)
        results[rank] = (start, end, local, env.sim.now - t0)
        return local

    return program


def run_stencil(session, config: Optional[StencilConfig] = None) -> np.ndarray:
    """Run the stencil on a session; returns the assembled global grid."""
    config = config or StencilConfig()
    results: dict = {}
    session.run(stencil_program(config, results), ranks=range(config.nranks))
    grid = np.zeros((config.nx, config.ny))
    for _rank, (start, end, local, _elapsed) in results.items():
        grid[start:end] = local
    return grid
