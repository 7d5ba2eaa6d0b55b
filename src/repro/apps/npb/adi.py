"""BT-structured ADI diffusion solver with **real numerics**.

Full NPB BT numerics (5×5 block tridiagonal systems at 162³) are beyond
a simulated P54C, so the verification-grade mode of
:class:`~repro.apps.npb.bt.BTBenchmark` solves the scalar heat equation
with the *same* alternating-direction-implicit structure: per timestep,
one tridiagonal line solve along each of x, y, z, distributed over the
diagonal multi-partitioning — forward elimination pipelined down the
slabs (Thomas coefficients cross cell boundaries through messages),
back-substitution pipelined back up. The parallel run is bit-identical
to the serial reference (:func:`adi_reference`) because every recurrence
is evaluated in the same element order; any protocol bug that corrupts
or reorders bytes breaks the equality.

Unpinned: kept as DESIGN.md §2's byte-level proof of the whole stack.
"""

from __future__ import annotations

from typing import Generator, TYPE_CHECKING

import numpy as np

from repro.ircce.nonblocking import isend
from repro.rcce.api import Rcce

from .multipartition import MultiPartition

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .bt import BTBenchmark

__all__ = ["ADI_R", "initial_condition", "adi_reference", "adi_program"]

#: Diffusion number r = α·Δt/Δx² (any 0 < r keeps the scheme stable;
#: implicit schemes are unconditionally stable).
ADI_R = 0.1

#: Approximate flop per grid point for one Thomas forward row / back row.
_FWD_FLOPS = 8.0
_BACK_FLOPS = 2.0


def initial_condition(n: int) -> np.ndarray:
    """Deterministic, structured initial field (no RNG: reproducible)."""
    idx = np.arange(n, dtype=np.float64)
    gx, gy, gz = np.meshgrid(idx, idx, idx, indexing="ij")
    return np.sin(0.5 + gx * 0.37) * np.cos(gy * 0.21) + 0.1 * np.sin(gz * 0.13)


def _thomas_axis0(d: np.ndarray, r: float) -> np.ndarray:
    """Serial Thomas solve of (I - r·D²)x = d along axis 0 (Dirichlet)."""
    a, b, c = -r, 1.0 + 2.0 * r, -r
    n = d.shape[0]
    x = d.astype(np.float64, copy=True)
    cp = np.empty_like(x)
    cp[0] = c / b
    x[0] = x[0] / b
    for i in range(1, n):
        denom = b - a * cp[i - 1]
        cp[i] = c / denom
        x[i] = (x[i] - a * x[i - 1]) / denom
    for i in range(n - 2, -1, -1):
        x[i] = x[i] - cp[i] * x[i + 1]
    return x


def adi_reference(u0: np.ndarray, steps: int, r: float = ADI_R) -> np.ndarray:
    """Serial reference: the exact arithmetic the parallel solver performs."""
    u = u0.astype(np.float64, copy=True)
    for _ in range(steps):
        for axis in (0, 1, 2):
            moved = np.moveaxis(u, axis, 0)
            moved[...] = _thomas_axis0(moved, r)
    return u


def _local_cells(part: MultiPartition, rank: int, u0: np.ndarray) -> dict:
    """Extract the rank's p cells from the global initial field."""
    cells = {}
    for c, (x, y, z) in enumerate(part.cells(rank)):
        sx, sy, sz = part.slab_start(x), part.slab_start(y), part.slab_start(z)
        ex, ey, ez = (
            sx + part.slab_size(x),
            sy + part.slab_size(y),
            sz + part.slab_size(z),
        )
        cells[c] = u0[sx:ex, sy:ey, sz:ez].astype(np.float64, copy=True)
    return cells


def adi_program(bench: "BTBenchmark", comm: Rcce) -> Generator:
    """Per-rank ADI program; returns ``{cell_coords: final_array}``.

    Communication per sweep and stage mirrors NPB BT exactly: forward
    messages carry the Thomas coefficients of the cell's last plane
    (c', d'), back messages carry the first plane of the solution.
    """
    part = bench.part
    rank = comm.rank
    if rank >= part.nranks:
        return {}
    env = comm.env
    r = ADI_R
    a, b, c_off = -r, 1.0 + 2.0 * r, -r
    u0 = initial_condition(part.n)
    cells = _local_cells(part, rank, u0)
    fpc = bench.cost.flops_per_cycle

    yield from comm.barrier(group_size=part.nranks)
    start = env.sim.now
    for _step in range(bench.niter):
        for dim in (0, 1, 2):
            succ = part.partner(rank, dim, True)
            pred = part.partner(rank, dim, False)
            saved_cp: dict[int, np.ndarray] = {}
            views: dict[int, np.ndarray] = {}

            # -- forward elimination, slab 0 … p-1 ------------------------
            for slab in range(part.p):
                cell = part.cell_in_slab(rank, dim, slab)
                data = np.moveaxis(cells[cell], dim, 0)
                rows = data.shape[0]
                cross = data.shape[1] * data.shape[2]
                if slab == 0:
                    cp_prev = None
                    d_prev = None
                else:
                    raw = yield from comm.recv(2 * cross * 8, pred)
                    planes = raw.view(np.float64).reshape(2, *data.shape[1:])
                    cp_prev, d_prev = planes[0], planes[1]
                cp = np.empty_like(data)
                for i in range(rows):
                    if cp_prev is None and i == 0:
                        cp[0] = c_off / b
                        data[0] = data[0] / b
                    else:
                        prev_cp = cp[i - 1] if i else cp_prev
                        prev_d = data[i - 1] if i else d_prev
                        denom = b - a * prev_cp
                        cp[i] = c_off / denom
                        data[i] = (data[i] - a * prev_d) / denom
                yield from env.compute_flops(_FWD_FLOPS * rows * cross, fpc)
                saved_cp[slab] = cp
                views[slab] = data
                if slab < part.p - 1:
                    planes = np.stack([cp[-1], data[-1]])
                    yield from _ring_send(comm, planes, succ)

            # -- back substitution, slab p-1 … 0 ---------------------------
            for slab in range(part.p - 1, -1, -1):
                data = views[slab]
                cp = saved_cp[slab]
                rows = data.shape[0]
                cross = data.shape[1] * data.shape[2]
                if slab < part.p - 1:
                    raw = yield from comm.recv(cross * 8, succ)
                    x_next = raw.view(np.float64).reshape(data.shape[1:])
                    data[-1] = data[-1] - cp[-1] * x_next
                    first_back = rows - 2
                else:
                    first_back = rows - 2  # last global row: x = d' already
                for i in range(first_back, -1, -1):
                    data[i] = data[i] - cp[i] * data[i + 1]
                yield from env.compute_flops(_BACK_FLOPS * rows * cross, fpc)
                if slab > 0:
                    yield from _ring_send(comm, data[0].copy(), pred)
    yield from comm.barrier(group_size=part.nranks)
    bench._elapsed[rank] = env.sim.now - start
    return {coords: cells[c] for c, coords in enumerate(part.cells(rank))}


def _ring_send(comm: Rcce, array: np.ndarray, dest: int) -> Generator:
    """Non-blocking send for pipeline-ring boundaries.

    The stage-boundary sends of a sweep form a ring over the partner
    permutation; a synchronous send here would deadlock, so the request
    is chained (iRCCE keeps per-pair FIFO order) and completion is
    deferred to the chain.
    """
    if dest == comm.rank:
        raise AssertionError("ring send to self — p == 1 should not send")
    isend(comm, np.ascontiguousarray(array), dest)
    return
    yield  # pragma: no cover - generator marker
