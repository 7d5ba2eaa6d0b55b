"""Distributed conjugate gradient — a collectives-heavy real workload.

The paper's applications (ping-pong, BT) stress point-to-point paths;
CG complements them: every iteration needs two global ``allreduce`` dot
products plus a halo exchange for the sparse mat-vec, so collective
latency across the z direction dominates at scale — the opposite corner
of the workload space from BT's neighbor pattern.

The system solved is the 2D five-point Laplacian (Dirichlet) over an
``n×n`` grid, block-row partitioned. Real numerics: the distributed run
is verified against :func:`cg_reference` (same algorithm, same
floating-point order — the tree-reduction order of the dot products is
replicated exactly, so results match bit for bit).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

import numpy as np

from repro.rcce.api import Rcce

__all__ = ["CGConfig", "cg_reference", "run_cg", "cg_program"]


@dataclass(frozen=True)
class CGConfig:
    """Problem and run parameters."""

    n: int = 32
    iterations: int = 25
    nranks: int = 4
    flops_per_cycle: float = 0.15
    #: Route the dot-product allreduces through the two-level
    #: (topology-aware) collectives instead of the flat binomial tree.
    hierarchical: bool = False

    def __post_init__(self) -> None:
        if self.n < self.nranks:
            raise ValueError("fewer grid rows than ranks")


def _laplacian_apply(x: np.ndarray, top: np.ndarray, bottom: np.ndarray) -> np.ndarray:
    """y = A·x for the 2D five-point Laplacian on a row block.

    ``top``/``bottom`` are the halo rows (zeros at the global boundary).
    """
    y = 4.0 * x
    y[1:, :] -= x[:-1, :]
    y[:-1, :] -= x[1:, :]
    y[0, :] -= top
    y[-1, :] -= bottom
    y[:, 1:] -= x[:, :-1]
    y[:, :-1] -= x[:, 1:]
    return y


def _tree_sum(values: list[float], n: int) -> float:
    """Sum in exactly the binomial-tree order of ``collectives.reduce``.

    Index i accumulates index i+mask for every mask while ``i & mask``
    is clear — replicated here so the serial reference matches the
    distributed run bit for bit.
    """
    acc = list(values)
    mask = 1
    while mask < n:
        for i in range(0, n, 2 * mask):
            if i + mask < n:
                acc[i] = acc[i] + acc[i + mask]
        mask <<= 1
    return acc[0]


def _grouped_tree_sum(values: list[float], groups: list[list[int]]) -> float:
    """Sum in the two-level order of ``hierarchical.allreduce``: a
    binomial fold inside each device subgroup (indices into ``values``,
    leader first), then the binomial fold across the group leaders."""
    leader_vals = [_tree_sum([values[i] for i in g], len(g)) for g in groups]
    return _tree_sum(leader_vals, len(groups))


def _rhs(config: CGConfig) -> np.ndarray:
    idx = np.arange(config.n, dtype=np.float64)
    gx, gy = np.meshgrid(idx, idx, indexing="ij")
    return np.sin(0.3 + 0.41 * gx) * np.cos(0.17 * gy)


def _row_span(config: CGConfig, rank: int) -> tuple[int, int]:
    base, extra = divmod(config.n, config.nranks)
    start = rank * base + min(rank, extra)
    return start, start + base + (1 if rank < extra else 0)


def cg_reference(
    config: CGConfig, groups: Optional[list[list[int]]] = None
) -> tuple[np.ndarray, float]:
    """Serial CG with the distributed run's exact reduction order.

    ``groups`` replays a hierarchical run: the per-device partition of
    the rank list (``FabricTopology.device_groups`` values, as rank
    indices) the two-level allreduce folded over. Left ``None``, the
    flat binomial order is replayed.

    Returns (solution, final residual norm²).
    """
    spans = [_row_span(config, r) for r in range(config.nranks)]

    def blocks(v: np.ndarray) -> list[np.ndarray]:
        return [v[a:b] for a, b in spans]

    def dot(u: np.ndarray, v: np.ndarray) -> float:
        locals_ = [
            float(np.dot(bu.ravel(), bv.ravel()))
            for bu, bv in zip(blocks(u), blocks(v))
        ]
        if groups is not None:
            return _grouped_tree_sum(locals_, groups)
        return _tree_sum(locals_, config.nranks)

    b = _rhs(config)
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = dot(r, r)
    for _ in range(config.iterations):
        zero = np.zeros(config.n)
        ap = np.vstack([
            _laplacian_apply(
                p[a:bnd],
                p[a - 1] if a > 0 else zero,
                p[bnd] if bnd < config.n else zero,
            )
            for a, bnd in spans
        ])
        alpha = rs / dot(p, ap)
        x = x + alpha * p
        r = r - alpha * ap
        rs_new = dot(r, r)
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x, rs


def cg_program(config: CGConfig, results: dict):
    """Program factory: block-row CG with halo exchange + allreduce."""

    def program(comm: Rcce) -> Generator:
        rank = comm.rank
        if rank >= config.nranks:
            return None
        env = comm.env
        n = config.nranks
        members = list(range(n))
        start, end = _row_span(config, rank)
        up = rank - 1 if rank > 0 else None
        down = rank + 1 if rank < n - 1 else None
        row_bytes = config.n * 8
        zero = np.zeros(config.n)

        def halo(vec: np.ndarray) -> Generator:
            top = bottom = zero
            if up is not None or down is not None:
                if rank % 2 == 0:
                    if down is not None:
                        yield from comm.send(vec[-1], down)
                        bottom = (yield from comm.recv(row_bytes, down)).view(np.float64)
                    if up is not None:
                        yield from comm.send(vec[0], up)
                        top = (yield from comm.recv(row_bytes, up)).view(np.float64)
                else:
                    if up is not None:
                        top = (yield from comm.recv(row_bytes, up)).view(np.float64)
                        yield from comm.send(vec[0], up)
                    if down is not None:
                        bottom = (yield from comm.recv(row_bytes, down)).view(np.float64)
                        yield from comm.send(vec[-1], down)
            return top, bottom

        def dot(u: np.ndarray, v: np.ndarray) -> Generator:
            local = np.array([np.dot(u.ravel(), v.ravel())])
            total = yield from comm.allreduce(
                local, np.add, members=members,
                hierarchical=config.hierarchical,
            )
            return float(total[0])

        b = _rhs(config)[start:end]
        x = np.zeros_like(b)
        r = b.copy()
        p = r.copy()
        rs = yield from dot(r, r)
        rows = end - start
        flops_per_iter = rows * config.n * 14.0  # 5-pt stencil + vector ops
        for _ in range(config.iterations):
            top, bottom = yield from halo(p)
            ap = _laplacian_apply(p, top, bottom)
            yield from env.compute_flops(flops_per_iter, config.flops_per_cycle)
            pap = yield from dot(p, ap)
            alpha = rs / pap
            x = x + alpha * p
            r = r - alpha * ap
            rs_new = yield from dot(r, r)
            p = r + (rs_new / rs) * p
            rs = rs_new
        results[rank] = (start, end, x, rs)
        return rs

    return program


def run_cg(session, config: Optional[CGConfig] = None) -> tuple[np.ndarray, float]:
    """Run distributed CG; returns (assembled solution, final residual²)."""
    config = config or CGConfig()
    results: dict = {}
    session.run(cg_program(config, results), ranks=range(config.nranks))
    x = np.zeros((config.n, config.n))
    rs = 0.0
    for _rank, (start, end, block, res) in results.items():
        x[start:end] = block
        rs = res
    return x, rs
