"""NPB BT on RCCE (paper §4.2, Fig 7 and Fig 8).

``BTBenchmark`` drives the multi-partition BT dataflow on a simulated
session. Two modes share the same communication skeleton:

* ``mode="model"`` — compute is charged from NPB operation counts
  (:class:`~repro.apps.npb.model.BTCostModel`); message payloads carry
  synthetic bytes of the modeled sizes. This scales to class C on 225
  ranks and produces Fig 7's GFLOP/s numbers and Fig 8's traffic.
* ``mode="adi"`` — real numerics: a scalar ADI diffusion solver with
  exactly BT's sweep/pipeline structure (:mod:`repro.apps.npb.adi`),
  verified against a serial reference. Used by tests and the example.

The dataflow per timestep follows NPB BT: ``copy_faces`` (ghost
exchange with all six fixed partners), ``rhs``, then pipelined
``x_solve`` / ``y_solve`` / ``z_solve`` (forward elimination down the
slabs, back-substitution up), then ``add``. Sweep boundary messages use
iRCCE non-blocking sends — the stage-boundary sends of a multipartition
sweep form rings, which deadlock under purely synchronous sends.

Unpinned: ``BTBenchmark.result`` — reached only by the class C pins
(``fig7_bt_class_c``) and the examples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional

from repro.ircce.nonblocking import isend
from repro.rcce.api import Rcce

from .model import BT_CLASSES, BTClass, BTCostModel
from .multipartition import MultiPartition, X, Y, Z

__all__ = ["BTResult", "BTBenchmark", "run_bt"]


@dataclass(frozen=True)
class BTResult:
    """Aggregate result of a BT run."""

    clazz: str
    n: int
    niter: int
    nranks: int
    elapsed_s: float
    total_gflops: float
    gflops_per_s: float


class BTBenchmark:
    """One configured BT run; spawn with ``session.run(bench.program)``."""

    def __init__(
        self,
        clazz: str | BTClass = "S",
        nranks: int = 16,
        niter: Optional[int] = None,
        mode: str = "model",
    ):
        if niter is not None and niter < 1:
            raise ValueError(f"niter must be >= 1, got {niter}")
        self.clazz = BT_CLASSES[clazz] if isinstance(clazz, str) else clazz
        self.niter = niter if niter is not None else self.clazz.niter
        self.mode = mode
        self.cost = BTCostModel()
        self.part = MultiPartition(nranks, self.clazz.n)
        if mode not in ("model", "adi"):
            raise ValueError(f"unknown BT mode {mode!r}")
        self._elapsed: dict[int, float] = {}
        #: size -> the one immutable zero payload every rank sends
        self._payloads: dict[int, bytes] = {}

    # -- program ----------------------------------------------------------------

    def program(self, comm: Rcce) -> Generator:
        if self.mode == "adi":
            from .adi import adi_program  # local import: numpy-heavy

            result = yield from adi_program(self, comm)
            return result
        result = yield from self._model_program(comm)
        return result

    def _model_program(self, comm: Rcce) -> Generator:
        part, cost = self.part, self.cost
        rank = comm.rank
        if rank >= part.nranks:
            return None
        env = comm.env
        my_points = sum(part.points_in_cell(rank, c) for c in range(part.p))

        yield from comm.barrier(group_size=part.nranks)
        start = env.sim.now
        for _step in range(self.niter):
            yield from self._copy_faces(comm)
            yield from env.compute_flops(
                cost.phase_flops_per_point("rhs") * my_points, cost.flops_per_cycle
            )
            for dim, phase in ((X, "xsolve"), (Y, "ysolve"), (Z, "zsolve")):
                yield from self._sweep(comm, dim, phase)
            yield from env.compute_flops(
                cost.phase_flops_per_point("add") * my_points, cost.flops_per_cycle
            )
        yield from comm.barrier(group_size=part.nranks)
        self._elapsed[rank] = env.sim.now - start
        return self._elapsed[rank]

    # -- phases ---------------------------------------------------------------------

    def _copy_faces(self, comm: Rcce) -> Generator:
        """Ghost-layer exchange with all six fixed partners.

        Sends are non-blocking (a synchronous exchange around the
        partner rings would deadlock); receives are posted in a fixed
        partner order shared by all ranks.
        """
        part = self.part
        rank = comm.rank
        requests = []
        for dim in (X, Y, Z):
            for positive in (True, False):
                partner = part.partner(rank, dim, positive)
                if partner == rank:
                    continue  # p == 1 in that direction
                nbytes = self._face_bytes(rank, dim)
                requests.append(isend(comm, self._payload(nbytes), partner))
        for dim in (X, Y, Z):
            for positive in (True, False):
                partner = part.partner(rank, dim, not positive)
                if partner == rank:
                    continue
                nbytes = self._face_bytes(partner, dim)
                yield from comm.recv(nbytes, partner)
        for request in requests:
            yield from request.wait()

    def _payload(self, nbytes: int) -> bytes:
        """The model's ``nbytes`` message: one shared immutable ``bytes``
        per size, built on first use. The model never reads payload
        contents, and a send shares immutable payloads instead of
        copying them."""
        payload = self._payloads.get(nbytes)
        if payload is None:
            payload = self._payloads[nbytes] = bytes(nbytes)
        return payload

    def _face_bytes(self, sender_rank: int, dim: int) -> int:
        """Total copy_faces bytes a rank sends to one partner: one face
        per owned cell."""
        part = self.part
        total = 0
        for c in range(part.p):
            shape = part.cell_shape(sender_rank, c)
            cross = 1
            for axis, s in enumerate(shape):
                if axis != dim:
                    cross *= s
            total += self.cost.face_bytes(cross)
        return max(32, total)

    def _sweep(self, comm: Rcce, dim: int, phase: str) -> Generator:
        """One ADI line-solve: forward elimination then back-substitution."""
        part, cost, env = self.part, self.cost, comm.env
        rank = comm.rank
        p = part.p
        succ = part.partner(rank, dim, True)
        pred = part.partner(rank, dim, False)
        per_point = cost.phase_flops_per_point(phase)
        pending = []

        # Forward elimination: slabs 0 … p-1.
        for slab in range(p):
            c = part.cell_in_slab(rank, dim, slab)
            points = part.points_in_cell(rank, c)
            cross = points // part.cell_shape(rank, c)[dim]
            if slab > 0 and pred != rank:
                yield from comm.recv(cost.forward_bytes(cross), pred)
            yield from env.compute_flops(per_point * points * 0.75, cost.flops_per_cycle)
            if slab < p - 1 and succ != rank:
                pending.append(isend(comm, self._payload(cost.forward_bytes(cross)), succ))
        # Back substitution: slabs p-1 … 0.
        for slab in reversed(range(p)):
            c = part.cell_in_slab(rank, dim, slab)
            points = part.points_in_cell(rank, c)
            cross = points // part.cell_shape(rank, c)[dim]
            if slab < p - 1 and succ != rank:
                yield from comm.recv(cost.back_bytes(cross), succ)
            yield from env.compute_flops(per_point * points * 0.25, cost.flops_per_cycle)
            if slab > 0 and pred != rank:
                pending.append(isend(comm, self._payload(cost.back_bytes(cross)), pred))
        for request in pending:
            yield from request.wait()

    # -- results -----------------------------------------------------------------------

    def result(self) -> BTResult:
        if not self._elapsed:
            raise RuntimeError("run the benchmark before collecting results")
        elapsed_ns = max(self._elapsed.values())
        total_gflops = self.cost.total_flops(self.clazz.n, self.niter) / 1e9
        seconds = elapsed_ns / 1e9
        return BTResult(
            clazz=self.clazz.name,
            n=self.clazz.n,
            niter=self.niter,
            nranks=self.part.nranks,
            elapsed_s=seconds,
            total_gflops=total_gflops,
            gflops_per_s=total_gflops / seconds if seconds else 0.0,
        )


def run_bt(system, clazz: str = "S", nranks: int = 16, niter: int = 1):
    """BT in model mode on the first ``nranks`` ranks of ``system``.

    Returns ``(bench, run)``: the :class:`BTBenchmark` (for its
    :meth:`~BTBenchmark.result`) and the run's
    :class:`repro.results.RunResult`.
    """
    if nranks > system.num_ranks:
        raise ValueError(f"{nranks} ranks exceed the system size")
    bench = BTBenchmark(clazz=clazz, nranks=nranks, niter=niter, mode="model")
    return bench, system.run(bench.program, ranks=range(nranks))
