"""Cost model of NPB BT (computation and message volumes).

Fig 7 needs BT class C on up to 225 cores; full numerics at 162³ are
out of reach for a simulated P54C, so the ``model`` mode drives the
*exact* communication structure with per-phase compute charged from
NPB's published operation counts (DESIGN.md §2). The shapes that matter
— message sizes, phase structure, flop/byte ratios — come from here.

Anchors:

* NPB reports ≈ 168.3 Gop for BT class A (64³, 200 steps), i.e.
  ≈ 3 210 flop per grid point per timestep.
* The paper quotes 533 MFLOP/s peak per core and 120 GFLOP/s for 225
  cores; sustained P54C throughput on BT-like code is a small fraction
  of peak (``flops_per_cycle`` default 0.15 ≈ 80 MFLOP/s).
* Fig 8: maximum pair traffic ≈ 186 MB for class C, 64 ranks, 200
  steps — the byte formulas below land within ~15 % of that.

Unpinned: ``step_flops``/``total_flops`` — reached only through
``BTBenchmark.result`` (class C pins, examples).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["BTClass", "BT_CLASSES", "BTCostModel"]


@dataclass(frozen=True)
class BTClass:
    """An NPB problem class."""

    name: str
    n: int
    niter: int
    dt: float


#: The standard NPB BT problem classes.
BT_CLASSES: dict[str, BTClass] = {
    "S": BTClass("S", 12, 60, 0.010),
    "W": BTClass("W", 24, 200, 0.0008),
    "A": BTClass("A", 64, 200, 0.0008),
    "B": BTClass("B", 102, 200, 0.0003),
    "C": BTClass("C", 162, 200, 0.0001),
}


@dataclass(frozen=True)
class BTCostModel:
    """Flop and byte counts per phase."""

    #: total flop per grid point per timestep (NPB BT class A ratio).
    flops_per_point_step: float = 3210.0
    #: sustained flop per core cycle on the P54C (no SIMD, in-order).
    flops_per_cycle: float = 0.15
    #: doubles per point exchanged in copy_faces (5 solution components,
    #: one ghost layer each way).
    face_doubles: float = 5.0
    #: doubles per face point sent forward in a solve stage (5×5 block
    #: row of the LHS plus the 5-vector RHS).
    solve_forward_doubles: float = 30.0
    #: doubles per face point sent in back-substitution (two planes of
    #: the 5-vector solution).
    solve_back_doubles: float = 10.0

    #: Fraction of per-step flops per phase (rhs / three solves / add).
    PHASE_SPLIT = {
        "rhs": 0.26,
        "xsolve": 0.22,
        "ysolve": 0.22,
        "zsolve": 0.25,
        "add": 0.05,
    }

    def step_flops(self, n: int) -> float:
        """Total flop of one timestep over the whole grid."""
        return self.flops_per_point_step * float(n) ** 3

    def phase_flops_per_point(self, phase: str) -> float:
        return self.flops_per_point_step * self.PHASE_SPLIT[phase]

    def face_bytes(self, cross_points: int) -> int:
        return int(self.face_doubles * cross_points * 8)

    def forward_bytes(self, cross_points: int) -> int:
        return int(self.solve_forward_doubles * cross_points * 8)

    def back_bytes(self, cross_points: int) -> int:
        return int(self.solve_back_doubles * cross_points * 8)

    def total_flops(self, n: int, niter: int) -> float:
        return self.step_flops(n) * niter
