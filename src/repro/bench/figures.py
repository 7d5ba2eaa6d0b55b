"""Data generators for every table and figure of the paper's evaluation.

Each ``figN_*`` function builds the systems, runs the workload and
returns the series the paper plots. The scenarios of
:mod:`repro.scenarios` pin the numbers the paper's claims read from
them (``FINGERPRINTS.json``, checked by ``CLAIMS``), the examples print
them, and EXPERIMENTS.md archives the comparison against the paper's
values.

Unpinned: ``fig7_bt_scaling`` — reached only by the class C pin
``fig7_bt_class_c``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.apps.npb import run_bt
from repro.apps.pingpong import PingPongPoint, run_pingpong
from repro.apps.traffic import TrafficStats, render_traffic, traffic_matrix, traffic_stats
from repro.host.pcie import PCIeParams
from repro.rcce.api import RcceOptions
from repro.rcce.session import RcceSession
from repro.scc.params import SCCParams
from repro.vscc.schemes import CommScheme
from repro.vscc.system import VSCCSystem

__all__ = [
    "ONCHIP_PAIR",
    "fig2_protocol_timeline",
    "fig6a_onchip",
    "fig6b_interdevice",
    "fig7_bt_scaling",
    "fig8_bt_traffic",
    "latency_anchors",
    "SCHEME_LABELS",
]

#: Default on-chip measurement pair: tile (0,0) core 0 and tile (5,0)
#: core 10 — five mesh hops, a representative on-die distance.
ONCHIP_PAIR = (0, 10)

#: Figure-legend names per scheme.
SCHEME_LABELS = {
    CommScheme.TRANSPARENT: "transparent routing [13] (lower bound)",
    CommScheme.REMOTE_PUT_WCB: "remote put / host WCB (Fig 4c)",
    CommScheme.LOCAL_PUT_REMOTE_GET: "local put / remote get, cached (Fig 4b)",
    CommScheme.LOCAL_PUT_LOCAL_GET_VDMA: "local put / local get, vDMA (Fig 4a)",
    CommScheme.HW_ACCEL_REMOTE_PUT: "remote put, FPGA write-ack (upper bound)",
}

#: Cross-device measurement pair: first core of device 0 and of device 1.
XDEV_PAIR = (0, 48)

#: Time steps of the paper's BT runs (Fig 7, Fig 8).
FULL_RUN_STEPS = 200


# -- Fig 2: blocking vs pipelined protocol timing --------------------------------


@dataclass(frozen=True)
class ProtocolTiming:
    """One message size under both blocking protocols: the one-way
    completion time, and the protocol trace records of the first
    message (Fig 2's Gantt, drawn by
    :func:`repro.bench.runner.render_timeline`)."""

    size: int
    blocking_ns: float
    pipelined_ns: float
    blocking_records: tuple
    pipelined_records: tuple


def _first_message(records) -> tuple:
    """The ping-pong's first message, ``ONCHIP_PAIR[0]`` to
    ``ONCHIP_PAIR[1]``: each end's records up to the first transfer of
    its next message."""
    starts = {(ONCHIP_PAIR[0], "send"): 0, (ONCHIP_PAIR[1], "recv"): 0}
    out = []
    for record in records:
        rank, role, phase, index = record.payload
        end = (rank, role)
        if end in starts:
            if index == 0 and phase.endswith("_start"):
                starts[end] += 1
            if starts[end] == 1:
                out.append(record)
    return tuple(out)


def fig2_protocol_timeline(sizes: Sequence[int] = (8192, 16384, 65536)) -> list[ProtocolTiming]:
    """Fig 2's statement as numbers: the pipelined protocol completes
    a (large) blocking transfer earlier than the default protocol. One
    traced ping-pong per size and protocol gives both the time and the
    records."""
    out = []
    for size in sizes:
        times, records = {}, {}
        for pipelined in (False, True):
            session = RcceSession(options=RcceOptions(pipelined=pipelined))
            session.tracer.enable("protocol")
            [point] = run_pingpong(
                session, *ONCHIP_PAIR, sizes=[size], iterations=4, warmup=1
            )
            times[pipelined] = point.oneway_ns
            records[pipelined] = _first_message(session.tracer.select("protocol"))
        out.append(
            ProtocolTiming(size, times[False], times[True], records[False], records[True])
        )
    return out


# -- Fig 6a: on-chip ping-pong ---------------------------------------------------------


def fig6a_onchip(
    sizes: Sequence[int],
    iterations: int = 4,
    params: Optional[SCCParams] = None,
) -> dict[str, list[PingPongPoint]]:
    """On-chip curves: RCCE default vs iRCCE pipelined (4 kB threshold)."""
    series = {}
    for label, pipelined in (("RCCE (no pipelining)", False), ("iRCCE pipelined", True)):
        session = RcceSession(params=params, options=RcceOptions(pipelined=pipelined))
        series[label] = run_pingpong(
            session, *ONCHIP_PAIR, sizes=sizes, iterations=iterations
        )
    return series


# -- Fig 6b: inter-device ping-pong ------------------------------------------------------


def fig6b_interdevice(
    sizes: Sequence[int],
    iterations: int = 3,
    schemes: Sequence[CommScheme] = tuple(CommScheme),
    num_devices: int = 2,
    pcie_params: Optional[PCIeParams] = None,
) -> dict[CommScheme, list[PingPongPoint]]:
    """Inter-device curves for every scheme, lower and upper bound included."""
    series = {}
    for scheme in schemes:
        system = VSCCSystem(
            num_devices=num_devices, scheme=scheme, pcie_params=pcie_params
        )
        series[scheme] = run_pingpong(
            system, *XDEV_PAIR, sizes=sizes, iterations=iterations
        )
    return series


# -- Fig 7: NPB BT scaling ------------------------------------------------------------------


@dataclass(frozen=True)
class BTScalingPoint:
    nranks: int
    scheme: CommScheme
    gflops: float
    elapsed_s_per_step: float


def fig7_bt_scaling(
    rank_counts: Sequence[int] = (16, 64, 144, 225),
    schemes: Sequence[CommScheme] = (
        CommScheme.LOCAL_PUT_LOCAL_GET_VDMA,
        CommScheme.LOCAL_PUT_REMOTE_GET,
    ),
    clazz: str = "C",
    niter: int = 1,
    num_devices: int = 5,
) -> list[BTScalingPoint]:
    """BT class C performance over core counts, best vs worst scheme.

    The paper runs 200 timesteps; BT's time per step is constant, so the
    sweep runs ``niter`` steps and reports per-step GFLOP/s (identical
    up to start-up effects the paper also amortizes).
    """
    points = []
    for scheme in schemes:
        for nranks in rank_counts:
            system = VSCCSystem(num_devices=num_devices, scheme=scheme)
            bench, _run = run_bt(system, clazz, nranks, niter)
            result = bench.result()
            points.append(
                BTScalingPoint(nranks, scheme, result.gflops_per_s,
                               result.elapsed_s / niter)
            )
    return points


# -- Fig 8: BT traffic matrix ------------------------------------------------------------------


def fig8_bt_traffic(
    nranks: int = 64,
    clazz: str = "C",
    niter: int = 1,
    num_devices: int = 2,
    scheme: CommScheme = CommScheme.LOCAL_PUT_LOCAL_GET_VDMA,
) -> tuple[np.ndarray, TrafficStats, str, TrafficStats]:
    """Traffic matrix of BT; returns (per-run matrix, stats, rendering,
    stats scaled to the paper's :data:`FULL_RUN_STEPS`-step run)."""
    system = VSCCSystem(num_devices=num_devices, scheme=scheme)
    run_bt(system, clazz, nranks, niter)
    matrix = traffic_matrix(system.layout)
    stats = traffic_stats(matrix, system.layout)
    scaled = traffic_stats(matrix * FULL_RUN_STEPS / niter, system.layout)
    rendering = render_traffic(matrix, system.layout, width=64)
    return matrix, stats, rendering, scaled


# -- latency anchors (§3 text) --------------------------------------------------------------------


def latency_anchors(pcie_params: Optional[PCIeParams] = None) -> dict[str, float]:
    """On-chip vs inter-device access latency, in core cycles."""
    from repro.scc.mpb import MpbAddr
    from repro.sim.engine import Simulator
    from repro.scc.chip import SCCDevice
    from repro.host.driver import Host

    sim = Simulator()
    devices = [SCCDevice(sim, device_id=i) for i in range(2)]
    for device in devices:
        device.boot()
    host = Host(sim, devices, pcie_params=pcie_params, extensions_enabled=False)
    params = devices[0].params

    timings = {}

    def onchip() -> object:
        env = devices[0].core(0)
        t0 = sim.now
        yield from env.mpb_read(MpbAddr(0, 47, 0), 32)
        timings["onchip_ns"] = sim.now - t0

    def interdevice() -> object:
        env = devices[0].core(0)
        t0 = sim.now
        yield from env.mpb_read(MpbAddr(1, 0, 0), 32)
        timings["interdevice_ns"] = sim.now - t0

    sim.spawn(onchip(), "onchip")
    sim.run()
    sim.spawn(interdevice(), "interdevice")
    sim.run()
    clock = params.core_clock
    onchip_cycles = clock.to_cycles(timings["onchip_ns"])
    inter_cycles = clock.to_cycles(timings["interdevice_ns"])
    return {
        "onchip_cycles": onchip_cycles,
        "interdevice_cycles": inter_cycles,
        "ratio": inter_cycles / onchip_cycles,
    }
