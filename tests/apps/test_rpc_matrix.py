"""Bit-identity matrix of the RPC path (replay × fusion × fabric).

The fixed golden trace must fingerprint identically across

* replays in the same fuse mode (identical simulated end time, event
  count and metrics, bit for bit);
* ``REPRO_FUSE`` 1 × 0 (fusion legitimately changes event counts,
  never the simulated clock or the semantic outcome);
* a 2-host fabric with ``cross_host_affinity`` both ways (affinity
  moves the forwarding cost between hosts, never the outcome).
"""

from __future__ import annotations

import pytest

from repro.apps.rpc import run_rpc
from repro.bench.arrivals import golden_trace
from repro.sim.engine import FUSE_ENV_VAR
from repro.vscc.policy import ThresholdPolicy
from repro.vscc.system import VSCCSystem

FUSE_MODES = ("1", "0")

#: The one event-loop kernel. A one-value axis, kept so the matrix
#: cells keep their test ids.
KERNELS = ("serial",)

MATRIX = [(kernel, fuse) for kernel in KERNELS for fuse in FUSE_MODES]


def rpc_fingerprint(**system_kwargs):
    system_kwargs.setdefault("num_devices", 2)
    system_kwargs.setdefault("policy", ThresholdPolicy())
    system_kwargs.setdefault("seed", 7)
    system = VSCCSystem(**system_kwargs)
    report = run_rpc(system, golden_trace())
    assert report.completed == 200
    return {
        "now": system.sim.now,
        "events": system.sim.events_processed,
        "digest": report.digest,
        "metrics": system.metrics,
    }


@pytest.mark.parametrize("kernel,fuse", MATRIX)
def test_kernel_cells_match_serial_bit_for_bit(monkeypatch, kernel, fuse):
    """Within one fuse mode, a replay matches the first run exactly."""
    monkeypatch.setenv(FUSE_ENV_VAR, fuse)
    assert rpc_fingerprint() == rpc_fingerprint()


def test_fuse_modes_agree_on_time_and_outcome(monkeypatch):
    """Fusion changes event counts only — never clock or outcome."""
    cells = []
    for fuse in FUSE_MODES:
        monkeypatch.setenv(FUSE_ENV_VAR, fuse)
        cells.append(rpc_fingerprint())
    assert len({c["now"] for c in cells}) == 1
    assert len({c["digest"] for c in cells}) == 1


@pytest.mark.parametrize("kernel", KERNELS)
def test_two_host_fabric_affinity_both_ways(kernel):
    """cross_host_affinity=src|dst: identical outcome on a 2-host run."""
    prints = {}
    for affinity in ("src", "dst"):
        system = VSCCSystem(
            num_devices=4,
            num_hosts=2,
            policy=ThresholdPolicy(cross_host_affinity=affinity),
            seed=7,
        )
        report = run_rpc(system, golden_trace())
        assert report.completed == 200
        prints[affinity] = (system.sim.now, report.digest)
        # Cross-host submissions really happened: half the clients live
        # on the non-home host.
        assert report.dispatcher.descriptors > 0
    assert prints["src"][1] == prints["dst"][1]
    # Replays of each affinity are bit-identical to themselves.
    for affinity in ("src", "dst"):
        system = VSCCSystem(
            num_devices=4,
            num_hosts=2,
            policy=ThresholdPolicy(cross_host_affinity=affinity),
            seed=7,
        )
        report = run_rpc(system, golden_trace())
        assert (system.sim.now, report.digest) == prints[affinity]


def test_two_host_matches_single_host_outcome():
    """Moving half the ranks behind a second host never changes the
    semantic outcome (timing may differ — the inter-host tier is real)."""
    single = rpc_fingerprint()
    multi = VSCCSystem(
        num_devices=4, num_hosts=2, policy=ThresholdPolicy(), seed=7
    )
    report = run_rpc(multi, golden_trace())
    assert report.digest == single["digest"]
