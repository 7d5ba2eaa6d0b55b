"""End-to-end observability tests on a running vSCC system."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.vscc import CommScheme, RunResult, VSCCSystem

NBYTES = 16384


def _transfer(comm):
    if comm.rank == 0:
        yield from comm.send(np.arange(NBYTES, dtype=np.uint8) % 251, dest=48)
    elif comm.rank == 48:
        data = yield from comm.recv(NBYTES, src=0)
        return bytes(data)


def _run(scheme, **kwargs):
    system = VSCCSystem(num_devices=2, scheme=scheme, **kwargs)
    result = system.run(_transfer, ranks=[0, 48])
    assert result[48] == bytes(np.arange(NBYTES, dtype=np.uint8) % 251)
    return system, result


def test_run_returns_runresult_with_core_metrics():
    system, result = _run(CommScheme.LOCAL_PUT_LOCAL_GET_VDMA)
    assert isinstance(result, RunResult)
    assert result.elapsed_ns > 0
    assert result.core_cycles == pytest.approx(
        system.params.core_clock.to_cycles(result.elapsed_ns)
    )
    metrics = result.metrics
    # The acceptance floor: PCIe bytes, softcache hit/miss, vDMA
    # transfers and mesh link busy time are all present.
    assert metrics["pcie.bytes{device=0,dir=up}"] >= NBYTES
    assert metrics["pcie.bytes{device=1,dir=down}"] >= NBYTES
    assert "softcache.hits" in metrics and "softcache.misses" in metrics
    assert metrics["vdma.transfers{device=0}"] >= 1
    assert "mesh.link_busy_ns{device=0}" in metrics
    assert metrics["scheme.selected{transport=local-put-local-get-vdma}"] == 2.0


def test_softcache_hits_match_prefetch_ablation():
    """Mirrors the ``abl_prefetch`` scenario of ``repro.scenarios`` at the metrics level."""
    _, announced = _run(CommScheme.LOCAL_PUT_REMOTE_GET, announce_prefetch=True)
    _, ablated = _run(CommScheme.LOCAL_PUT_REMOTE_GET, announce_prefetch=False)
    # Announced prefetches: every receiver read hits, nothing demand-fills.
    assert announced.metrics["softcache.hits"] > 0
    assert announced.metrics["softcache.misses"] == 0
    assert announced.metrics["softcache.announces"] > 0
    assert announced.metrics["softcache.demand_fills"] == 0
    # Ablated: every read misses and demand-fills instead.
    assert ablated.metrics["softcache.misses"] > 0
    assert ablated.metrics["softcache.announces"] == 0
    assert ablated.metrics["softcache.demand_fills"] == ablated.metrics[
        "softcache.misses"
    ]


def test_mesh_busy_time_accounted_for_onchip_traffic():
    system = VSCCSystem(num_devices=1, scheme=CommScheme.TRANSPARENT)

    # Ranks 0 and 5 sit on different tiles, so the transfer crosses
    # mesh links (cores come two per tile).
    def onchip(comm):
        if comm.rank == 0:
            yield from comm.send(np.zeros(4096, np.uint8), dest=5)
        elif comm.rank == 5:
            yield from comm.recv(4096, src=0)

    result = system.run(onchip, ranks=[0, 5])
    assert result.metrics["mesh.link_busy_ns{device=0}"] > 0


def test_registry_instruments_populate_when_enabled():
    system = VSCCSystem(num_devices=2, scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA)
    system.obs.enabled = True
    result = system.run(_transfer, ranks=[0, 48])
    # The memory-controller FIFO wait histogram only records while the
    # registry is enabled; the vDMA depth gauge must have drained to 0.
    assert result.metrics["memctrl.fifo_wait_ns.count{device=0}"] >= 0
    assert result.metrics["vdma.queue_depth{device=0}"] == 0.0


def test_disabled_registry_collects_nothing():
    system, result = _run(CommScheme.LOCAL_PUT_LOCAL_GET_VDMA)
    assert not system.obs.enabled
    assert "vdma.queue_depth{device=0}" not in result.metrics or (
        result.metrics["vdma.queue_depth{device=0}"] == 0.0
    )
    hist = system.obs.histogram("memctrl.fifo_wait_ns", device=0)
    assert hist.count == 0


def test_run_writes_perfetto_loadable_trace(tmp_path):
    system = VSCCSystem(num_devices=2, scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA)
    result = system.run(_transfer, ranks=[0, 48], trace_json=tmp_path / "t.json")
    assert result.trace_path is not None and result.trace_path.exists()
    doc = json.loads(result.trace_path.read_text())
    events = doc["traceEvents"]
    assert events, "a vDMA transfer must produce trace events"
    for event in events:
        assert {"ph", "ts", "pid", "tid", "name"} <= set(event)
    assert any(e["name"] == "vdma.copy" for e in events)
    # Tracing was enabled only for the duration of the run.
    assert not system.tracer.enabled


def test_observability_belongs_to_the_simulator():
    system = VSCCSystem(num_devices=2)
    assert system.tracer is system.sim.tracer
    assert system.obs is system.sim.obs


def test_trace_json_holds_only_its_own_run(tmp_path):
    system = VSCCSystem(num_devices=2, scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA)
    first = system.run(_transfer, ranks=[0, 48], trace_json=tmp_path / "1.json")
    first_text = first.trace_path.read_text()
    start_us = system.sim.now / 1000.0
    second = system.run(_transfer, ranks=[0, 48], trace_json=tmp_path / "2.json")
    assert first.trace_path.read_text() == first_text
    body = [
        e for e in json.loads(second.trace_path.read_text())["traceEvents"]
        if e["ph"] != "M"
    ]
    assert body, "the second run must produce trace events"
    assert all(e["ts"] >= start_us for e in body)
    assert len(body) == len(
        [e for e in json.loads(first_text)["traceEvents"] if e["ph"] != "M"]
    )
