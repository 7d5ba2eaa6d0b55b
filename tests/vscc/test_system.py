"""Unit tests for the VSCCSystem façade."""

import gc
import weakref

import numpy as np

from repro.apps.traffic import traffic_matrix
from repro.vscc.schemes import CommScheme
from repro.vscc.system import VSCCSystem


def test_full_system_has_240_ranks():
    system = VSCCSystem(num_devices=5)
    assert system.num_ranks == 240


def test_failures_shrink_rank_space():
    system = VSCCSystem(num_devices=5, failure_prob=0.05, seed=3)
    assert system.num_ranks < 240
    # "we have extended the startup script of RCCE thereby that it
    # creates a new configuration file with all available cores" (§4)
    assert system.config.total_cores == system.num_ranks
    # the config file round-trips through its text form
    from repro.rcce.config import SccConfigFile

    assert SccConfigFile.from_text(system.config.to_text()) == system.config


def test_seed_reproducible():
    a = VSCCSystem(num_devices=2, failure_prob=0.1, seed=42)
    b = VSCCSystem(num_devices=2, failure_prob=0.1, seed=42)
    assert a.config == b.config


def test_extensions_follow_scheme():
    assert VSCCSystem(num_devices=2, scheme=CommScheme.TRANSPARENT).host.extensions_enabled is False
    assert VSCCSystem(num_devices=2, scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA).host.extensions_enabled is True


def test_regions_registered_for_every_core():
    system = VSCCSystem(num_devices=2)
    from repro.host.regions import RegionKind
    from repro.scc.mpb import MpbAddr

    assert system.host.regions.classify(MpbAddr(1, 47, 0), 32) is RegionKind.BUFFER
    assert system.host.regions.classify(MpbAddr(0, 0, 7681)) is RegionKind.FLAG


def test_launch_subset_and_results():
    system = VSCCSystem(num_devices=2)

    def program(comm):
        yield from comm.env.compute(cycles=1)
        return comm.rank

    assert system.run(program, ranks=[0, 90]).results == {0: 0, 90: 90}


def test_traffic_matrix_shape():
    system = VSCCSystem(num_devices=2)
    matrix = traffic_matrix(system.layout)
    assert matrix.shape == (96, 96)
    assert matrix.sum() == 0


def _allocated(system):
    """(device, core) pairs holding an LMB half / a core context."""
    halves, cores = set(), set()
    for d in system.devices:
        halves |= {(d.device_id, c) for c, h in enumerate(d.mpb._halves) if h is not None}
        cores |= {(d.device_id, c) for c, e in enumerate(d._cores) if e is not None}
    return halves, cores


def test_fresh_system_holds_no_per_core_state():
    system = VSCCSystem(num_devices=5)
    assert _allocated(system) == (set(), set())


def test_pingpong_allocates_only_the_cores_it_wrote(monkeypatch):
    from repro.apps.pingpong import run_pingpong
    from repro.scc.mpb import MPBMemory

    written = set()
    write, write_byte = MPBMemory.write, MPBMemory.write_byte

    def recording_write(self, addr, data):
        written.add((addr.device, addr.core))
        write(self, addr, data)

    def recording_write_byte(self, addr, value):
        written.add((addr.device, addr.core))
        write_byte(self, addr, value)

    monkeypatch.setattr(MPBMemory, "write", recording_write)
    monkeypatch.setattr(MPBMemory, "write_byte", recording_write_byte)
    system = VSCCSystem(num_devices=2)
    run_pingpong(system, 0, 48, sizes=[61, 16384], iterations=2)
    halves, cores = _allocated(system)
    assert written == {(0, 0), (1, 0)}
    assert halves == written
    assert cores == {(0, 0), (1, 0)}


def test_dropped_vdma_system_frees_its_selector_by_refcount():
    """The vDMA transport asks the rank's own selector for host affinity
    instead of holding it, so a dropped system's selector needs no
    cyclic collection (the devices and host still do)."""
    gc.collect()
    gc.disable()
    try:
        system = VSCCSystem(
            num_devices=2, scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA
        )

        def program(comm):
            if comm.rank == 0:
                yield from comm.send(np.zeros(16384, np.uint8), 48)
            else:
                yield from comm.recv(16384, 0)

        system.run(program, ranks=[0, 48])
        assert system.metrics["policy.decisions{scheme=vdma}"] == 1.0
        ref = weakref.ref(system.selector)
        del system
        assert ref() is None
    finally:
        gc.enable()
