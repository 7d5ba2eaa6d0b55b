"""Shared fixtures for the vSCC reproduction test suite."""

from __future__ import annotations

import os

import pytest

from repro.rcce.session import RcceSession
from repro.scc.chip import SCCDevice
from repro.sim.engine import FUSE_ENV_VAR, Simulator
from repro.vscc.schemes import CommScheme
from repro.vscc.system import VSCCSystem


@pytest.fixture(autouse=True)
def repro_env_leak_check():
    """Fail any test that leaks a ``REPRO_*`` env var.

    Delay fusion (``REPRO_FUSE``) is read lazily per-simulator, so a
    leaked setting silently changes every later test's event stream.
    Tests must mutate it only through ``monkeypatch.setenv`` (which
    restores before this teardown runs); anything still different here
    is a leak. The
    offending vars are restored *before* failing so one bad test cannot
    cascade through the rest of the session.
    """
    before = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    yield
    after = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    if after != before:
        for key in after.keys() - before.keys():
            del os.environ[key]
        os.environ.update(before)
        pytest.fail(
            f"test leaked REPRO_* environment variables: "
            f"{before!r} -> {after!r} (now restored); "
            f"use monkeypatch.setenv instead of os.environ",
            pytrace=False,
        )


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def make_sim(monkeypatch):
    """``make_sim(fuse)``: a new :class:`Simulator` on the fused (True)
    or the unfused (False) event stream. ``REPRO_FUSE`` is the one
    fusion switch, so this sets it for the rest of the test."""

    def build(fuse: bool) -> Simulator:
        monkeypatch.setenv(FUSE_ENV_VAR, "1" if fuse else "0")
        return Simulator()

    return build


@pytest.fixture
def device(sim) -> SCCDevice:
    dev = SCCDevice(sim)
    dev.boot()
    return dev


@pytest.fixture
def session() -> RcceSession:
    return RcceSession()


@pytest.fixture
def vdma_system() -> VSCCSystem:
    return VSCCSystem(num_devices=2, scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA)


def run_programs(sim: Simulator, *gens, names=None):
    """Spawn generators, run to completion, return their results."""
    procs = [
        sim.spawn(gen, (names[i] if names else f"prog{i}"))
        for i, gen in enumerate(gens)
    ]
    sim.run()
    return [proc.result for proc in procs]
