"""Environment-matrix regression: service path vs direct ``run()``.

For every ``REPRO_FUSE`` mode the repo supports, a job whose spec
leaves ``fuse`` unset must defer to the environment exactly like a
hand-built system — and produce the
bit-identical ``sim_now_ns`` through the whole service stack
(scheduler, pool, retries-not-taken and all) as a direct
``VSCCSystem.run()`` in the same environment.

This is the guardrail for the service's determinism contract *and* for
the env-deferral plumbing (``VSCCSystem(fuse_delays=None)``): a
regression in either shows up as a fingerprint
mismatch on some matrix cell.
"""

from __future__ import annotations

import pytest

from repro.serve import JobSpec, SimService
from repro.serve.job import _WORKLOADS
from repro.sim.engine import FUSE_ENV_VAR
from repro.vscc.schemes import CommScheme
from repro.vscc.system import VSCCSystem

from .conftest import run_async

FUSE_MODES = ("0", "1")

#: The one event-loop kernel. A one-value axis, kept so the matrix cells
#: keep their test ids.
KERNELS = ("serial",)

MATRIX = [(kernel, fuse) for kernel in KERNELS for fuse in FUSE_MODES]

WORKLOAD = "pingpong"
PARAMS = {"sizes": (256, 4096), "iterations": 1}
NUM_DEVICES = 2
SCHEME = "vdma"
SEED = 42


def direct_fingerprint():
    """The reference: a hand-built system run outside the service."""
    system = VSCCSystem(
        num_devices=NUM_DEVICES, scheme=CommScheme(SCHEME), seed=SEED
    )
    _WORKLOADS[WORKLOAD](system, dict(PARAMS))
    return system.sim.now, system.sim.events_processed


def service_fingerprint():
    async def scenario():
        async with SimService(workers=2, pool="inline") as service:
            handle = await service.submit(
                JobSpec(
                    workload=WORKLOAD,
                    params=PARAMS,
                    tenant="matrix",
                    num_devices=NUM_DEVICES,
                    scheme=SCHEME,
                    seed=SEED,
                )
            )
            result = await handle.result(timeout=60)
            assert result.ok, result.error
            return result.sim_now_ns, result.events

    return run_async(scenario())


@pytest.mark.parametrize("kernel,fuse", MATRIX)
def test_service_matches_direct_run(monkeypatch, kernel, fuse):
    monkeypatch.setenv(FUSE_ENV_VAR, fuse)
    direct_now, direct_events = direct_fingerprint()
    served_now, served_events = service_fingerprint()
    assert served_now == direct_now
    assert served_events == direct_events


def test_matrix_cells_agree_on_simulated_time(monkeypatch):
    """Both fuse modes produce one identical simulated end time.

    (Event counts legitimately differ with fusion; the simulated clock
    must not.)
    """
    times = set()
    for fuse in FUSE_MODES:
        monkeypatch.setenv(FUSE_ENV_VAR, fuse)
        now, _ = service_fingerprint()
        times.add(now)
    assert len(times) == 1


def test_spec_overrides_beat_environment(monkeypatch):
    """A spec pinning fuse wins over a conflicting environment."""
    monkeypatch.setenv(FUSE_ENV_VAR, "1")

    async def scenario():
        async with SimService(workers=1, pool="inline") as service:
            pinned = await service.submit(
                JobSpec(
                    workload=WORKLOAD,
                    params=PARAMS,
                    tenant="pin",
                    num_devices=NUM_DEVICES,
                    scheme=SCHEME,
                    seed=SEED,
                    fuse=False,
                )
            )
            result = await pinned.result(timeout=60)
            assert result.ok
            return result.sim_now_ns

    pinned_now = run_async(scenario())
    # same simulated time as the fused run — the override changes the
    # event stream, never the physics
    direct_now, _ = direct_fingerprint()
    assert pinned_now == direct_now
