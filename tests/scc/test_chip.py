"""Unit tests for SCCDevice boot and addressing."""

import gc
import weakref

import numpy as np
import pytest

from repro.scc.chip import SCCDevice
from repro.sim.engine import Simulator


def test_boot_all_cores():
    dev = SCCDevice(Simulator())
    with pytest.raises(RuntimeError, match="not been booted"):
        dev.available_cores
    available = dev.boot()
    assert available == list(range(48))
    assert dev.available_cores == available


def test_unbooted_access_raises():
    dev = SCCDevice(Simulator())
    with pytest.raises(RuntimeError):
        dev.available_cores


def test_forced_core_failures():
    dev = SCCDevice(Simulator())
    available = dev.boot(failed_cores=[0, 13, 47])
    assert 13 not in available
    assert len(available) == 45


def test_random_failures_reproducible():
    rng_a = np.random.default_rng(7)
    rng_b = np.random.default_rng(7)
    dev_a = SCCDevice(Simulator())
    dev_b = SCCDevice(Simulator())
    assert dev_a.boot(failure_prob=0.2, rng=rng_a) == dev_b.boot(
        failure_prob=0.2, rng=rng_b
    )


def test_at_least_one_core_survives():
    dev = SCCDevice(Simulator())
    available = dev.boot(failed_cores=list(range(48)))
    assert len(available) == 1


def test_failure_prob_validation():
    dev = SCCDevice(Simulator())
    with pytest.raises(ValueError):
        dev.boot(failure_prob=1.5)


def test_core_xyz():
    dev = SCCDevice(Simulator(), device_id=3)
    assert (*dev.params.core_xy(0), dev.device_id) == (0, 0, 3)
    assert (*dev.params.core_xy(47), dev.device_id) == (5, 3, 3)


def test_core_contexts_built_on_first_use():
    dev = SCCDevice(Simulator())
    assert all(env is None for env in dev._cores)
    env = dev.core(17)
    assert env.core_id == 17 and env.device is dev
    assert dev.core(17) is env
    assert [c for c, e in enumerate(dev._cores) if e is not None] == [17]


@pytest.mark.parametrize("core_id", [-1, 48])
def test_core_rejects_invalid_id(core_id):
    dev = SCCDevice(Simulator())
    with pytest.raises(ValueError, match="out of range"):
        dev.core(core_id)
    assert all(env is None for env in dev._cores)


def test_booted_device_frees_by_refcount():
    """The SIF and memory controllers hold no reference back to their
    device, so a dropped device needs no cyclic collection."""
    gc.collect()
    gc.disable()
    try:
        dev = SCCDevice(Simulator(), device_id=1)
        dev.boot()
        ref = weakref.ref(dev)
        del dev
        assert ref() is None
    finally:
        gc.enable()
