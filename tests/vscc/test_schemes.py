"""Unit tests for scheme metadata and selector wiring."""

import pytest

import repro.sim
from repro.host.driver import Host
from repro.rcce.session import RcceSession
from repro.scc.memctrl import MemoryControllers
from repro.vscc import schemes
from repro.vscc.schemes import CommScheme
from repro.vscc.system import VSCCSystem
from repro.vscc.topology import FabricTopology


def test_extension_requirements():
    assert not CommScheme.TRANSPARENT.needs_extensions
    assert not CommScheme.HW_ACCEL_REMOTE_PUT.needs_extensions
    assert CommScheme.LOCAL_PUT_LOCAL_GET_VDMA.needs_extensions
    assert CommScheme.REMOTE_PUT_WCB.needs_extensions
    assert CommScheme.LOCAL_PUT_REMOTE_GET.needs_extensions


def test_stability():
    """§2.3: fast write acks are unstable beyond two devices."""
    assert not CommScheme.HW_ACCEL_REMOTE_PUT.stable_beyond_two_devices
    for scheme in CommScheme:
        if scheme is not CommScheme.HW_ACCEL_REMOTE_PUT:
            assert scheme.stable_beyond_two_devices


def test_hw_accel_refused_on_five_devices():
    with pytest.raises(ValueError, match="unstable"):
        VSCCSystem(num_devices=5, scheme=CommScheme.HW_ACCEL_REMOTE_PUT)
    VSCCSystem(
        num_devices=5, scheme=CommScheme.HW_ACCEL_REMOTE_PUT, allow_unstable=True
    )


def test_thresholds_in_paper_range():
    """§3.3: 'about 32 B to 128 B dependent on the communication scheme'."""
    for scheme in CommScheme:
        if scheme.needs_extensions:
            assert 32 <= scheme.direct_threshold <= 128
        else:
            assert scheme.direct_threshold == 0


@pytest.mark.parametrize(
    "owner, name",
    [
        (schemes, "DIRECT_THRESHOLD"),
        (VSCCSystem, "launch"),
        (RcceSession, "launch"),
        (FabricTopology, "xyz"),
        (Host, "pcie_bytes"),
        (MemoryControllers, "bytes_served"),
        (repro.sim, "Kernel"),
    ],
    ids=lambda v: v if isinstance(v, str) else v.__name__.rpartition(".")[2],
)
def test_removed_names_raise_attribute_error(owner, name):
    """The repro 1.2 removals: deprecated shims and the kernel contract."""
    with pytest.raises(AttributeError):
        getattr(owner, name)


def test_selector_picks_by_locality_and_size():
    system = VSCCSystem(num_devices=2, scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA)
    comm = system.comm_for(0)
    assert system.selector.select(comm, 1, 4096).name == "rcce-default"
    assert system.selector.select(comm, 48, 64).name == "direct-small"
    assert system.selector.select(comm, 48, 4096).name == "local-put-local-get-vdma"


def test_transparent_has_no_direct_path():
    system = VSCCSystem(num_devices=2, scheme=CommScheme.TRANSPARENT)
    comm = system.comm_for(0)
    assert system.selector.select(comm, 48, 8).name == "rcce-default"
