"""Unit tests for the gory one-sided layer."""

import pytest

from repro.rcce.api import RcceOptions
from repro.rcce.session import RcceSession
from repro.vscc.schemes import CommScheme


@pytest.fixture
def gory_session():
    return RcceSession(options=RcceOptions(user_mpb_bytes=2048))


def test_put_get_with_flag_sync(gory_session):
    got = {}

    def program(comm):
        flag = comm.gory.flag_alloc()
        buf = comm.malloc(128)
        if comm.rank == 0:
            yield from comm.gory.put(b"gory payload", 7, buf)
            yield from comm.gory.flag_write(7, flag, 1)
        elif comm.rank == 7:
            yield from comm.gory.wait_until(flag, 1)
            data = yield from comm.gory.get(7, buf, 12)
            got["data"] = bytes(data)

    gory_session.run(program, ranks=[0, 7])
    assert got["data"] == b"gory payload"


def test_flag_read(gory_session):
    got = {}

    def program(comm):
        flag = comm.gory.flag_alloc()
        if comm.rank == 0:
            yield from comm.gory.flag_write(1, flag, 9)
            # allow delivery
            yield from comm.env.compute(cycles=200)
            got["value"] = yield from comm.gory.flag_read(1, flag)

    gory_session.run(program, ranks=[0])
    assert got["value"] == 9


def test_put_outside_user_area_rejected(gory_session):
    def program(comm):
        yield from comm.gory.put(b"x" * 64, 1, 2048 - 16)

    with pytest.raises(Exception):
        gory_session.run(program, ranks=[0])


def test_flag_free_allows_reuse(gory_session):
    def program(comm):
        a = comm.gory.flag_alloc()
        comm.gory.flag_free(a)
        b = comm.gory.flag_alloc()
        assert a == b
        return
        yield

    gory_session.run(program, ranks=[0])


@pytest.mark.parametrize("scheme", list(CommScheme), ids=lambda s: s.value)
def test_cross_device_puts_land_without_an_explicit_announce(scheme):
    """Two puts in a row to another device, each at its own offset: under
    the vSCC extensions gory opens the host write-combining stream itself,
    one per put."""
    from repro.vscc.system import VSCCSystem

    system = VSCCSystem(
        num_devices=2, scheme=scheme, options=RcceOptions(user_mpb_bytes=1024)
    )
    first, second = bytes(range(200)), bytes(range(55, 255))
    got = {}

    def program(comm):
        flag, buf = comm.gory.flag_alloc(), comm.malloc(512)
        if comm.rank == 0:
            yield from comm.gory.put(first, 48, buf)
            yield from comm.gory.put(second, 48, buf + 256)
            yield from comm.gory.flag_write(48, flag, 1)
        else:
            yield from comm.gory.wait_until(flag, 1)
            got["first"] = bytes((yield from comm.gory.get(48, buf, 200)))
            got["second"] = bytes((yield from comm.gory.get(48, buf + 256, 200)))

    system.run(program, ranks=[0, 48])
    assert got == {"first": first, "second": second}
