"""Unit tests for the default transport protocol details."""

import numpy as np
import pytest

from repro.rcce.api import RcceOptions
from repro.rcce.session import RcceSession
from repro.rcce.transport import DefaultGetTransport, OnChipSelector
from repro.scc.mpb import MpbAddr


def test_selector_picks_default_below_threshold():
    session = RcceSession(options=RcceOptions(pipelined=True))
    comm = session.comm_for(0)
    small = comm.selector.select(comm, 1, 1024)
    large = comm.selector.select(comm, 1, 65536)
    assert small.name == "rcce-default"
    assert large.name == "ircce-pipelined"


def test_selector_without_pipelining_always_default():
    session = RcceSession()
    comm = session.comm_for(0)
    assert comm.selector.select(comm, 1, 10 ** 6).name == "rcce-default"


def test_onchip_selector_rejects_cross_device():
    from repro.rcce.config import RankLayout, SccConfigFile

    config = SccConfigFile((tuple(range(2)), tuple(range(2))))
    layout = RankLayout.from_config(config)
    session = RcceSession()
    comm = session.comm_for(0)
    comm.layout = layout
    with pytest.raises(RuntimeError, match="VSCCSystem"):
        comm.selector.select(comm, 2, 100)


def test_invalid_cache_control():
    with pytest.raises(ValueError):
        DefaultGetTransport(cache_control="bogus")


def test_sender_stages_in_own_buffer(session):
    """Local-put discipline: the sender only writes its own MPB."""
    def program(comm):
        if comm.rank == 0:
            yield from comm.send(b"\xab" * 64, 1)
        else:
            yield from comm.recv(64, 0)

    session.run(program, ranks=[0, 1])
    dev = session.device
    half = dev.params.lmb_bytes_per_core

    def lmb(core):
        return bytes(dev.mpb.read(MpbAddr(0, core, 0), half))

    assert b"\xab" * 64 in lmb(0)
    # receiver's MPB holds only flags, never payload bytes
    assert b"\xab" not in lmb(1)
