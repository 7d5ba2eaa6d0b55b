"""Payload ownership: a send copies a payload only if it can still change.

Mutable payloads (writable arrays, bytearrays, read-only views of
writable memory) are snapshotted when the send starts, so the caller
may reuse its buffer at once; immutable ones (``bytes``, read-only
uint8 arrays whose memory a ``bytes`` owns) are shared as they are.
"""

import numpy as np
import pytest

from repro.apps.npb import bt as bt_module
from repro.apps.npb import BTBenchmark
from repro.ircce.nonblocking import isend
from repro.rcce.api import Rcce
from repro.rcce.session import RcceSession
from repro.sim.engine import FUSE_ENV_VAR

#: Three transfers of the default protocol, so the isend body is still
#: putting chunks long after the caller moved on.
NBYTES = 20000

ORIGINAL = (np.arange(NBYTES) % 251).astype(np.uint8)


@pytest.fixture(params=["1", "0"], ids=["fused", "unfused"])
def fuse(request, monkeypatch):
    monkeypatch.setenv(FUSE_ENV_VAR, request.param)
    return request.param


@pytest.fixture
def sent_payloads(monkeypatch):
    """Every payload a send hands to its transport, in order."""
    payloads = []
    send_now = Rcce._send_now

    def spy(self, payload, dest):
        payloads.append(payload)
        return send_now(self, payload, dest)

    monkeypatch.setattr(Rcce, "_send_now", spy)
    return payloads


def _isend_then(data, after):
    """Rank 0 isends ``data`` to rank 1 and calls ``after()`` before
    waiting; returns what rank 1 received."""
    session = RcceSession()
    got = {}

    def program(comm):
        if comm.rank == 0:
            request = isend(comm, data, 1)
            after()
            yield from request.wait()
        else:
            got["data"] = yield from comm.recv(NBYTES, 0)

    session.run(program, ranks=[0, 1])
    return got["data"]


def test_writable_array_mutated_after_isend_arrives_unchanged(fuse):
    buf = ORIGINAL.copy()
    got = _isend_then(buf, lambda: buf.fill(0))
    assert np.array_equal(got, ORIGINAL)


def test_immutable_payloads_are_sent_without_a_copy(fuse, sent_payloads):
    blob = ORIGINAL.tobytes()
    frozen = np.frombuffer(blob, np.uint8)
    view = frozen[:]  # a view of the bytes-owned array: still immutable
    assert Rcce._as_bytes(frozen) is frozen
    assert Rcce._as_bytes(view) is view
    for data in (blob, frozen, view):
        got = _isend_then(data, lambda: None)
        assert np.array_equal(got, ORIGINAL)
    payload_of_bytes, payload_of_array, payload_of_view = sent_payloads
    assert np.shares_memory(payload_of_bytes, frozen)
    assert payload_of_array is frozen
    assert payload_of_view is view


def test_read_only_views_of_mutable_memory_are_still_copied(fuse, sent_payloads):
    writable = ORIGINAL.copy()
    frozen_view = writable.view()
    frozen_view.setflags(write=False)
    got = _isend_then(frozen_view, lambda: writable.fill(0))
    assert np.array_equal(got, ORIGINAL)
    assert not np.shares_memory(sent_payloads[-1], writable)

    backing = bytearray(ORIGINAL.tobytes())
    over_bytearray = np.frombuffer(backing, np.uint8)
    over_bytearray.setflags(write=False)

    def scribble():
        backing[:] = bytes(NBYTES)

    got = _isend_then(over_bytearray, scribble)
    assert np.array_equal(got, ORIGINAL)
    assert not np.shares_memory(sent_payloads[-1], over_bytearray)


def test_bt_step_sends_one_shared_payload_per_size(fuse, monkeypatch):
    sent = []
    real_isend = bt_module.isend

    def spy(comm, data, dest):
        sent.append(data)
        return real_isend(comm, data, dest)

    monkeypatch.setattr(bt_module, "isend", spy)
    bench = BTBenchmark(clazz="S", nranks=16, niter=1, mode="model")
    RcceSession().run(bench.program, ranks=range(16))
    by_size: dict[int, set] = {}
    for data in sent:
        assert isinstance(data, bytes)
        by_size.setdefault(len(data), set()).add(id(data))
    assert len(by_size) > 1
    assert all(len(ids) == 1 for ids in by_size.values())
