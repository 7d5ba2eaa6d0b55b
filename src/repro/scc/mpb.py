"""The software-controlled on-chip memory of one SCC device.

Terminology follows the paper (§3.1): each tile has a *local memory
buffer* (LMB); per core we model an 8 kB half, split into the
*message-passing buffer* (MPB, the payload area) and the *synchronization
flag* (SF) region at the top.

The memory holds **real bytes** (one ``bytearray`` per LMB half, with a
numpy view over it): every protocol in the reproduction moves actual
payload through it, so consistency bugs corrupt data and fail tests
rather than merely skewing timings. A half is allocated at the first
write to its core; until then it reads as zeros, so a run pays memory
only for the cores it touches.

Byte-level *watchpoints* notify waiting processes on writes — this is how
flag polling is simulated efficiently (the poller parks on the watch
signal instead of spinning through the event queue).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.sim.engine import Signal, Simulator

from .params import SCCParams

__all__ = ["MpbAddr", "MPBMemory", "as_u8"]

Bytes = Union[bytes, bytearray, np.ndarray]


def as_u8(data: Bytes) -> np.ndarray:
    """View ``data`` as a uint8 array without copying.

    bytes/bytearray/memoryview are wrapped via ``np.frombuffer`` (zero
    copy); uint8 ndarrays pass through unchanged; other-dtype ndarrays
    are value-cast with ``astype`` — the same semantics the stores used
    before payloads became zero-copy.
    """
    if isinstance(data, np.ndarray):
        return data if data.dtype == np.uint8 else data.astype(np.uint8)
    return np.frombuffer(data, np.uint8)


@dataclass(frozen=True, order=True)
class MpbAddr:
    """A location in some device's on-chip memory: (device, core, offset).

    ``offset`` is relative to the owning core's 8 kB LMB half. The vSCC
    topology coordinate of the paper, (x, y, z), maps to
    (core's tile x, tile y, device).
    """

    device: int
    core: int
    offset: int

    def __add__(self, delta: int) -> "MpbAddr":
        return MpbAddr(self.device, self.core, self.offset + delta)


class MPBMemory:
    """All LMB halves of one device as one watchable byte store.

    Each core's 8 kB half is allocated at its first ``write`` or
    ``write_byte``; reads of a half never written return zeros. Spans
    go through the half's numpy view, single bytes through its
    ``bytearray`` (a numpy scalar read costs about six times a
    ``bytearray`` index).
    """

    def __init__(self, sim: Simulator, params: SCCParams, device_id: int):
        self.sim = sim
        self.params = params
        self.device_id = device_id
        # Geometry as plain ints: flat()/check_span() run on every access.
        self._num_cores = params.num_cores
        self._lmb = params.lmb_bytes_per_core
        # One LMB half per core, ``None`` until that core is first written:
        # the backing bytes and a numpy view over them.
        self._bytes: list[Optional[bytearray]] = [None] * self._num_cores
        self._halves: list[Optional[np.ndarray]] = [None] * self._num_cores
        # Watch signals keyed by flat byte address (flags are single bytes).
        self._watches: dict[int, Signal] = {}
        # Watchpoints live on flag bytes (the SF region at the top of each
        # LMB half); payload-area writes skip the pulse scan entirely
        # unless someone actually watched a payload byte.
        self._payload_end = params.mpb_payload_bytes
        self._payload_watched = False

    # -- addressing -----------------------------------------------------------

    def flat(self, addr: MpbAddr) -> int:
        core = addr.core
        offset = addr.offset
        if (
            addr.device == self.device_id
            and 0 <= core < self._num_cores
            and 0 <= offset < self._lmb
        ):
            return core * self._lmb + offset
        if addr.device != self.device_id:
            raise ValueError(
                f"address {addr} targets device {addr.device}, "
                f"this memory belongs to device {self.device_id}"
            )
        if not 0 <= core < self._num_cores:
            self.params._check_core(core)
        raise ValueError(f"offset {offset} outside the 8 kB LMB half")

    def check_span(self, addr: MpbAddr, length: int) -> int:
        """Validate that [addr, addr+length) stays inside one core's LMB."""
        if length < 0:
            raise ValueError(f"negative length {length}")
        if addr.offset + length > self._lmb:
            raise ValueError(
                f"span of {length} B at offset {addr.offset} crosses the "
                "LMB boundary of core "
                f"{addr.core}"
            )
        return self.flat(addr)

    # -- data access (timeless; timing is charged by the caller) ----------------

    def _allocate(self, core: int) -> np.ndarray:
        """Allocate the core's (zeroed) LMB half at its first write."""
        raw = self._bytes[core] = bytearray(self._lmb)
        half = self._halves[core] = np.frombuffer(raw, np.uint8)
        return half

    def read(self, addr: MpbAddr, length: int) -> np.ndarray:
        self.check_span(addr, length)
        return self.read_unchecked(addr, length)

    def read_unchecked(self, addr: MpbAddr, length: int) -> np.ndarray:
        """:meth:`read` of a span the caller already passed through
        :meth:`check_span`."""
        half = self._halves[addr.core]
        if half is None:
            return np.zeros(length, np.uint8)
        offset = addr.offset
        return half[offset : offset + length].copy()

    def write(self, addr: MpbAddr, data: Bytes) -> None:
        src = as_u8(data)
        self._store(addr, self.check_span(addr, len(src)), src)

    def write_unchecked(self, addr: MpbAddr, base: int, data: Bytes) -> None:
        """:meth:`write` of a span the caller already passed through
        :meth:`check_span`, which returned ``base``."""
        self._store(addr, base, as_u8(data))

    def _store(self, addr: MpbAddr, base: int, src: np.ndarray) -> None:
        n = len(src)
        half = self._halves[addr.core]
        if half is None:
            half = self._allocate(addr.core)
        offset = addr.offset
        half[offset : offset + n] = src
        if self._payload_watched or offset + n > self._payload_end:
            self._pulse_span(base, base + n)

    def _pulse_span(self, base: int, end: int) -> None:
        """Pulse watch signals whose byte falls inside [base, end).

        Narrow writes (the flag traffic that dominates) probe the watch
        dict per touched byte; writes wider than the watch table fall
        back to one scan over it. Either way only the touched signals are
        considered — no per-write copy of the whole table.
        """
        watches = self._watches
        if not watches:
            return
        if end - base <= len(watches):
            get = watches.get
            for flat_addr in range(base, end):
                signal = get(flat_addr)
                if signal is not None and signal.has_waiters:
                    signal.pulse()
        else:
            pending = [
                signal
                for flat_addr, signal in watches.items()
                if base <= flat_addr < end and signal.has_waiters
            ]
            for signal in pending:
                signal.pulse()

    def read_byte(self, addr: MpbAddr) -> int:
        core = addr.core
        offset = addr.offset
        if (
            addr.device != self.device_id
            or not 0 <= core < self._num_cores
            or not 0 <= offset < self._lmb
        ):
            self.flat(addr)  # raises the matching addressing error
        raw = self._bytes[core]
        return 0 if raw is None else raw[offset]

    def write_byte(self, addr: MpbAddr, value: int) -> None:
        # Single-byte writes are the flag hot path: skip array wrapping
        # and span scans, touch exactly one store cell and one watch slot.
        core = addr.core
        offset = addr.offset
        if (
            addr.device != self.device_id
            or not 0 <= core < self._num_cores
            or not 0 <= offset < self._lmb
        ):
            self.flat(addr)  # raises the matching addressing error
        raw = self._bytes[core]
        if raw is None:
            self._allocate(core)
            raw = self._bytes[core]
        raw[offset] = value & 0xFF
        signal = self._watches.get(core * self._lmb + offset)
        if signal is not None and (signal._waiters or signal._once):
            signal.pulse()

    # -- watchpoints -------------------------------------------------------------

    def watch(self, addr: MpbAddr) -> Signal:
        """Signal pulsed whenever a write touches this byte."""
        flat_addr = self.flat(addr)
        signal = self._watches.get(flat_addr)
        if signal is None:
            signal = self.sim.signal(name=f"mpb{self.device_id}.watch@{flat_addr}")
            self._watches[flat_addr] = signal
            if addr.offset < self._payload_end:
                self._payload_watched = True
        return signal
