"""Execution context of one simulated P54C core.

A *program* (RCCE application code) runs as a simulator process and calls
the coroutine methods of its :class:`CoreEnv` for everything that costs
simulated time: computing, touching private memory, reading/writing the
on-chip MPB, setting and polling synchronization flags, and programming
memory-mapped registers (which reach the host through the device fabric).

Timing is charged at cache-line (32 B) granularity per the model in
:class:`repro.scc.params.SCCParams`. Payload bytes are moved for real.

Simplification (see DESIGN.md §6): the L1 MPBT model affects *timing*
only — reads always observe current memory contents. The CL1INVMB
discipline is still exercised (RCCE issues it before every read sequence)
and its cost is charged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional, Union

import numpy as np

from repro.sim.errors import SimulationError

from .cache import L1MpbtCache
from .mpb import MpbAddr, as_u8
from .params import CACHE_LINE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .chip import SCCDevice

__all__ = ["CoreEnv"]

Bytes = Union[bytes, bytearray, np.ndarray]

#: Guard for flag waits: no experiment in the paper blocks longer than
#: this (1 simulated minute); exceeding it indicates a protocol deadlock.
DEFAULT_FLAG_TIMEOUT_NS = 60e9

#: Above this many bytes, per-line L1 bookkeeping is skipped and the
#: transfer is charged in bulk (streaming access never re-hits lines).
BULK_THRESHOLD_BYTES = 256


class CoreEnv:
    """One core of one SCC device: timing + memory-operation coroutines."""

    def __init__(self, device: "SCCDevice", core_id: int):
        self.device = device
        self.core_id = core_id
        self.sim = device.sim
        self.params = device.params
        self.tile = device.params.tile_of_core(core_id)
        self.l1 = L1MpbtCache()
        # Derived per-access costs, hoisted out of the coroutines: the
        # params are frozen, so these never change.
        p = device.params
        costs = p.hop_costs
        self._remote_read_ns = costs.remote_read_ns
        self._remote_write_ns = costs.remote_write_ns
        self._remote_write_arrival_ns = costs.remote_write_arrival_ns
        self._core_clock = p.core_clock
        # Every access first tests ``addr.device != self._device_id``
        # (off-die: the fabric's path); an on-die address is local when
        # ``addr.core // self._cores_per_tile == self.tile``.
        self._device_id = device.device_id
        self._cores_per_tile = p.cores_per_tile
        self._lmb = p.lmb_bytes_per_core
        self._local_read_hit_ns = p.local_read_ns(l1_hit=True)
        self._local_read_ns = p.local_read_ns()
        self._local_write_ns = p.local_write_ns()
        self._cl1invmb_ns = self._core_clock.cycles(p.cl1invmb_cycles)
        self._poll_base_ns = self._core_clock.cycles(p.flag_poll_cycles) + p.local_read_ns()
        self._dram_read_line_ns = p.dram_read_line_ns()
        self._dram_write_line_ns = p.dram_write_line_ns()
        # XY hop distance to every core of this device, precomputed: the
        # geometry is frozen, and remote MPB reads/flag ops resolve hops
        # on every access.
        hops = device.router.hops
        cpt = self._cores_per_tile
        self._hops_table = [hops(self.tile, c // cpt) for c in range(p.num_cores)]

    # -- identity ---------------------------------------------------------------

    def local_addr(self, offset: int) -> MpbAddr:
        """Address ``offset`` within this core's own LMB half."""
        return MpbAddr(self.device.device_id, self.core_id, offset)

    def _fabric(self):
        fabric = self.device.fabric
        if fabric is None:
            raise SimulationError(
                f"core {self.core_id} of device {self.device.device_id} issued an "
                "off-die access but no interconnect fabric is attached"
            )
        return fabric

    # -- compute ------------------------------------------------------------------

    def compute(self, ns: float = 0.0, cycles: float = 0.0) -> Generator:
        """Charge pure compute time (``cycles`` are core cycles)."""
        total = ns + self._core_clock.cycles(cycles)
        if total > 0:
            yield total

    def compute_flops(self, flops: float, flops_per_cycle: float) -> Generator:
        """Charge compute for ``flops`` at a sustained per-cycle rate."""
        if flops_per_cycle <= 0:
            raise ValueError("flops_per_cycle must be positive")
        yield from self.compute(cycles=flops / flops_per_cycle)

    # -- private memory -------------------------------------------------------------

    def private_read(self, nbytes: int) -> Generator:
        yield from self._private_access(nbytes, self._dram_read_line_ns)

    def private_write(self, nbytes: int) -> Generator:
        yield from self._private_access(nbytes, self._dram_write_line_ns)

    def _private_access(self, nbytes: int, line_ns: float) -> Generator:
        """Private DRAM access: core-side cost overlapped with the
        quadrant memory controller's FIFO occupancy (contention only
        bites when several cores of one quadrant stream at once)."""
        lines = -(-nbytes // CACHE_LINE)
        core_side = lines * line_ns
        mc_wait = self.device.memctrl.occupancy_wait_ns(self.core_id, nbytes)
        yield max(core_side, mc_wait)

    # -- MPB reads ---------------------------------------------------------------------

    def cl1invmb(self) -> Generator:
        """Invalidate all MPBT lines in L1 (single instruction)."""
        self.l1.cl1invmb()
        yield self._cl1invmb_ns

    def mpb_read(self, addr: MpbAddr, length: int, assume_cold: bool = False) -> Generator:
        """Read ``length`` bytes of on-chip memory; returns an ndarray.

        Off-die addresses are delegated to the attached fabric (the
        host-routed path of vSCC).
        """
        if addr.device != self._device_id:
            return (yield from self._fabric().remote_read(self, addr, length))
        mem = self.device.mpb
        mem.check_span(addr, length)
        local = addr.core // self._cores_per_tile == self.tile
        hops = 0 if local else self._hops_table[addr.core]
        cost = self._read_cost_ns(addr, length, local, hops, assume_cold)
        if not local:
            self.device.router.account(
                self.tile, addr.core // self._cores_per_tile, length
            )
        yield cost
        return mem.read_unchecked(addr, length)

    def _read_cost_ns(
        self, addr: MpbAddr, length: int, local: bool, hops: int, assume_cold: bool
    ) -> float:
        lines = max(1, -(-length // CACHE_LINE))
        if local:
            miss_ns = self._local_read_ns
        else:
            miss_ns = self._remote_read_ns[hops]
        if assume_cold or length > BULK_THRESHOLD_BYTES:
            return lines * miss_ns
        flat = self.device.mpb.flat(addr)
        hit_ns = self._local_read_hit_ns
        cost = 0.0
        for line in range(flat // CACHE_LINE, (flat + max(length, 1) - 1) // CACHE_LINE + 1):
            tag = ("mpb", addr.device, line)
            if self.l1.lookup(tag):
                cost += hit_ns
            else:
                cost += miss_ns
        return cost

    # -- MPB writes -----------------------------------------------------------------------

    def mpb_write(self, addr: MpbAddr, data: Bytes) -> Generator:
        """Write ``data`` to on-chip memory (through the WCB)."""
        if addr.device != self._device_id:
            yield from self._fabric().remote_write(self, addr, data)
            return
        mem = self.device.mpb
        length = len(data)
        base = mem.check_span(addr, length)
        lines = max(1, -(-length // CACHE_LINE))
        if addr.core // self._cores_per_tile == self.tile:
            yield lines * self._local_write_ns
            mem.write_unchecked(addr, base, data)
        else:
            hops = self._hops_table[addr.core]
            self.device.router.account(
                self.tile, addr.core // self._cores_per_tile, length
            )
            yield lines * self._remote_write_ns[hops]
            # Snapshot the same one-byte-per-element values the local
            # path stores: the caller may reuse ``data`` before arrival.
            payload = as_u8(data).copy()
            arrival = self.sim.now + self._remote_write_arrival_ns[hops]
            self.sim.call_at(arrival, lambda: mem.write(addr, payload))

    # -- fused chunk moves (DESIGN.md §12) -----------------------------------------------------

    def put_chunk(self, addr: MpbAddr, data: Bytes) -> Generator:
        """Fused sender-side chunk move: private-DRAM read + MPB write.

        Bitwise-identical timing to ``private_read(len(data))`` followed
        by ``mpb_write(addr, data)`` when ``addr`` is this core's own
        MPB half (the RCCE local-put discipline) — the two delays are
        presented as one fused chain and the payload lands at the same
        accumulated instant the sequential pair would commit it. Any
        other target falls back to the sequential pair.
        """
        length = len(data)
        if (
            addr.device != self._device_id
            or addr.core // self._cores_per_tile != self.tile
        ):
            yield from self.private_read(length)
            yield from self.mpb_write(addr, data)
            return
        mem = self.device.mpb
        base = mem.check_span(addr, length)
        r_lines = -(-length // CACHE_LINE)
        d1 = max(
            r_lines * self._dram_read_line_ns,
            self.device.memctrl.occupancy_wait_ns(self.core_id, length),
        )
        d2 = max(1, r_lines) * self._local_write_ns
        yield (d1, d2)
        mem.write_unchecked(addr, base, data)

    def get_chunk(self, addr: MpbAddr, length: int) -> Generator:
        """Fused receiver-side chunk move: CL1INVMB + MPB read + DRAM write.

        Bitwise-identical timing to ``cl1invmb()`` + ``mpb_read(addr,
        length, assume_cold=True)`` + ``private_write(length)``: the
        memory-controller occupancy is evaluated at the accumulated
        chain time via ``at=`` and the payload is sampled at the chain's
        end, where the sequential receive's ack (which releases the
        sender to overwrite) has not yet been sent. Off-die sources fall
        back to the sequential triple.
        """
        if addr.device != self._device_id:
            yield from self.cl1invmb()
            data = yield from self.mpb_read(addr, length, assume_cold=True)
            yield from self.private_write(length)
            return data
        mem = self.device.mpb
        mem.check_span(addr, length)
        self.l1.cl1invmb()
        d1 = self._cl1invmb_ns
        lines = max(1, -(-length // CACHE_LINE))
        if addr.core // self._cores_per_tile == self.tile:
            miss_ns = self._local_read_ns
        else:
            miss_ns = self._remote_read_ns[self._hops_table[addr.core]]
            self.device.router.account(
                self.tile, addr.core // self._cores_per_tile, length
            )
        d2 = lines * miss_ns
        d3 = max(
            (-(-length // CACHE_LINE)) * self._dram_write_line_ns,
            self.device.memctrl.occupancy_wait_ns(
                self.core_id, length, at=(self.sim.now + d1) + d2
            ),
        )
        yield (d1, d2, d3)
        return mem.read_unchecked(addr, length)

    # -- synchronization flags ----------------------------------------------------------------

    def set_flag(self, addr: MpbAddr, value: int) -> Generator:
        """Write a one-byte flag."""
        if addr.device != self._device_id:
            yield from self._fabric().remote_flag_write(self, addr, value)
            return
        mem = self.device.mpb
        if addr.core // self._cores_per_tile == self.tile:
            yield self._local_write_ns
            mem.write_byte(addr, value)
        else:
            hops = self._hops_table[addr.core]
            self.device.router.account(
                self.tile, addr.core // self._cores_per_tile, 1
            )
            yield self._remote_write_ns[hops]
            arrival = self.sim.now + self._remote_write_arrival_ns[hops]
            self.sim.call_at(arrival, lambda: mem.write_byte(addr, value))

    def read_flag(self, addr: MpbAddr) -> Generator:
        """Read a one-byte flag; RCCE only ever reads *local* flags."""
        if addr.device != self._device_id:
            data = yield from self._fabric().remote_read(self, addr, 1)
            return int(data[0])
        if addr.core // self._cores_per_tile == self.tile:
            yield self._local_read_ns
        else:
            yield self._remote_read_ns[self._hops_table[addr.core]]
        return self.device.mpb.read_byte(addr)

    def wait_flag(
        self,
        addr: MpbAddr,
        value: int,
        timeout_ns: Optional[float] = DEFAULT_FLAG_TIMEOUT_NS,
    ) -> Generator:
        """Busy-wait until the (local) flag equals ``value``."""
        return self._poll_flag(addr, value, None, timeout_ns)

    def wait_flag_pred(
        self,
        addr: MpbAddr,
        predicate,
        timeout_ns: Optional[float] = DEFAULT_FLAG_TIMEOUT_NS,
    ) -> Generator:
        """Busy-wait until ``predicate(flag_byte)`` holds on a local flag.

        Counter-valued flags (the pipelined and vDMA protocols) wait
        with ``>=``-style predicates here.
        """
        return self._poll_flag(addr, None, predicate, timeout_ns)

    def _poll_flag(
        self, addr: MpbAddr, value, predicate, timeout_ns: Optional[float]
    ) -> Generator:
        """The flag-polling loop of :meth:`wait_flag` and :meth:`wait_flag_pred`.

        Without a ``predicate`` the flag byte is compared with ``value``
        inline. Each poll costs a poll iteration plus a local read;
        between polls the process parks on the memory watchpoint, so a
        long wait is one simulator event, not thousands.
        """
        if (
            addr.device != self._device_id
            or addr.core // self._cores_per_tile != self.tile
        ):
            raise SimulationError(
                "wait_flag on a non-local flag — RCCE's protocol only polls "
                f"local flags (core {self.core_id}, flag at {addr})"
            )
        mem = self.device.mpb
        poll_ns = self._poll_base_ns
        deadline = None if timeout_ns is None else self.sim.now + timeout_ns
        park = None
        while True:
            if park is None:
                yield poll_ns
            else:
                # Park on the watchpoint, then charge the re-poll as one
                # fused chain: woken poll_ns after the write lands, the
                # same instant the unfused watch-wake + poll pair reaches.
                yield park
            byte = mem.read_byte(addr)
            if (byte == value) if predicate is None else predicate(byte):
                return
            if deadline is not None and self.sim.now > deadline:
                raise SimulationError(
                    f"flag wait timed out: dev {self.device.device_id} core "
                    f"{self.core_id} waiting at {addr}"
                )
            if park is None:
                # read_byte validated the address, so its flat index is
                # safe to compute; only the flag's first waiter builds
                # its watch signal.
                watch = mem._watches.get(addr.core * self._lmb + addr.offset)
                if watch is None:
                    watch = mem.watch(addr)
                park = (watch, poll_ns)

    def wait_any_flag(
        self,
        specs: list,
        timeout_ns: Optional[float] = DEFAULT_FLAG_TIMEOUT_NS,
    ) -> Generator:
        """Busy-wait until any of several local flags satisfies its predicate.

        ``specs`` is a list of ``(addr, predicate)`` pairs; returns the
        index of the first satisfied entry (scanned in order per poll —
        iRCCE's wildcard receive probes its pending-request list the
        same way). Between polls the process parks until *any* watched
        byte is written.
        """
        mem = self.device.mpb
        for addr, _pred in specs:
            if (
                addr.device != self._device_id
                or addr.core // self._cores_per_tile != self.tile
            ):
                raise SimulationError(
                    f"wait_any_flag on non-local flag {addr} (core {self.core_id})"
                )
        deadline = None if timeout_ns is None else self.sim.now + timeout_ns
        while True:
            yield self._poll_base_ns * len(specs)
            for index, (addr, pred) in enumerate(specs):
                if pred(mem.read_byte(addr)):
                    return index
            if deadline is not None and self.sim.now > deadline:
                raise SimulationError(
                    f"wait_any_flag timed out on core {self.core_id}"
                )
            gate = self.sim.event(name="wait_any_flag")

            def wake() -> None:
                if not gate.triggered:
                    gate.trigger()

            watches = [mem.watch(addr) for addr, _pred in specs]
            for watch in watches:
                watch.once(wake)
            yield gate
            # Only the watch that fired has dropped ``wake``: withdraw it
            # from the others, or their every later write pulses for it.
            for watch in watches:
                watch.drop_once(wake)

    # -- memory-mapped registers (host-provided functionality) -------------------------------------

    def mmio_write(self, reg: int, value: int) -> Generator:
        """Write a host MMIO register (vDMA programming, cache control)."""
        yield from self._fabric().mmio_write(self, [(reg, value)], fused=False)
