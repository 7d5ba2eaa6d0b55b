"""The virtual DMA controller (paper §3.3, Fig 5).

The vDMA controller is the new functionality that enables the
*local-put/local-get* scheme: sender and receiver touch only their own
on-chip memory while the host moves the payload. A core programs the
controller through three memory-mapped registers — address, count,
control — "with an alignment of 32 B … because the architecture can fuse
write operations with a write combining buffer", then spins on a
completion flag in its own MPB.

The copy is granule-pipelined: each granule is pulled from the source
device and forwarded down the target device's cable as soon as it
reaches the host, with a per-granule progress flag piggybacked onto the
data commit so the receiver can drain in parallel ("the communication
task can introduce a pipelining effect", §4.1 — this is what removes the
8 kB cliff for the local-access scheme).

Unpinned: ``_Copy._watchdog_fired`` — a stalled copy, which the fault
suites drive.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Optional

from repro.scc.mpb import MpbAddr
from repro.sim.engine import Record

from .dma import granule_sizes
from .mmio import REG_VDMA_ADDR, REG_VDMA_COUNT, REG_VDMA_CTRL

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .driver import Host

__all__ = ["VdmaCommand", "VDMAController"]


@dataclass(frozen=True)
class VdmaCommand:
    """Decoded contents of the control register.

    On hardware this would be bit-packed; the simulation keeps it
    structured. ``progress_flag`` (in the destination SF region) is
    written with ``progress_values[i]`` as granule ``i`` commits — the
    values come from the RCCE per-pair counter stream, so the receiver
    can drain granules as they land. ``completion_flag`` (in the source
    core's SF region) is set to ``completion_value`` once the copy fully
    committed.
    """

    dst: MpbAddr
    completion_flag: MpbAddr
    completion_value: int = 1
    progress_flag: Optional[MpbAddr] = None
    progress_values: tuple[int, ...] = ()
    granule: Optional[int] = None
    #: Host-affinity of a cross-host copy — which host's communication
    #: task owns the inter-host forward ("src" or "dst"; ``None`` = the
    #: policy default). Ignored for same-host destinations.
    owner: Optional[str] = None


class VDMAController:
    """vDMA engine serving the cores of one device (the source side)."""

    def __init__(self, host: "Host", device_id: int):
        self.host = host
        self.sim = host.sim
        self.device_id = device_id
        self.copies_started = 0
        self.copies_completed = 0
        self.bytes_copied = 0
        #: Copies that outlived the fault plan's watchdog without
        #: completing (armed only while a fault injector is installed).
        self.watchdog_fires = 0
        self._name = f"daemon:vdma.d{device_id}"
        self._watchdog_name = f"vdma.watchdog.d{device_id}"
        bank = host.task_of(device_id).mmio
        bank.on_write(REG_VDMA_CTRL, self._on_ctrl)

    def metrics_snapshot(self) -> dict[str, float]:
        """Engine series of this device's vDMA controller."""
        d = self.device_id
        return {
            f"vdma.transfers{{device={d}}}": float(self.copies_started),
            f"vdma.copies_completed{{device={d}}}": float(self.copies_completed),
            f"vdma.bytes{{device={d}}}": float(self.bytes_copied),
            f"vdma.inflight{{device={d}}}": float(
                self.copies_started - self.copies_completed
            ),
            f"vdma.watchdog_fires{{device={d}}}": float(self.watchdog_fires),
        }

    def _on_ctrl(self, core_id: int, ctrl_value: object) -> None:
        """Control-register write: trigger the transaction (Fig 5)."""
        if not isinstance(ctrl_value, VdmaCommand):
            raise TypeError(
                f"vDMA control register expects a VdmaCommand, got {ctrl_value!r}"
            )
        bank = self.host.task_of(self.device_id).mmio
        src_offset = int(bank.read(REG_VDMA_ADDR))
        count = int(bank.read(REG_VDMA_COUNT))
        self.start(core_id, src_offset, count, ctrl_value)

    def start(
        self, core_id: int, src_offset: int, count: int, cmd: VdmaCommand
    ) -> None:
        if count <= 0:
            raise ValueError(f"vDMA count must be positive, got {count}")
        src = MpbAddr(self.device_id, core_id, src_offset)
        if cmd.dst.device == self.device_id:
            raise ValueError(
                "vDMA moves data between devices; same-device copies use the mesh"
            )
        sizes = granule_sizes(count, cmd.granule or self.host.params.granule)
        if cmd.progress_flag is not None and len(cmd.progress_values) < len(sizes):
            raise ValueError(
                f"vDMA command provides {len(cmd.progress_values)} progress "
                f"values for {len(sizes)} granules"
            )
        self.copies_started += 1
        tracer = self.sim.tracer
        if tracer.wants("vdma"):
            tracer.emit(
                self.sim.now, "vdma", self.device_id, "programmed",
                self.copies_started, count,
            )
        # Request-scheduler coalescing: a descriptor programmed while
        # another copy to the same destination device is in flight chains
        # onto that engine pass (no per-descriptor startup). Decided at
        # program time, before this copy joins the in-flight set.
        sched = self.host.task_of(self.device_id).sched
        chained = sched.vdma_admit(cmd.dst.device, self.copies_started)
        sched.vdma_begin(cmd.dst.device)
        _Copy(self, src, sizes, cmd, self.copies_started, chained)


class _Copy(Record):
    """One vDMA copy as a kernel record, woken four times: at its start,
    after the host-side setup delay (not for a descriptor chained onto
    an in-flight copy), when the last granule commits, and once the
    completion flag is posted."""

    __slots__ = ("ctrl", "src", "sizes", "cmd", "copy_id", "chained", "_remaining", "_watchdog")

    def __init__(
        self, ctrl: VDMAController, src: MpbAddr, sizes: list[int],
        cmd: VdmaCommand, copy_id: int, chained: bool,
    ):
        self.ctrl = ctrl
        self.src = src
        self.sizes = sizes
        self.cmd = cmd
        self.copy_id = copy_id
        self.chained = chained
        self._remaining = len(sizes)
        self._watchdog = None
        Record.__init__(self, ctrl.sim, ctrl._name, self._begin)

    def _trace(self, category: str, what: str, *args) -> None:
        tracer = self.sim.tracer
        if tracer.wants(category):
            tracer.emit(self.sim.now, category, self.ctrl.device_id, what, self.copy_id, *args)

    def _begin(self, _) -> None:
        ctrl = self.ctrl
        self._trace("vdma", "copy_start", sum(self.sizes))
        # Under a fault plan each copy is covered by a watchdog: a stuck
        # copy (e.g. a granule black-holed by a severed cable) is flagged
        # in the metrics/trace instead of disappearing silently.
        injector = ctrl.host.fault_injector
        if injector is not None:
            self._watchdog = self.sim.after(
                injector.plan.vdma_watchdog_ns, self._watchdog_fired,
                name=ctrl._watchdog_name,
            )
        # Host-side engine startup (descriptor build, thread hand-off) —
        # skipped for a descriptor chained onto an in-flight route copy.
        if self.chained:
            self._post(None)
        else:
            self._sleep(ctrl.host.params.vdma_setup_ns, self._post)

    def _watchdog_fired(self) -> None:
        self.ctrl.watchdog_fires += 1
        self._trace("faults", "vdma_watchdog", sum(self.sizes))

    def _post(self, _) -> None:
        host = self.ctrl.host
        src = self.src
        cable = host.cable_of(src.device)
        mpb = host.device_of(src.device).mpb
        offset = 0
        for index, size in enumerate(self.sizes):
            # The protocol guarantees the source MPB stays stable until
            # the completion flag, so sampling at start is sound.
            cable.up.post(
                size,
                on_arrival=partial(self._forward, index, offset, mpb.read(src + offset, size)),
                extra_overhead_ns=cable.params.dma_setup_ns,
            )
            offset += size
        self.ctrl.bytes_copied += offset
        self._next = self._complete  # the last commit wakes the copy

    def _forward(self, index: int, offset: int, chunk) -> None:
        # At host arrival: forward down the target cable (via the
        # inter-host tier for a foreign destination), paying host
        # service + descriptor setup as serialization.
        host = self.ctrl.host
        cmd = self.cmd
        host.route_down(
            cmd.dst.device,
            len(chunk),
            on_arrival=partial(self._commit, index, offset, chunk),
            extra_overhead_ns=host.params.service_ns
            + host.cable_of(cmd.dst.device).params.dma_setup_ns,
            owner=cmd.owner or "src",
        )

    def _commit(self, index: int, offset: int, chunk) -> None:
        cmd = self.cmd
        mpb = self.ctrl.host.device_of(cmd.dst.device).mpb
        mpb.write(cmd.dst + offset, chunk)
        if cmd.progress_flag is not None:
            mpb.write_byte(cmd.progress_flag, cmd.progress_values[index])
        self._remaining -= 1
        if not self._remaining:
            self.sim.schedule(0.0, self, None)

    def _complete(self, _) -> None:
        # Completion: tell the (spinning) source core its MPB is free.
        host = self.ctrl.host
        mpb = host.device_of(self.src.device).mpb
        cmd = self.cmd
        posted = host.cable_of(self.src.device).down.post(
            4,
            on_arrival=lambda: mpb.write_byte(cmd.completion_flag, cmd.completion_value),
            extra_overhead_ns=host.params.service_ns,
        )
        self._wait(posted, self._end)

    def _end(self, _) -> None:
        ctrl = self.ctrl
        if self._watchdog is not None:
            self._watchdog.cancel()
            self._watchdog = None  # the timer's callback holds this record
        ctrl.copies_completed += 1
        ctrl.host.task_of(ctrl.device_id).sched.vdma_end(self.cmd.dst.device)
        self._trace("vdma", "copy_done")
        self._finish()
