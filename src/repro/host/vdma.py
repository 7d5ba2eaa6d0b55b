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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Optional

from repro.scc.mpb import MpbAddr

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
        bank = host.task_of(device_id).mmio
        bank.on_write(REG_VDMA_CTRL, self._on_ctrl)
        from repro.obs.metrics import registry_for

        self._obs = registry_for(self.sim)
        self._depth_gauge = self._obs.gauge("vdma.queue_depth", device=device_id)

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
        self.copies_started += 1
        self._depth_gauge.add(1.0)
        tracer = self.host.device_of(self.device_id).tracer
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
        self.sim.spawn(
            self._copy(src, count, cmd, self.copies_started, chained),
            name=f"daemon:vdma.d{self.device_id}",
        )

    def _copy(
        self, src: MpbAddr, count: int, cmd: VdmaCommand, copy_id: int,
        chained: bool = False,
    ) -> Generator:
        host = self.host
        sim = self.sim
        tracer = host.device_of(self.device_id).tracer
        if tracer.wants("vdma"):
            tracer.emit(sim.now, "vdma", self.device_id, "copy_start", copy_id, count)
        src_cable = host.cable_of(src.device)
        dst_cable = host.cable_of(cmd.dst.device)
        dst_dev = host.device_of(cmd.dst.device)
        src_dev = host.device_of(src.device)
        granule = cmd.granule or host.params.granule

        sizes: list[int] = []
        left = count
        while left > 0:
            sizes.append(min(left, granule))
            left -= sizes[-1]
        if cmd.progress_flag is not None and len(cmd.progress_values) < len(sizes):
            raise ValueError(
                f"vDMA command provides {len(cmd.progress_values)} progress "
                f"values for {len(sizes)} granules"
            )
        remaining = [len(sizes)]
        all_committed = sim.event(name="vdma.done")

        # Under a fault plan each copy is covered by a watchdog: a stuck
        # copy (e.g. a granule black-holed by a severed cable) is flagged
        # in the metrics/trace instead of disappearing silently.
        injector = host.fault_injector
        watchdog = None
        if injector is not None:

            def _watchdog_fired() -> None:
                self.watchdog_fires += 1
                if tracer.wants("faults"):
                    tracer.emit(
                        sim.now, "faults", self.device_id,
                        "vdma_watchdog", copy_id, count,
                    )

            watchdog = sim.after(
                injector.plan.vdma_watchdog_ns,
                _watchdog_fired,
                name=f"vdma.watchdog.d{self.device_id}",
            )

        def commit(index: int, off: int, chunk) -> None:
            dst_dev.mpb.write(cmd.dst + off, chunk)
            if cmd.progress_flag is not None:
                dst_dev.mpb.write_byte(cmd.progress_flag, cmd.progress_values[index])
            remaining[0] -= 1
            if remaining[0] == 0:
                all_committed.trigger()

        # Host-side engine startup (descriptor build, thread hand-off) —
        # skipped for a descriptor chained onto an in-flight route copy.
        if not chained:
            yield host.params.vdma_setup_ns

        offset = 0
        for index, size in enumerate(sizes):
            # The protocol guarantees the source MPB stays stable until
            # the completion flag, so sampling at start is sound.
            chunk = src_dev.mpb.read(src + offset, size)

            def forward(index=index, off=offset, chunk=chunk, size=size) -> None:
                # At host arrival: forward down the target cable (via the
                # inter-host tier for a foreign destination), paying host
                # service + descriptor setup as serialization.
                host.route_down(
                    cmd.dst.device,
                    size,
                    on_arrival=lambda: commit(index, off, chunk),
                    extra_overhead_ns=host.params.service_ns
                    + dst_cable.params.dma_setup_ns,
                    owner=cmd.owner or "src",
                )

            src_cable.up.post(
                size,
                on_arrival=forward,
                extra_overhead_ns=src_cable.params.dma_setup_ns,
            )
            offset += size
        self.bytes_copied += count

        yield all_committed
        # Completion: tell the (spinning) source core its MPB is free.
        done = src_cable.down.post(
            4,
            on_arrival=lambda: src_dev.mpb.write_byte(
                cmd.completion_flag, cmd.completion_value
            ),
            extra_overhead_ns=host.params.service_ns,
        )
        yield done
        if watchdog is not None:
            watchdog.cancel()
        self.copies_completed += 1
        host.task_of(self.device_id).sched.vdma_end(cmd.dst.device)
        self._depth_gauge.add(-1.0)
        if tracer.wants("vdma"):
            tracer.emit(sim.now, "vdma", self.device_id, "copy_done", copy_id)
