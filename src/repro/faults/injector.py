"""Fault injection + link-layer resilience on the PCIe host path.

The injector installs a :class:`LinkFaultState` on each PCIe link the
plan targets. From then on every *posted* packet on that link (vDMA
granules, write-combining bursts, direct small messages, flag and MMIO
writes — everything that rides :meth:`repro.sim.resources.Link.post` or
``transfer``) carries the CRC/seq envelope of
:mod:`repro.vscc.protocol` and is subject to the plan's faults:

* **drop** — the packet is lost; the sender's ack timeout expires and it
  retransmits after an exponential backoff;
* **corrupt** — the packet arrives, the CRC rejects it, the receiver
  stays silent, and the path is identical to a drop (counted apart);
* **duplicate** — the wire delivers the packet twice; the receiver's
  :class:`~repro.vscc.protocol.SequenceTracker` discards the copy;
* **stall / hang** — the delivery is delayed (link retraining, device
  hang window) without loss;
* **death** — from ``dead_at_ns`` on, the device answers nothing; the
  retry budget drains and the quarantine path decides the ending.

Retransmissions are *head-of-line*: the link stays reserved through the
timeout/backoff sequence, exactly like a hardware ack/retransmit link
layer (the Distributed Network Processor's T-links behave this way), so
per-link FIFO order — and with it the exactly-once in-order delivery
property — is preserved by construction.

Exhausting ``max_retries`` quarantines the device: ``on_exhaust="reset"``
models a device reset + link retrain (one final guaranteed delivery,
faults disabled afterwards — the run completes, the device is reported
*degraded*); ``on_exhaust="sever"`` takes the cable down (in-flight and
future packets are black-holed; new requests fail fast with
:class:`~repro.faults.errors.DeviceQuarantined`).

Timing fine print: a retransmission re-serializes the packet, so wire
counters (``link.bytes``, ``link.transfers``, ``link.busy_ns``) count
*attempts*, not logical packets — the wire-level truth the paper's FPGA
counters would report.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Any, Callable, Optional

import numpy as np

from repro.vscc.protocol import HostPacket, SequenceTracker

from .plan import DeviceFaults, FaultPlan, LinkFaults

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.host.driver import Host
    from repro.sim.engine import Event
    from repro.sim.resources import Link

__all__ = ["FaultInjector", "LinkFaultState"]

#: Outcome classification of one wire attempt.
_OK, _DROP, _CORRUPT = 0, 1, 2


class LinkFaultState:
    """Fault model + ack/retransmit state machine of one link direction.

    Owns the link's deterministic RNG substream (derived from the plan
    seed and the link name), the transmit sequence counter, the receive
    :class:`SequenceTracker`, and the per-link fault/retry counters that
    surface as ``faults.*`` metric series.
    """

    __slots__ = (
        "link", "spec", "plan", "device_id", "injector", "rng",
        "tx_seq", "rx", "hang_window", "dead_at_ns",
        "sent", "delivered", "retries", "dropped", "crc_rejects",
        "duplicates", "stalls", "resets", "severs", "lost",
        "severed", "disabled",
    )

    def __init__(
        self,
        link: "Link",
        spec: LinkFaults,
        plan: FaultPlan,
        device_id: int = -1,
        injector: Optional["FaultInjector"] = None,
        device_spec: Optional[DeviceFaults] = None,
    ):
        self.link = link
        self.spec = spec
        self.plan = plan
        self.device_id = device_id
        self.injector = injector
        # Independent, order-insensitive substream per link: the root
        # seed is qualified by a stable hash of the link name (zlib.crc32,
        # not hash(), so replays agree across processes).
        self.rng = np.random.default_rng(
            [plan.seed, zlib.crc32(link.name.encode("utf-8"))]
        )
        self.tx_seq = 0
        self.rx = SequenceTracker()
        self.hang_window = device_spec.hang_window if device_spec else None
        self.dead_at_ns = device_spec.dead_at_ns if device_spec else None
        # -- counters (all surface as faults.* series) -------------------
        self.sent = 0          # logical packets posted
        self.delivered = 0     # exactly-once arrivals committed
        self.retries = 0       # retransmission attempts
        self.dropped = 0       # wire attempts lost to drop faults
        self.crc_rejects = 0   # wire attempts rejected by the receiver CRC
        self.duplicates = 0    # wire-level duplicate deliveries (deduped)
        self.stalls = 0        # stall/hang delays applied
        self.resets = 0        # quarantine-with-reset recoveries
        self.severs = 0        # retry budgets exhausted into a severed cable
        self.lost = 0          # logical packets never delivered
        self.severed = False   # cable is down: black-hole everything
        self.disabled = False  # post-reset: pass packets through clean

    # -- the transfer entry point (Link.post/transfer delegate here) ---------

    def post(
        self,
        nbytes: int,
        on_arrival: Optional[Callable[[], None]],
        payload: Any,
        extra_overhead_ns: float,
    ) -> "Event":
        link = self.link
        sim = link.sim
        if self.disabled:
            # Post-reset clean link: identical to the fault-free path.
            arrival = link._occupy(nbytes, extra_overhead_ns)
            return sim.trigger_at(arrival, payload, on_arrival, link._arrive_name)
        self.sent += 1
        if self.severed:
            self.lost += 1
            self._trace("blackholed", nbytes)
            return sim.event(name=f"{link.name}.lost")  # never triggers
        packet = HostPacket(self.tx_seq, nbytes)
        self.tx_seq += 1
        start = max(sim.now, link._free_at)
        serialization = (
            link.overhead_ns + extra_overhead_ns + nbytes / link.bandwidth_bpns
        )

        hold, deliver_off, wire_packets, dup, severed = self._attempts(
            start, serialization, packet
        )
        link._free_at = start + hold
        link.bytes_carried += nbytes * wire_packets
        link.transfers += wire_packets
        link.busy_ns += serialization * wire_packets

        if severed:
            self.lost += 1
            self.severed = True
            if self.injector is not None:
                self.injector.quarantine(self.device_id, severed=True)
            return sim.event(name=f"{link.name}.lost")  # never triggers

        arrival = start + deliver_off + link.latency_ns
        done = sim.event(name=f"{link.name}.arrive")

        def _deliver() -> None:
            if self.rx.accept(packet.seq):
                self.delivered += 1
                if on_arrival is not None:
                    on_arrival()
                done.trigger(payload)

        sim.call_at(arrival, _deliver)
        if dup:
            # The wire carries the packet once more; the tracker's
            # duplicate count confirms the dedup at the second arrival.
            sim.call_at(arrival + serialization, lambda: self.rx.accept(packet.seq))
        return done

    # -- attempt planning ----------------------------------------------------

    def _attempts(
        self, start: float, serialization: float, packet: HostPacket
    ) -> tuple[float, float, int, bool, bool]:
        """Play the ack/retransmit state machine for one packet.

        Returns ``(hold_ns, deliver_offset_ns, wire_packets, duplicated,
        severed)`` where ``hold_ns`` is how long the link stays reserved
        (head-of-line: serializations, timeouts, backoffs, resets),
        ``deliver_offset_ns`` the offset of the delivering attempt's last
        bit, and ``wire_packets`` the number of wire-level copies sent.
        """
        spec, plan, rng = self.spec, self.plan, self.rng
        p_fail = spec.drop + spec.corrupt
        t = 0.0
        wire_packets = 0
        retry = 0
        while True:
            # Device hang window / transient stall: the head of the FIFO
            # waits the window out before its bits hit the wire.
            if self.hang_window is not None:
                h0, h1 = self.hang_window
                if h0 <= start + t < h1:
                    self.stalls += 1
                    t = h1 - start
            dead = self.dead_at_ns is not None and start + t >= self.dead_at_ns
            t += serialization
            wire_packets += 1
            if dead:
                outcome = _DROP
            elif p_fail > 0.0:
                u = rng.random()
                if u < spec.drop:
                    outcome = _DROP
                elif u < p_fail:
                    outcome = _CORRUPT
                else:
                    outcome = _OK
            else:
                outcome = _OK

            if outcome == _OK:
                if spec.stall and rng.random() < spec.stall:
                    self.stalls += 1
                    t += spec.stall_ns
                dup = bool(spec.duplicate) and rng.random() < spec.duplicate
                if dup:
                    self.duplicates += 1
                deliver_off = t
                if dup:
                    t += serialization
                    wire_packets += 1
                return t, deliver_off, wire_packets, dup, False

            if outcome == _DROP:
                self.dropped += 1
                self._trace("drop", packet.seq, retry)
            else:
                # The packet physically arrived — corrupt a copy of its
                # encoded header and let the real CRC reject it.
                raw = bytearray(packet.encode())
                bit = int(rng.integers(0, len(raw) * 8))
                raw[bit >> 3] ^= 1 << (bit & 7)
                if HostPacket.decode(bytes(raw)) is None:
                    self.crc_rejects += 1
                else:  # pragma: no cover - CRC32 catches single-bit flips
                    self.crc_rejects += 1
                self._trace("crc_reject", packet.seq, retry)

            retry += 1
            if retry > plan.max_retries:
                if plan.on_exhaust == "sever":
                    self.severs += 1
                    self._trace("sever", packet.seq, retry - 1)
                    return t, 0.0, wire_packets, False, True
                # Reset recovery: quarantine the device, pay the reset +
                # retrain cost, deliver once on the clean link.
                self.resets += 1
                self.dead_at_ns = None  # a reset revives a dead device
                self.disabled = True    # subsequent packets ride clean
                self._trace("reset", packet.seq, retry - 1)
                if self.injector is not None:
                    self.injector.quarantine(self.device_id, severed=False)
                t += plan.reset_ns + serialization
                wire_packets += 1
                return t, t, wire_packets, False, False
            self.retries += 1
            t += plan.retry_timeout_ns + plan.backoff_for(retry)

    # -- reporting -----------------------------------------------------------

    def _trace(self, event: str, *detail: object) -> None:
        sim = self.link.sim
        if sim.tracer.wants("faults"):
            sim.tracer.emit(
                sim.now, "faults", self.device_id, event,
                self.link.name, *detail,
            )

    def metrics_snapshot(self) -> dict[str, float]:
        """Unlabeled ``faults.*`` series; the cable adds device/dir."""
        return {
            "faults.sent": float(self.sent),
            "faults.delivered": float(self.delivered),
            "faults.retries": float(self.retries),
            "faults.dropped": float(self.dropped),
            "faults.crc_rejects": float(self.crc_rejects),
            "faults.duplicates": float(self.duplicates),
            "faults.stalls": float(self.stalls),
            "faults.resets": float(self.resets),
            "faults.severs": float(self.severs),
            "faults.lost": float(self.lost),
        }


class FaultInjector:
    """Installs a :class:`FaultPlan` onto a host's PCIe cables.

    Only links whose effective spec (or device schedule) is non-null get
    a fault state — an empty plan installs nothing and the simulation
    stays bit-identical to a fault-free run. The injector is also the
    quarantine authority: the first retry-budget exhaustion on either
    direction of a cable quarantines that device (both directions change
    mode together), and :attr:`degraded_devices` reports the outcome.
    """

    def __init__(self, plan: FaultPlan, host: "Host"):
        self.plan = plan
        self.host = host
        self.states: dict[str, LinkFaultState] = {}
        #: device id -> "reset" | "severed"
        self.quarantined: dict[int, str] = {}
        # On a clustered fabric one injector covers every member host's
        # cables plus the inter-host links (which carry the same envelope
        # and retransmit machinery; their fault states use device id -1,
        # so exhaustion never quarantines a device).
        hosts = host.cluster.hosts if host.cluster is not None else [host]
        for member in hosts:
            for device_id, cable in member.cables.items():
                device_spec = plan.devices.get(device_id)
                if device_spec is not None and device_spec.is_null:
                    device_spec = None
                for link in (cable.up, cable.down):
                    spec = plan.for_link(link.name)
                    if spec.is_null and device_spec is None:
                        continue
                    state = LinkFaultState(
                        link, spec, plan,
                        device_id=device_id,
                        injector=self,
                        device_spec=device_spec,
                    )
                    link.faults = state
                    self.states[link.name] = state
            member.fault_injector = self
        if host.cluster is not None:
            for ih in host.cluster.links.values():
                spec = plan.for_link(ih.link.name)
                if spec.is_null:
                    continue
                state = LinkFaultState(
                    ih.link, spec, plan, device_id=-1,
                )
                ih.link.faults = state
                self.states[ih.link.name] = state

    # -- quarantine ----------------------------------------------------------

    def quarantine(self, device_id: int, severed: bool) -> None:
        """Retire a device's cable after retry-budget exhaustion."""
        if device_id in self.quarantined:
            return
        self.quarantined[device_id] = "severed" if severed else "reset"
        cable = self.host.cable_of(device_id)
        for link in (cable.up, cable.down):
            state = self.states.get(link.name)
            if state is None:
                continue
            if severed:
                state.severed = True
            else:
                state.disabled = True
        sim = self.host.sim
        if sim.tracer.wants("faults"):
            sim.tracer.emit(
                sim.now, "faults", device_id, "quarantine",
                "severed" if severed else "reset",
            )

    def route_severed(self, src_device: int, dst_device: int) -> bool:
        """True when either endpoint's cable is severed (route is down)."""
        return (
            self.quarantined.get(src_device) == "severed"
            or self.quarantined.get(dst_device) == "severed"
        )

    @property
    def degraded_devices(self) -> tuple[int, ...]:
        """Devices that exhausted a retry budget this run, sorted."""
        return tuple(sorted(self.quarantined))

    # -- reporting -----------------------------------------------------------

    def metrics_snapshot(self) -> dict[str, float]:
        """Injector-level series (per-link ``faults.*`` live on the cables)."""
        out = {"faults.devices_degraded": float(len(self.quarantined))}
        for device_id, mode in self.quarantined.items():
            out[f"faults.quarantined{{device={device_id},mode={mode}}}"] = 1.0
        return out

    def totals(self) -> dict[str, float]:
        """Aggregate ``faults.*`` counters over every protected link."""
        agg: dict[str, float] = {}
        for state in self.states.values():
            for key, value in state.metrics_snapshot().items():
                agg[key] = agg.get(key, 0.0) + value
        return agg
