"""Software cache of remote MPBs, maintained by the communication task.

Paper §3.1/§3.3 (Fig 4b): for the *local-put/remote-get* scheme the
sender announces a pending message (location + size, via memory-mapped
registers); the communication task prefetches the sender's MPB into a
host-side copy ("after a warm-up phase answer remote memory requests of
the receiver in parallel"), and pushes the data ahead of the receiver's
sequential reads into the receiving device's SIF response buffer. The
receiver then drains at SIF speed instead of paying a full inter-device
round trip per cache line.

Consistency is *relaxed and explicit*: the host copy is non-coherent; a
sender that rewrites its MPB must invalidate the stale host copy (the
``REG_CACHE_INV`` register) or announce the new message. An announce
marks the old entry invalidated, pulses it so a reader parked on it
wakes, and a new fill replaces it.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import TYPE_CHECKING, Generator, Optional

import numpy as np

from repro.scc.mpb import MpbAddr
from repro.sim.engine import Event, Record, Simulator
from repro.sim.resources import Link

from .dma import Transfer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.scc.core import CoreEnv

    from .driver import Host

__all__ = ["CacheEntry", "HostMpbCache"]


class CacheEntry:
    """Host copy of one (in-flight) message in a source core's MPB."""

    def __init__(self, sim: Simulator, base: MpbAddr, length: int):
        self.base = base
        self.length = length
        self.buf = np.zeros(length, np.uint8)
        self.valid_upto = 0  # contiguous prefix of ``buf`` that is valid
        self.progress = sim.signal(name=f"cache.{base.device}.{base.core}")
        self.invalidated = False

    def covers(self, addr: MpbAddr, length: int) -> bool:
        rel = addr.offset - self.base.offset
        return (
            addr.device == self.base.device
            and addr.core == self.base.core
            and rel >= 0
            and rel + length <= self.length
        )

    def sink(self, offset: int, data: np.ndarray) -> None:
        """DMA arrival callback: extend the valid prefix."""
        self.buf[offset : offset + len(data)] = data
        if offset <= self.valid_upto:
            self.valid_upto = max(self.valid_upto, offset + len(data))
        self.progress.pulse()


class HostMpbCache:
    """All cache entries of the communication task (one per source core)."""

    def __init__(self, host: "Host"):
        self.host = host
        self.sim = host.sim
        self._entries: dict[tuple[int, int], CacheEntry] = {}
        self.announces = 0
        self.demand_fills = 0
        self.invalidations = 0
        #: Receiver reads served from a prefetched (announced) entry.
        self.hits = 0
        #: Receiver reads that found no usable entry (demand fill).
        self.misses = 0
        #: Entries dropped because a *peer host's* cache took a new
        #: announce or invalidation for the same source span (multi-host
        #: consistency propagation; always 0 on a single host).
        self.peer_drops = 0

    def metrics_snapshot(self) -> dict[str, float]:
        """Cache effectiveness series (shared across devices, unlabeled).

        ``softcache.peer_drops`` is emitted only on a clustered host so
        single-host snapshots keep their historic key set.
        """
        out = {
            "softcache.hits": float(self.hits),
            "softcache.misses": float(self.misses),
            "softcache.announces": float(self.announces),
            "softcache.demand_fills": float(self.demand_fills),
            "softcache.invalidations": float(self.invalidations),
        }
        if self.host.cluster is not None:
            out["softcache.peer_drops"] = float(self.peer_drops)
        return out

    # -- producer side ------------------------------------------------------

    def announce(self, src: MpbAddr, nbytes: int) -> CacheEntry:
        """Sender-announced message: start prefetching it immediately.

        The source core's old entry is marked invalidated and pulsed, and
        a new fill replaces it. On a multi-host fabric the announce also
        drops any copy of the same source span a *peer host's* cache may
        hold (e.g. from an earlier demand fill on a cross-host receiver)
        — the drop is host-local directory metadata, not simulated
        traffic, and it lands strictly before the sender's flag can (the
        flag still has to cross the wire).
        """
        self.announces += 1
        self._drop_peers(src.device, src.core)
        return self._start_fill(src, nbytes)

    def _peer_caches(self) -> tuple["HostMpbCache", ...]:
        cluster = self.host.cluster
        if cluster is None:
            return ()
        return tuple(h.cache for h in cluster.hosts if h.cache is not self)

    def _drop_peers(self, device: int, core: int) -> None:
        for cache in self._peer_caches():
            entry = cache._entries.pop((device, core), None)
            if entry is not None:
                entry.invalidated = True
                entry.progress.pulse()
                cache.peer_drops += 1

    def _start_fill(self, src: MpbAddr, nbytes: int) -> CacheEntry:
        old = self._entries.get((src.device, src.core))
        if old is not None:
            old.invalidated = True
            old.progress.pulse()
        entry = CacheEntry(self.sim, src, nbytes)
        self._entries[(src.device, src.core)] = entry
        # A foreign source is pulled by *its* host's DMA engine and the
        # granules forwarded here over the inter-host tier.
        Transfer(
            self.sim,
            f"daemon:prefetch.d{src.device}c{src.core}",
            partial(self._ramped_pull, self.host.host_for(src.device), src, nbytes, entry),
        )
        return entry

    def _ramped_pull(self, src_host: "Host", src: MpbAddr, nbytes: int,
                     entry: CacheEntry) -> list:
        """Prefetch with a ramped warm-up: small granules first.

        The first descriptors are deliberately short so the receiver's
        push stream starts early ("after a warmup phase answer remote
        memory requests of the receiver in parallel", §3.2); steady
        state uses the full DMA granule. ``src_host`` (the host owning
        the source device) pulls every granule with its DMA engine and
        passes it to :meth:`~repro.host.driver.Host.forward` toward this
        host: a plain call when it is this host, the inter-host tier
        otherwise. Runs in the prefetch record's start slot and returns
        the segment pulls, which the record awaits in order.
        """
        full = self.host.params.granule
        dma = src_host.dmas[src.device]

        def make_sink(base: int):
            def _sink(off: int, data) -> None:
                src_host.forward(
                    self.host, len(data), lambda: entry.sink(base + off, data)
                )

            return _sink

        segments: list[tuple[int, int, int]] = []  # (offset, length, granule)
        offset = 0
        for size in (full // 4, full // 2):
            size -= size % 32
            if offset + size >= nbytes or size <= 0:
                break
            segments.append((offset, size, size))
            offset += size
        if offset < nbytes:
            segments.append((offset, nbytes - offset, full))
        # All segments are posted back-to-back (the link serializes them
        # FIFO).
        return [
            dma.pull(src + seg_off, length, make_sink(seg_off), granule=granule)
            for seg_off, length, granule in segments
        ]

    def invalidate(self, device: int, core: int) -> None:
        """Explicit consistency control from the owning core (§3.1).

        Propagates to peer hosts' caches on a multi-host fabric — the
        non-coherent host copies form one logical directory.
        """
        self.invalidations += 1
        entry = self._entries.pop((device, core), None)
        if entry is not None:
            entry.invalidated = True
            entry.progress.pulse()
        self._drop_peers(device, core)

    def entry_for(self, addr: MpbAddr, length: int) -> CacheEntry | None:
        entry = self._entries.get((addr.device, addr.core))
        if entry is not None and not entry.invalidated and entry.covers(addr, length):
            return entry
        return None

    # -- consumer side ----------------------------------------------------------

    def serve(self, env: "CoreEnv", addr: MpbAddr, length: int) -> Generator:
        """Receiver-side read of a remote MPB span, host-accelerated.

        Returns the bytes as an ndarray. Timing: one warm-up request
        round to the host, then push-ahead groups down the receiver's
        cable, drained from the SIF response buffer at SIF speed.
        """
        entry = self.entry_for(addr, length)
        if entry is None:
            # Prefetch miss (no announcement): demand-fill, still faster
            # than transparent per-line routing but pays the cold start.
            self.demand_fills += 1
            self.misses += 1
            entry = self._start_fill(addr, length)
        else:
            self.hits += 1
        host = self.host
        cable = host.cable_of(env.device.device_id)
        pcie = cable.params
        rel = addr.offset - entry.base.offset

        # Warm-up: the first read misses the SIF response buffer and
        # travels to the host as an explicit request. The mesh hop, the
        # up-link transfer and the host service are one fused chain; the
        # link reservation is evaluated at the accumulated post-mesh-hop
        # instant via ``at=`` (bitwise the sequential reservation). The
        # fault-injection wrapper needs the real per-yield path.
        if cable.up.faults is None:
            mesh_ns = env.device.sif.mesh_to_sif_ns(env.core_id, 16)
            at = self.sim.now + mesh_ns
            arrival = cable.up._occupy(16, at=at)
            yield (mesh_ns, arrival - at, host.params.service_ns)
        else:
            yield env.device.sif.mesh_to_sif_ns(env.core_id, 16)
            yield from cable.up.transfer(16)
            yield host.params.service_ns

        group = host.params.push_group
        pusher = _Pusher(
            self.sim, entry, cable.down, rel, length, group,
            max(1, (pcie.response_buffer_lines * 32) // group),
        )

        out = np.empty(length, np.uint8)
        drained = 0
        line_ns = pcie.sif_buffer_read_ns
        while drained < length:
            if pusher.posted:
                ev, offset, size = pusher.posted.popleft()
            else:
                ev, offset, size = yield pusher.next_posted()
            lines = -(-size // 32)
            # Group present in the SIF response buffer, then drained by
            # the receiver core — one fused event-headed chain.
            yield (ev, lines * line_ns)
            out[offset : offset + size] = entry.buf[rel + offset : rel + offset + size]
            pusher.credit()
            drained += size
        return out


class _Pusher(Record):
    """The push-ahead stream of one :meth:`HostMpbCache.serve` read.

    Per ``group``-byte slice it takes a response-buffer credit (the
    receiver returns one per drained group, :meth:`credit`), waits until
    the entry's valid prefix covers the slice, then posts the slice down
    ``link``. The receiver takes each ``(arrival, offset, size)`` from
    ``posted`` in order, or waits for it on :meth:`next_posted`.
    """

    __slots__ = (
        "entry", "link", "rel", "length", "group", "credits", "posted", "offset",
        "_holding", "_taker",
    )

    def __init__(
        self, sim: Simulator, entry: CacheEntry, link: Link, rel: int, length: int,
        group: int, credits: int,
    ):
        self.entry = entry
        self.link = link
        self.rel = rel
        self.length = length
        self.group = group
        self.credits = credits
        self.posted: deque = deque()
        self.offset = 0
        self._holding = False  # the slice at ``offset`` holds its credit
        self._taker: Optional[Event] = None
        Record.__init__(self, sim, "daemon:cache-pusher", self._push)

    def next_posted(self) -> Event:
        """An event triggered with the next group posted (``posted`` is empty)."""
        self._taker = taker = Event(self.sim, "cache.push.get")
        return taker

    def credit(self) -> None:
        self.credits += 1
        if not self.credits:  # the stream waits for this one
            self.sim.schedule(0.0, self, None)

    def _push(self, _) -> None:
        entry = self.entry
        while self.offset < self.length:
            size = min(self.group, self.length - self.offset)
            if not self._holding:
                self._holding = True
                self.credits -= 1
                if self.credits < 0:
                    return  # parked: credit() wakes it
            if entry.valid_upto < self.rel + self.offset + size:
                if entry.invalidated:
                    raise RuntimeError(
                        f"host cache entry for {entry.base} invalidated mid-read"
                    )
                self._wait(entry.progress, self._push)
                return
            posted = (self.link.post(size), self.offset, size)
            taker = self._taker
            if taker is None:
                self.posted.append(posted)
            else:
                self._taker = None
                taker.trigger(posted)
            self._holding = False
            self.offset += size
        self._finish()
