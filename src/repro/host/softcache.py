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
``REG_CACHE_INV`` register) or announce the new message, which bumps the
entry's epoch.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

import numpy as np

from repro.scc.mpb import MpbAddr
from repro.sim.engine import Event, Simulator
from repro.sim.queue import SimQueue

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.scc.core import CoreEnv

    from .driver import Host

__all__ = ["CacheEntry", "HostMpbCache"]


class CacheEntry:
    """Host copy of one (in-flight) message in a source core's MPB."""

    def __init__(self, sim: Simulator, base: MpbAddr, length: int, epoch: int):
        self.base = base
        self.length = length
        self.epoch = epoch
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

    def wait_valid(self, end: int) -> Generator:
        while self.valid_upto < end:
            if self.invalidated:
                raise RuntimeError(
                    f"host cache entry for {self.base} invalidated mid-read"
                )
            yield self.progress


class HostMpbCache:
    """All cache entries of the communication task (one per source core)."""

    def __init__(self, host: "Host"):
        self.host = host
        self.sim = host.sim
        self._entries: dict[tuple[int, int], CacheEntry] = {}
        self._epoch = 0
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

        On a multi-host fabric the new epoch also drops any copy of the
        same source span a *peer host's* cache may hold (e.g. from an
        earlier demand fill on a cross-host receiver) — the drop is
        host-local directory metadata, not simulated traffic, and it
        lands strictly before the sender's flag can (the flag still has
        to cross the wire).
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
        self._epoch += 1
        old = self._entries.get((src.device, src.core))
        if old is not None:
            old.invalidated = True
            old.progress.pulse()
        entry = CacheEntry(self.sim, src, nbytes, self._epoch)
        self._entries[(src.device, src.core)] = entry
        # A foreign source is pulled by *its* host's DMA engine and the
        # granules forwarded here over the inter-host tier.
        src_host = self.host.host_for(src.device)
        dma = src_host.dmas[src.device]
        via = None
        if src_host is not self.host:
            via = self.host.cluster.link(src_host.host_id, self.host.host_id)
        self.sim.spawn(
            self._ramped_pull(dma, src, nbytes, entry, via=via),
            name=f"daemon:prefetch.d{src.device}c{src.core}",
        )
        return entry

    def _ramped_pull(self, dma, src: MpbAddr, nbytes: int, entry: CacheEntry,
                     via=None):
        """Prefetch with a ramped warm-up: small granules first.

        The first descriptors are deliberately short so the receiver's
        push stream starts early ("after a warmup phase answer remote
        memory requests of the receiver in parallel", §3.2); steady
        state uses the full DMA granule. With ``via`` set (an
        :class:`~repro.host.interhost.InterHostLink` from the source's
        host to this one) each pulled granule additionally rides the
        inter-host tier before it lands in the entry, the source host
        paying its forwarding service on the link.
        """
        full = self.host.params.granule
        if via is None:
            def make_sink(base: int):
                return lambda off, data: entry.sink(base + off, data)
        else:
            src_host_params = self.host.host_for(src.device).params

            def make_sink(base: int):
                def _sink(off: int, data) -> None:
                    via.link.post(
                        len(data),
                        on_arrival=lambda: entry.sink(base + off, data),
                        extra_overhead_ns=src_host_params.service_ns,
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
        # FIFO); only the final arrival is awaited.
        procs = [
            self.sim.spawn(
                dma.pull(src + seg_off, length, make_sink(seg_off), granule=granule),
                name="daemon:prefetch-seg",
            )
            for seg_off, length, granule in segments
        ]
        for proc in procs:
            yield proc

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
        capacity_groups = max(
            1, (pcie.response_buffer_lines * 32) // group
        )
        arrivals: SimQueue = SimQueue(self.sim, name="cache.push")
        credits: SimQueue = SimQueue(self.sim, name="cache.credit")
        for _ in range(capacity_groups):
            credits.put(None)

        def pusher() -> Generator:
            offset = 0
            while offset < length:
                size = min(group, length - offset)
                yield from credits.get()
                yield from entry.wait_valid(rel + offset + size)
                ev: Event = cable.down.post(size)
                arrivals.put((ev, offset, size))
                offset += size

        self.sim.spawn(pusher(), name="daemon:cache-pusher")

        out = np.empty(length, np.uint8)
        drained = 0
        line_ns = pcie.sif_buffer_read_ns
        while drained < length:
            ev, offset, size = yield from arrivals.get()
            lines = -(-size // 32)
            # Group present in the SIF response buffer, then drained by
            # the receiver core — one fused event-headed chain.
            yield (ev, lines * line_ns)
            out[offset : offset + size] = entry.buf[rel + offset : rel + offset + size]
            credits.put(None)
            drained += size
        return out
