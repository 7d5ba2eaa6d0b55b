"""Policy-driven communication-scheme selection (per-route, per-message).

The paper's host path treats traffic *differently by class* — sync vs
bulk via the region registry (§3.1), small vs large via the
direct-transfer threshold (§3.3), scheme by scheme via the Fig 6b
crossovers — yet a fixed ``CommScheme`` freezes one choice for a whole
run. A :class:`SchemePolicy` lifts that choice into a first-class layer:
the scheme-aware selector consults the policy once per cross-device
message and dispatches onto the matching transport, so one run can ride
the best scheme at every message size.

Three policies ship:

* :class:`StaticPolicy` — the ``scheme=`` behaviour: one scheme for
  every message;
* :class:`ThresholdPolicy` — generalizes §3.3 into a three-band rule:
  the direct path below the small-message threshold, the cached-get
  scheme in the mid-band where its per-chunk protocol wins, and the
  vDMA scheme above the MPB-cliff-aware cutover (messages that no
  longer fit one communication-buffer chunk — ~8 kB — pipeline best
  through the vDMA engine);
* :class:`AdaptivePolicy` — closes the loop with feedback from completed
  sends: per (route, size-class) throughput EWMAs, deterministic
  probe-then-exploit selection.

Both end points of a message must agree on the transport; the selector
(:class:`repro.vscc.protocol.VsccSelector`) guarantees agreement by
journaling each directed pair's decisions — for every policy, static
ones included — so a policy is free to keep evolving state between
messages.

On a multi-host fabric every policy additionally answers the
**host-affinity** question for cross-host routes through its
``cross_host_affinity`` attribute: which host's communication task owns
the inter-host forward of a copy ("src" — the sender's host pushes, or
"dst" — the receiver's host pays the forwarding service). It is fixed
per policy, so both end points see the same answer.

Unpinned: ``SchemePolicy.schemes``/``choose``/``observe`` — the abstract
interface every policy overrides.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional, Sequence

from .schemes import CommScheme

__all__ = [
    "AdaptivePolicy",
    "Route",
    "SchemePolicy",
    "StaticPolicy",
    "ThresholdPolicy",
]


@dataclass(frozen=True)
class Route:
    """Shared-knowledge description of one cross-device path.

    Everything here is identical on both end points (device placement
    comes from the rank layout, ``chunk_bytes`` from the session-wide
    options), so a policy may condition on it without breaking the
    both-sides-agree contract of transport selection.
    """

    #: Device of the sending rank.
    src_device: int
    #: Device of the receiving rank.
    dst_device: int
    #: Single-transfer capacity of the communication buffer (bytes) —
    #: the MPB payload minus the user area; the "8 kB cliff" sits here.
    chunk_bytes: int
    #: Host of the sending device (0 on a single-host fabric).
    src_host: int = 0
    #: Host of the receiving device (0 on a single-host fabric).
    dst_host: int = 0

    @property
    def is_cross_host(self) -> bool:
        """Whether this route additionally crosses the inter-host tier."""
        return self.src_host != self.dst_host


def _check_affinity(value: str) -> str:
    if value not in ("src", "dst"):
        raise ValueError(
            f"cross_host_affinity must be 'src' or 'dst', got {value!r}"
        )
    return value


class SchemePolicy(abc.ABC):
    """Chooses the communication scheme of one cross-device message.

    ``choose`` may only depend on information both end points share:
    the ranks, the message size, the :class:`Route`, and any internal
    state the policy evolves *through the selector's decision journal*
    (the journal replays one decision to both sides, so internal state
    may change freely between messages).
    """

    #: Short identifier used in metrics and error messages.
    name = "abstract"

    #: Whether the selector should time completed sends and call
    #: :meth:`observe` — only feedback-driven policies pay that cost.
    wants_feedback = False

    #: Whether the host request scheduler may coalesce back-to-back vDMA
    #: descriptors for the same route into one engine pass. Off for
    #: :class:`StaticPolicy` so historic fingerprints stay bit-identical.
    coalesce_vdma = False

    #: Which host's communication task owns the inter-host forward of a
    #: cross-host copy: "src" or "dst". The one source of the answer for
    #: vDMA copies and RPC requests alike.
    cross_host_affinity = "src"

    @property
    @abc.abstractmethod
    def schemes(self) -> tuple[CommScheme, ...]:
        """Every scheme this policy may return (the transport set to
        build, and the host capabilities — communication-task
        extensions, FPGA fast write acks — the run must enable)."""

    @abc.abstractmethod
    def choose(
        self, src_rank: int, dst_rank: int, nbytes: int, route: Route
    ) -> CommScheme:
        """The scheme that should move this message."""

    def observe(
        self, route: Route, scheme: CommScheme, nbytes: int, elapsed_ns: float
    ) -> None:
        """Feedback hook: one completed send's route/scheme/size/time."""

    def rpc_scheme(self, rank: int, nbytes: int, route: Route) -> CommScheme:
        """The scheme that should carry one RPC request toward its host.

        The per-RPC analogue of :meth:`choose` for the dispatch path of
        :mod:`repro.apps.rpc`: ``route`` points from the client device
        to the dispatcher's home device, and the answer decides whether
        the request is *coalescible* — only requests mapped onto the
        vDMA scheme may share a descriptor (and pay its setup once).
        Every answer is journaled through the selector's decision
        counters (``policy.decisions{scheme=}``) and, for
        feedback-driven policies, fed back via :meth:`observe` with the
        end-to-end RPC latency — so an adaptive policy genuinely adapts
        to the RPC traffic mix. The default reuses :meth:`choose` with
        the client rank on both sides; policies may override for
        RPC-specific decisions.
        """
        return self.choose(rank, rank, nbytes, route)

    @property
    def static_scheme(self) -> Optional[CommScheme]:
        """The single scheme of a run-static policy, else ``None``."""
        return None


class StaticPolicy(SchemePolicy):
    """One scheme for every message.

    ``VSCCSystem(scheme=s)`` is sugar for ``VSCCSystem(policy=
    StaticPolicy(s))``. The selector journals its decisions like any
    other policy's; ``static_scheme`` additionally lets the system
    accept a ``direct_threshold`` override.
    """

    name = "static"

    def __init__(self, scheme: CommScheme, cross_host_affinity: str = "src"):
        if not isinstance(scheme, CommScheme):
            raise TypeError(f"StaticPolicy needs a CommScheme, got {scheme!r}")
        self.scheme = scheme
        self.cross_host_affinity = _check_affinity(cross_host_affinity)

    @property
    def schemes(self) -> tuple[CommScheme, ...]:
        return (self.scheme,)

    @property
    def static_scheme(self) -> Optional[CommScheme]:
        return self.scheme

    def choose(
        self, src_rank: int, dst_rank: int, nbytes: int, route: Route
    ) -> CommScheme:
        return self.scheme


class ThresholdPolicy(SchemePolicy):
    """Three-band size rule generalizing the §3.3 direct threshold.

    * ``nbytes <= DIRECT_BYTES`` (64 B) — route onto the vDMA scheme,
      whose per-scheme direct threshold (§3.3: 128 B) then engages the
      direct-transfer path: payload pushed by the core itself, no
      vDMA programming or cache machinery;
    * ``nbytes > route.chunk_bytes`` — the vDMA scheme: its
      double-buffered slots pipeline multi-chunk messages past the MPB
      cliff (§4.1). The cutover is the communication buffer's
      single-transfer capacity (7680 B on the default geometry), so
      exactly the messages that need more than one chunk — where the
      8 kB cliff would bite — go to the vDMA engine;
    * in between — the cached-get scheme (local put / remote get via
      the host software cache), whose announce+prefetch protocol wins
      the single-chunk band (Fig 6b crossover).
    """

    name = "threshold"

    #: Messages up to this many bytes take the vDMA scheme's direct path.
    DIRECT_BYTES = 64

    def __init__(self, cross_host_affinity: str = "src"):
        self.cross_host_affinity = _check_affinity(cross_host_affinity)

    @property
    def schemes(self) -> tuple[CommScheme, ...]:
        return (
            CommScheme.LOCAL_PUT_LOCAL_GET_VDMA,
            CommScheme.LOCAL_PUT_REMOTE_GET,
        )

    def choose(
        self, src_rank: int, dst_rank: int, nbytes: int, route: Route
    ) -> CommScheme:
        if nbytes <= self.DIRECT_BYTES or nbytes > route.chunk_bytes:
            return CommScheme.LOCAL_PUT_LOCAL_GET_VDMA
        return CommScheme.LOCAL_PUT_REMOTE_GET


class AdaptivePolicy(SchemePolicy):
    """Feedback-driven selection from per-route throughput EWMAs.

    Keyed by ``(route, size class)`` — size classes are power-of-two
    buckets (``nbytes.bit_length()``), matching how the Fig 6b curves
    cross at size boundaries, not at individual byte counts. Per key:

    * **probe** — each candidate scheme is tried once first, in
      declaration order (deterministic, no randomness: replays are
      bit-identical);
    * **exploit** — afterwards the scheme with the best throughput EWMA
      moves the message;
    * **re-probe** — every ``probe_every`` decisions one round-robin
      candidate is tried regardless, so a route whose relative costs
      change (congestion, degraded link) is re-learned instead of
      locked in.

    The selector feeds :meth:`observe` with completed sends.
    """

    name = "adaptive"

    #: Weight of a new throughput sample in a route's EWMA.
    ALPHA = 0.25

    def __init__(
        self,
        candidates: Sequence[CommScheme] = (
            CommScheme.LOCAL_PUT_REMOTE_GET,
            CommScheme.LOCAL_PUT_LOCAL_GET_VDMA,
        ),
        probe_every: int = 32,
        cross_host_affinity: str = "src",
    ):
        self.cross_host_affinity = _check_affinity(cross_host_affinity)
        candidates = tuple(candidates)
        if not candidates:
            raise ValueError("AdaptivePolicy needs at least one candidate scheme")
        if len(set(candidates)) != len(candidates):
            raise ValueError(f"duplicate candidate schemes: {candidates}")
        if probe_every < 0:
            raise ValueError(f"probe_every must be >= 0, got {probe_every}")
        self.candidates = candidates
        self.probe_every = probe_every
        #: (src_device, dst_device, size_class) -> {scheme: ewma bytes/ns}
        self._ewma: dict[tuple[int, int, int], dict[CommScheme, float]] = {}
        #: decision count per key (drives the re-probe cadence)
        self._decisions: dict[tuple[int, int, int], int] = {}

    wants_feedback = True
    coalesce_vdma = True

    @property
    def schemes(self) -> tuple[CommScheme, ...]:
        return self.candidates

    @staticmethod
    def _key(route: Route, nbytes: int) -> tuple[int, int, int]:
        return (route.src_device, route.dst_device, nbytes.bit_length())

    def choose(
        self, src_rank: int, dst_rank: int, nbytes: int, route: Route
    ) -> CommScheme:
        if len(self.candidates) == 1:
            return self.candidates[0]
        key = self._key(route, nbytes)
        count = self._decisions.get(key, 0)
        self._decisions[key] = count + 1
        table = self._ewma.get(key)
        if table is None:
            table = self._ewma[key] = {}
        for scheme in self.candidates:
            if scheme not in table:
                return scheme
        if self.probe_every and count % self.probe_every == 0:
            return self.candidates[
                (count // self.probe_every) % len(self.candidates)
            ]
        return max(self.candidates, key=lambda s: table[s])

    def observe(
        self, route: Route, scheme: CommScheme, nbytes: int, elapsed_ns: float
    ) -> None:
        if elapsed_ns <= 0.0:
            return
        key = self._key(route, nbytes)
        table = self._ewma.setdefault(key, {})
        throughput = nbytes / elapsed_ns
        prev = table.get(scheme)
        table[scheme] = (
            throughput
            if prev is None
            else prev + self.ALPHA * (throughput - prev)
        )
