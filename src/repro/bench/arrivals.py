"""Open-loop traffic generation for the RPC workload family.

Every app the repo grew before this module is *closed-loop*: a rank
issues a message, blocks on the reply, issues the next one. Closed
loops self-throttle — the offered load collapses to whatever the system
can serve — so they can never show the queueing behaviour a service
under "heavy traffic from millions of users" actually exhibits. The
processes here are **open-loop**: request *i* is issued at its arrival
instant whether or not request *i-1* completed, so backlog, coalescing
opportunity and tail latency all become visible.

Everything is seed-deterministic: each rank draws from its own
``numpy`` :func:`~numpy.random.default_rng` sub-stream seeded by
``(seed, rank)``, so a trace is a pure function of its parameters —
replayable bit for bit on any kernel backend, which is what lets the
RPC golden/bit-identity suites pin outcome digests.

Two interarrival processes (Poisson and bursty on/off) and a
bounded-Pareto heavy-tail size distribution cover the canonical
datacenter traffic shapes; :func:`generate_calls` turns them into a
concrete list of :class:`RpcCall` records, and :func:`golden_trace` is
the fixed 200-request trace the acceptance suite digests.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "BurstyArrivals",
    "ParetoSizes",
    "PoissonArrivals",
    "RpcCall",
    "UniformSizes",
    "calls_digest",
    "generate_calls",
    "golden_trace",
]


class RpcCall(NamedTuple):
    """One request/response exchange of an open-loop RPC trace.

    ``req_id`` is globally unique and stable (rank-prefixed, no sorting
    involved); ``issue_ns`` is the absolute arrival instant the client
    must honour. ``priority`` marks sync-class requests that ride the
    host scheduler's sync lane and act as coalescing barriers.

    A NamedTuple rather than a frozen dataclass: a pass builds one per
    call and rebuilds them per rate point, and the dataclass's
    ``object.__setattr__`` per field costs about three times as much.
    """

    req_id: int
    rank: int
    issue_ns: float
    req_bytes: int
    resp_bytes: int
    method: str
    priority: bool = False


# -- interarrival processes ----------------------------------------------------


@dataclass(frozen=True)
class PoissonArrivals:
    """Memoryless arrivals: exponential gaps with mean ``mean_gap_ns``."""

    mean_gap_ns: float = 4000.0

    def __post_init__(self) -> None:
        if self.mean_gap_ns <= 0:
            raise ValueError(f"mean_gap_ns must be positive, got {self.mean_gap_ns}")

    def gaps(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.exponential(self.mean_gap_ns, size=n)


@dataclass(frozen=True)
class BurstyArrivals:
    """On/off arrivals: dense bursts separated by long idle gaps.

    Burst lengths are geometric with mean ``burst_mean`` calls; inside a
    burst gaps are exponential with mean ``on_gap_ns`` (tight — this is
    where coalescing opportunity comes from), and each burst boundary
    inserts an exponential idle period with mean ``off_gap_ns``.
    """

    on_gap_ns: float = 400.0
    off_gap_ns: float = 40_000.0
    burst_mean: float = 8.0

    def __post_init__(self) -> None:
        if self.on_gap_ns <= 0 or self.off_gap_ns <= 0:
            raise ValueError("on_gap_ns and off_gap_ns must be positive")
        if self.burst_mean < 1.0:
            raise ValueError(f"burst_mean must be >= 1, got {self.burst_mean}")

    def gaps(self, n: int, rng: np.random.Generator) -> np.ndarray:
        out = np.empty(n)
        left_in_burst = 0
        for i in range(n):
            if left_in_burst <= 0:
                left_in_burst = int(rng.geometric(1.0 / self.burst_mean))
                out[i] = rng.exponential(self.off_gap_ns)
            else:
                out[i] = rng.exponential(self.on_gap_ns)
            left_in_burst -= 1
        return out


# -- size distributions --------------------------------------------------------


@dataclass(frozen=True)
class UniformSizes:
    """Uniform integer sizes in ``[lo, hi]``."""

    lo: int = 32
    hi: int = 4096

    def __post_init__(self) -> None:
        if not 1 <= self.lo <= self.hi:
            raise ValueError(f"need 1 <= lo <= hi, got [{self.lo}, {self.hi}]")

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.integers(self.lo, self.hi, size=n, endpoint=True)


@dataclass(frozen=True)
class ParetoSizes:
    """Bounded Pareto (heavy tail): mostly small, occasionally huge.

    Inverse-CDF sampling of a Pareto(``alpha``) truncated to
    ``[floor_bytes, cap_bytes]`` — the textbook model for RPC payload
    sizes, where the p99 request is orders of magnitude larger than the
    median and the cap keeps traces bounded.
    """

    alpha: float = 1.3
    floor_bytes: int = 24
    cap_bytes: int = 65536

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not 1 <= self.floor_bytes < self.cap_bytes:
            raise ValueError(
                f"need 1 <= floor_bytes < cap_bytes, got "
                f"[{self.floor_bytes}, {self.cap_bytes}]"
            )

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        lo = float(self.floor_bytes)
        hi = float(self.cap_bytes)
        u = rng.random(n)
        ratio = (lo / hi) ** self.alpha
        sizes = lo / (1.0 - u * (1.0 - ratio)) ** (1.0 / self.alpha)
        return np.minimum(sizes, hi).astype(np.int64)


# -- trace generation ----------------------------------------------------------

#: Rank prefix stride of ``req_id``: a rank's call indices stay below it.
_ID_STRIDE = 1_000_000


def generate_calls(
    ranks: Sequence[int],
    calls_per_rank: int,
    arrivals,
    req_sizes,
    resp_sizes,
    seed: int = 0,
    n_methods: int = 8,
    priority_every: int = 0,
) -> list[RpcCall]:
    """Build a deterministic open-loop trace over ``ranks``.

    Each rank gets an independent arrival/size sub-stream seeded by
    ``(seed, rank)``, so adding or dropping a rank never perturbs the
    others' draws. ``priority_every > 0`` marks every k-th call of each
    rank as priority (sync-lane) traffic. The returned list is sorted
    by rank then per-rank issue order — exactly the order each client
    issues in.
    """
    if calls_per_rank < 1:
        raise ValueError(f"calls_per_rank must be >= 1, got {calls_per_rank}")
    if calls_per_rank > _ID_STRIDE:
        # Past the stride one rank's req_ids run into the next rank's.
        raise ValueError(
            f"calls_per_rank must be <= {_ID_STRIDE}, got {calls_per_rank}"
        )
    if n_methods < 1:
        raise ValueError(f"n_methods must be >= 1, got {n_methods}")
    if len(set(ranks)) != len(ranks):
        raise ValueError(f"duplicate ranks in {ranks!r}")
    calls: list[RpcCall] = []
    for rank in ranks:
        rng = np.random.default_rng([seed, rank])
        gaps = arrivals.gaps(calls_per_rank, rng)
        req = req_sizes.draw(calls_per_rank, rng)
        resp = resp_sizes.draw(calls_per_rank, rng)
        methods = rng.integers(0, n_methods, size=calls_per_rank)
        now = 0.0
        for i in range(calls_per_rank):
            now += float(gaps[i])
            calls.append(
                RpcCall(
                    req_id=rank * _ID_STRIDE + i,
                    rank=rank,
                    issue_ns=now,
                    req_bytes=int(req[i]),
                    resp_bytes=int(resp[i]),
                    method=f"m{int(methods[i])}",
                    priority=bool(priority_every and (i + 1) % priority_every == 0),
                )
            )
    return calls


def golden_trace(ranks: Sequence[int] = (0, 1, 2, 3)) -> list[RpcCall]:
    """The fixed 200-request acceptance trace (50 calls × 4 ranks).

    Pinned parameters — any change to the generator that moves one draw
    shows up as a digest mismatch in ``tests/apps/test_rpc.py``.
    """
    return generate_calls(
        ranks=ranks,
        calls_per_rank=50,
        arrivals=PoissonArrivals(mean_gap_ns=6000.0),
        req_sizes=ParetoSizes(alpha=1.3, floor_bytes=24, cap_bytes=16384),
        resp_sizes=ParetoSizes(alpha=1.2, floor_bytes=48, cap_bytes=32768),
        seed=2015,
        n_methods=6,
        priority_every=10,
    )


def calls_digest(calls: Iterable[RpcCall]) -> str:
    """16-hex-char digest over the semantic content of a trace."""
    rows = sorted(
        (c.req_id, c.rank, round(c.issue_ns, 6), c.req_bytes, c.resp_bytes,
         c.method, c.priority)
        for c in calls
    )
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]
