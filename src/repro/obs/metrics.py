"""Metrics series keys, snapshot plumbing and a typed-instrument registry.

The paper's whole argument is quantitative — which scheme wins at which
message size, where the 8 kB MPB cliff bites, how much of the
hardware-accelerated bound the software cache recovers — so every
instrumented component exposes its numbers through one uniform surface
instead of ad-hoc accessors:

* **metric series** are named like ``pcie.bytes{device=0,dir=up}`` —
  a dotted metric name plus sorted ``key=value`` labels;
* every instrumented component implements
  ``metrics_snapshot() -> dict[str, float]`` over such keys, read from
  plain attribute counters (``Link.bytes_carried`` and friends) that
  are always maintained — single adds, read lazily by the snapshot.

A :class:`MetricsRegistry` holds *typed instruments* (:class:`Counter`,
:class:`Gauge`, :class:`Histogram`) that always record; the service
core (:mod:`repro.serve.core`) keeps its job counters, queue gauges and
latency histograms in one. Simulated runs need none: their series are
the components' snapshots.

Unpinned: ``Histogram.percentile``/``percentiles`` — no pinned run
snapshots a histogram that holds samples; ``tests/obs`` and the serve
suites (the service's per-tenant latency summary) read them.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "format_key",
    "label_keys",
    "merge_snapshots",
    "parse_key",
    "percentile",
]


def format_key(name: str, labels: Mapping[str, object] | None = None) -> str:
    """Canonical series key: ``name{k=v,...}`` with labels sorted by key."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def percentile(ordered: Sequence[float], p: float) -> float:
    """Exact ``p``-th percentile of ascending, non-empty ``ordered``.

    Linear interpolation between the two closest ranks; ``p`` must lie
    in [0, 100] (``ValueError`` otherwise).
    """
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    if not ordered:
        raise ValueError("percentile of an empty sample")
    pos = p / 100.0 * (len(ordered) - 1)
    lo = int(pos)
    if lo + 1 >= len(ordered):
        return ordered[-1]
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[lo + 1] * frac


def parse_key(key: str) -> tuple[str, dict[str, str]]:
    """Inverse of :func:`format_key` (labels come back as strings)."""
    if not key.endswith("}") or "{" not in key:
        return key, {}
    name, _, inner = key.partition("{")
    labels = {}
    for part in inner[:-1].split(","):
        if part:
            k, _, v = part.partition("=")
            labels[k] = v
    return name, labels


def label_keys(snapshot: Mapping[str, float], **labels: object) -> dict[str, float]:
    """Re-key a snapshot, merging ``labels`` into every series.

    Aggregators use this to qualify a leaf component's snapshot with the
    labels only they know (``label_keys(link_snap, device=3, dir="up")``).
    Labels already present on a key win over the new ones.
    """
    out = {}
    for key, value in snapshot.items():
        name, existing = parse_key(key)
        merged = {**labels, **existing}
        out[format_key(name, merged)] = value
    return out


def merge_snapshots(snapshots: Iterable[Mapping[str, float]]) -> dict[str, float]:
    """Merge component snapshots; identical series keys are summed."""
    out: dict[str, float] = {}
    for snap in snapshots:
        for key, value in snap.items():
            out[key] = out.get(key, 0.0) + float(value)
    return out


class _Instrument:
    """Common base: a named, labeled series."""

    __slots__ = ("key",)

    def __init__(self, key: str):
        self.key = key


class Counter(_Instrument):
    """Monotonic accumulator (events, bytes)."""

    __slots__ = ("value",)

    def __init__(self, key: str):
        super().__init__(key)
        self.value = 0.0

    def inc(self) -> None:
        self.value += 1.0


class Gauge(_Instrument):
    """Last-value instrument (queue depth, in-flight copies)."""

    __slots__ = ("value",)

    def __init__(self, key: str):
        super().__init__(key)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram(_Instrument):
    """Sample distribution with exact percentiles.

    Simulated runs produce at most a few hundred thousand samples, so
    the histogram keeps them all and computes exact order statistics —
    no bucket-boundary tuning, and tests can assert precise values.
    """

    __slots__ = ("samples", "total")

    def __init__(self, key: str):
        super().__init__(key)
        self.samples: list[float] = []
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.samples.append(float(value))
        self.total += value

    @property
    def count(self) -> int:
        return len(self.samples)

    def percentile(self, p: float) -> float:
        """Exact percentile by linear interpolation; ``p`` in [0, 100]."""
        if not self.samples:
            raise ValueError(f"histogram {self.key!r} has no samples")
        return percentile(sorted(self.samples), p)

    def percentiles(self, ps: Iterable[float]) -> dict[str, float]:
        """Several exact percentiles at once, keyed ``"p50"``/``"p99"``/…

        The service layer reports latency summaries per tenant this way
        (``serve.job_latency_ms{tenant=...}``).
        """
        return {f"p{p:g}": self.percentile(p) for p in ps}


class MetricsRegistry:
    """Typed instruments keyed by (name, labels).

    Asking twice for the same series returns the same instrument, so
    components can create instruments eagerly at construction and share
    them where topology overlaps.
    """

    #: Percentiles a histogram expands to in :meth:`snapshot`.
    SNAPSHOT_PERCENTILES = (50.0, 95.0, 99.0)

    def __init__(self):
        self._series: dict[str, _Instrument] = {}

    # -- instrument construction ------------------------------------------------

    def _get(self, cls, name: str, labels: Mapping[str, object]) -> _Instrument:
        key = format_key(name, labels)
        inst = self._series.get(key)
        if inst is None:
            inst = cls(key)
            self._series[key] = inst
        elif not isinstance(inst, cls):
            raise TypeError(
                f"series {key!r} already registered as {type(inst).__name__}, "
                f"requested {cls.__name__}"
            )
        return inst

    def counter(self, name: str, **labels: object) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: object) -> Histogram:
        return self._get(Histogram, name, labels)

    # -- export ---------------------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Flatten every instrument to ``{series_key: float}``.

        Histograms expand into ``.count``/``.sum``/``.pNN`` sub-series
        (suffix applied to the metric name, labels preserved).
        """
        out: dict[str, float] = {}
        for key, inst in self._series.items():
            if isinstance(inst, Histogram):
                name, labels = parse_key(key)
                out[format_key(f"{name}.count", labels)] = float(inst.count)
                out[format_key(f"{name}.sum", labels)] = inst.total
                if inst.count:
                    for p in self.SNAPSHOT_PERCENTILES:
                        out[format_key(f"{name}.p{p:g}", labels)] = inst.percentile(p)
            else:
                out[key] = inst.value
        return out

