"""Labeled run metrics: counters, gauges and histograms in a registry.

The registry is the numeric backbone of the observability layer: the
protocol, network and bench executor record into it when (and only when)
a registry is attached, so the disabled path costs one ``is not None``
check per site.  Everything the paper plots is expressible as a metric —
threshold values, redirection chain lengths, diff sizes, per-operation
span latencies in simulated microseconds, migration counts — labeled by
node, object or policy as appropriate.  Histograms are
:class:`~repro.obs.hist.LatencyHistogram` instances, the same type the
span analytics use.

Design constraints:

* **hot-path cheap** — instruments are plain ``__slots__`` objects whose
  ``inc``/``set``/``record`` are attribute arithmetic; callers that sit
  on hot paths cache the instrument handle once instead of re-resolving
  the ``(name, labels)`` key per event;
* **cross-process aggregation** — :meth:`MetricsRegistry.snapshot` is a
  stable, JSON-friendly plain structure; :meth:`MetricsRegistry.merge`
  folds another registry *or* a snapshot dict in (counters and
  histograms add, gauges last-write-wins), so a parallel sweep's
  per-process registries reduce to one cluster-wide view;
* **deterministic output** — snapshots sort by ``(name, labels)``, so
  two runs of the same spec produce byte-identical snapshots.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.obs.hist import LatencyHistogram

_LabelsKey = tuple[tuple[str, Any], ...]


class Counter:
    """A monotonically increasing count (events, messages, migrations)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, n: float = 1) -> None:
        """Add ``n`` (must be non-negative) to the counter."""
        if n < 0:
            raise ValueError(f"cannot decrement a counter by {n}")
        self.value += n


class Gauge:
    """A point-in-time value (live threshold, queue depth, home count)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge with the latest observation."""
        self.value = value


def _labels_key(labels: Mapping[str, Any]) -> _LabelsKey:
    return tuple(sorted(labels.items()))


class MetricsRegistry:
    """Registry of labeled instruments with mergeable snapshots.

    Instruments are created on first use and memoized by
    ``(name, sorted labels)``::

        reg = MetricsRegistry()
        reg.counter("dsm_migrations_total", node=3).inc()
        reg.histogram("dsm_span_us", op_kind="read_miss", node=3).record(412.5)
        reg.gauge("dsm_threshold", oid=7).set(2.0)

    ``snapshot()`` emits a plain sorted dict; ``merge()`` folds in another
    registry or snapshot (counters/histograms add, gauges last-write-wins);
    ``from_snapshot()`` rebuilds a registry, so snapshots shipped across
    process boundaries by the parallel executor aggregate losslessly.
    """

    def __init__(self) -> None:
        self._counters: dict[tuple[str, _LabelsKey], Counter] = {}
        self._gauges: dict[tuple[str, _LabelsKey], Gauge] = {}
        self._histograms: dict[tuple[str, _LabelsKey], LatencyHistogram] = {}

    # -- instrument accessors ---------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        """The counter registered under ``name`` + ``labels`` (create once)."""
        key = (name, _labels_key(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """The gauge registered under ``name`` + ``labels`` (create once)."""
        key = (name, _labels_key(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge()
        return instrument

    def histogram(self, name: str, **labels: Any) -> LatencyHistogram:
        """The histogram registered under ``name`` + ``labels`` (create once)."""
        key = (name, _labels_key(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = LatencyHistogram()
        return instrument

    # -- introspection ------------------------------------------------------

    def counter_value(self, name: str, **labels: Any) -> float:
        """Current value of a counter (0 if never touched)."""
        entry = self._counters.get((name, _labels_key(labels)))
        return entry.value if entry is not None else 0

    def counter_total(self, name: str) -> float:
        """Sum of a counter over all label sets (0 if never touched)."""
        return sum(
            c.value for (n, _), c in self._counters.items() if n == name
        )

    def gauge_value(self, name: str, **labels: Any) -> float:
        """Current value of a gauge (0.0 if never touched)."""
        entry = self._gauges.get((name, _labels_key(labels)))
        return entry.value if entry is not None else 0.0

    def gauge_total(self, name: str) -> float:
        """Sum of a gauge over all label sets (0.0 if never touched).

        Meaningful for per-node resource gauges (arena bytes, cache
        entries) whose cluster-wide footprint is the sum over nodes.
        """
        return sum(
            g.value for (n, _), g in self._gauges.items() if n == name
        )

    def __len__(self) -> int:
        return (
            len(self._counters) + len(self._gauges) + len(self._histograms)
        )

    # -- snapshot / merge ---------------------------------------------------

    def snapshot(self) -> dict:
        """Stable, JSON-friendly copy of every instrument.

        Entries are sorted by ``(name, labels)``; two identical runs
        produce identical snapshots.
        """
        def sort_key(item):
            (name, labels), _ = item
            return (name, labels)

        return {
            "counters": [
                {"name": name, "labels": dict(labels), "value": c.value}
                for (name, labels), c in sorted(
                    self._counters.items(), key=sort_key
                )
            ],
            "gauges": [
                {"name": name, "labels": dict(labels), "value": g.value}
                for (name, labels), g in sorted(
                    self._gauges.items(), key=sort_key
                )
            ],
            "histograms": [
                {"name": name, "labels": dict(labels), **h.to_dict()}
                for (name, labels), h in sorted(
                    self._histograms.items(), key=sort_key
                )
            ],
        }

    def merge(self, other: "MetricsRegistry | dict") -> "MetricsRegistry":
        """Fold ``other`` (a registry or a snapshot dict) into this one.

        Counters and histograms accumulate; gauges take ``other``'s value
        (last write wins).  Histograms merge by integer bucket and tick
        addition, so the result does not depend on merge order.
        Returns ``self`` for chaining.
        """
        snap = other.snapshot() if isinstance(other, MetricsRegistry) else other
        for entry in snap.get("counters", ()):
            self.counter(entry["name"], **entry["labels"]).inc(entry["value"])
        for entry in snap.get("gauges", ()):
            self.gauge(entry["name"], **entry["labels"]).set(entry["value"])
        for entry in snap.get("histograms", ()):
            self.histogram(entry["name"], **entry["labels"]).merge(
                LatencyHistogram.from_dict(entry)
            )
        return self

    @classmethod
    def from_snapshot(cls, snap: dict) -> "MetricsRegistry":
        """Rebuild a registry from a :meth:`snapshot` dict."""
        return cls().merge(snap)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<MetricsRegistry counters={len(self._counters)} "
            f"gauges={len(self._gauges)} histograms={len(self._histograms)}>"
        )
