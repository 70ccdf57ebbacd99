"""Run-wide observability: metrics, streaming traces, timers, logging.

The paper's argument is telemetry-shaped — threshold series, migration
counts, message breakdowns, per-operation latency — and this subpackage
makes the reproduction observable *while it runs* instead of only
post-hoc.  Latency has one model: causal spans.

* :mod:`repro.obs.spans` — :class:`SpanTracer`: causal operation spans
  with run-unique op ids threaded through protocol messages, in virtual
  time.  Spans go straight to their consumers: any tracer-protocol sink
  (``wants``/``record``) gets ``span_open``/``span_close`` calls, and an
  attached registry gets each closed span's duration in
  ``dsm_span_us{op_kind, node}``;
* :mod:`repro.obs.hist` — :class:`LatencyHistogram`: the one histogram
  type — deterministic, mergeable HDR-style log buckets with exact-rank
  p50/p95/p99/p999 — plus :class:`EpochSeries` throughput counters;
* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of labeled
  counters/gauges/:class:`LatencyHistogram` instruments with mergeable
  snapshots (cross-process aggregation for parallel sweeps);
* :mod:`repro.obs.export` — a streaming :class:`JsonlTraceWriter`
  (bounded-memory alternative to the in-memory
  :class:`~repro.trace.recorder.TraceRecorder`) plus
  :func:`load_trace` / :func:`iter_trace` / :func:`dump_trace`;
* :mod:`repro.obs.timers` — :class:`PhaseTimer`: wall-clock phases of a
  bench run;
* :mod:`repro.obs.logging` — a structured, level-gated
  :class:`RunLogger`.

Everything is opt-in: the simulator, network and protocol engines carry
``None`` handles by default and every instrumentation site sits behind a
cheap ``is not None`` (or pre-hoisted boolean) guard, so a run with
telemetry disabled pays nothing measurable.
"""

from repro.obs.export import (
    JsonlTraceWriter,
    TRACE_SCHEMA,
    dump_trace,
    iter_trace,
    load_trace,
)
from repro.obs.hist import EpochSeries, LatencyHistogram
from repro.obs.logging import LEVELS, NULL_LOGGER, RunLogger
from repro.obs.metrics import Counter, Gauge, MetricsRegistry
from repro.obs.spans import SPAN_KINDS, SpanTracer
from repro.obs.timers import PhaseTimer

__all__ = [
    "Counter",
    "EpochSeries",
    "Gauge",
    "JsonlTraceWriter",
    "LEVELS",
    "LatencyHistogram",
    "MetricsRegistry",
    "NULL_LOGGER",
    "PhaseTimer",
    "RunLogger",
    "SPAN_KINDS",
    "SpanTracer",
    "TRACE_SCHEMA",
    "dump_trace",
    "iter_trace",
    "load_trace",
]
