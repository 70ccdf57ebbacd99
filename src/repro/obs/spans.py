"""Causal operation spans over the trace stream.

A *span* brackets one logical DSM operation — a read/write miss, a diff
flush, a home migration, a redirection hop, a lock acquire/release, a
barrier wait, a shipped computation — in **virtual time**.  Each span
gets a run-unique integer ``op`` id from a single monotonically
increasing counter shared by every engine in the run; the id is threaded
through protocol messages and pending queues so events caused by the
operation on *other* nodes link back via ``parent`` → a reconstructable
causal tree per operation.

Spans are the one latency model of a run, with two kinds of consumer:

* a **tracer sink** — anything implementing the tracer protocol
  (``wants(kind)`` / ``record(kind, time_us, oid, node, **detail)``):
  :class:`~repro.trace.recorder.TraceRecorder`,
  :class:`~repro.obs.export.JsonlTraceWriter`, or an online folder such
  as the serving tier's request collector.  Each span reaches it as two
  calls:

  ``span_open``
      ``detail = {"op": id, "op_kind": kind, "parent": id-or-None, ...}``
  ``span_close``
      ``detail = {"op": id, "op_kind": kind, ...}``

* a **metrics registry** — each closed span's duration is recorded into
  ``dsm_span_us{op_kind=..., node=<opening node>}``, so the registry's
  latency histograms are views of the same spans a trace carries.

Determinism: ids come from deterministic allocation order (the simulator
dispatches events in a bit-identical order under both backends), and
this module never consults the wall clock — virtual timestamps are
passed in by the caller (``tests/test_seed_discipline.py`` audits this
file for wall-clock use).
"""

from __future__ import annotations

from typing import Any

__all__ = ["SPAN_KINDS", "SPAN_OPEN", "SPAN_CLOSE", "SpanTracer"]

#: Logical operation kinds a span may carry (``op_kind`` detail field).
#: ``request`` is the application-level kind: one serving-tier request
#: (open before the guarding lock is acquired, closed after release), so
#: its duration is the end-to-end request latency including lock wait
#: and every coherence fault the request triggered.
SPAN_KINDS = frozenset(
    {
        "read_miss",
        "write_miss",
        "diff_flush",
        "migration",
        "redirect_hop",
        "lock_acquire",
        "lock_release",
        "barrier_wait",
        "ship",
        "request",
    }
)

#: Trace-event kinds emitted by this module (registered in repro.trace.events).
SPAN_OPEN = "span_open"
SPAN_CLOSE = "span_close"


class SpanTracer:
    """Allocates run-unique op ids and hands each span to its consumers.

    One ``SpanTracer`` is shared by all engines of a run (constructed in
    :class:`~repro.gos.space.GlobalObjectSpace`), which is what makes the
    ids run-unique.  ``tracer`` is kept only when it wants both span
    kinds; ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`)
    receives every closed span's duration.  ``enabled`` is resolved once
    at construction — true when either consumer is present — so hot
    paths can guard on a cached ``None``-or-tracer reference.
    """

    __slots__ = ("tracer", "metrics", "enabled", "_next_id", "_opened")

    def __init__(self, tracer: Any, metrics: Any = None) -> None:
        if tracer is not None and not (
            tracer.wants(SPAN_OPEN) and tracer.wants(SPAN_CLOSE)
        ):
            tracer = None
        self.tracer = tracer
        self.metrics = metrics
        self.enabled = tracer is not None or metrics is not None
        self._next_id = 0
        #: op -> (kind, open time, opening node) of spans still open;
        #: filled only when a registry needs the durations.
        self._opened: dict[int, tuple[str, float, int]] = {}

    @property
    def issued(self) -> int:
        """Number of span ids handed out so far."""
        return self._next_id

    def open(
        self,
        op_kind: str,
        time_us: int,
        oid: int,
        node: int,
        parent: int | None = None,
        **detail: Any,
    ) -> int:
        """Open a span and return its run-unique op id."""
        if op_kind not in SPAN_KINDS:
            raise ValueError(f"unknown span kind {op_kind!r}")
        op = self._next_id
        self._next_id = op + 1
        if self.metrics is not None:
            self._opened[op] = (op_kind, time_us, node)
        if self.tracer is not None:
            self.tracer.record(
                SPAN_OPEN,
                time_us,
                oid,
                node,
                op=op,
                op_kind=op_kind,
                parent=parent,
                **detail,
            )
        return op

    def close(
        self,
        op: int,
        op_kind: str,
        time_us: int,
        oid: int,
        node: int,
        **detail: Any,
    ) -> None:
        """Close a previously opened span.

        The registry records the duration under the kind and node the
        span was opened with; a second close of the same op is ignored
        there, as trace analytics ignore it.
        """
        if op_kind not in SPAN_KINDS:
            raise ValueError(f"unknown span kind {op_kind!r}")
        if self.metrics is not None:
            opened = self._opened.pop(op, None)
            if opened is not None:
                open_kind, open_us, open_node = opened
                self.metrics.histogram(
                    "dsm_span_us", op_kind=open_kind, node=open_node
                ).record(time_us - open_us)
        if self.tracer is not None:
            self.tracer.record(
                SPAN_CLOSE,
                time_us,
                oid,
                node,
                op=op,
                op_kind=op_kind,
                **detail,
            )

    def completed(
        self,
        op_kind: str,
        open_us: int,
        close_us: int,
        oid: int,
        node: int,
        parent: int | None = None,
        **detail: Any,
    ) -> int:
        """Record a span whose extent is only known after the fact.

        Used for redirection hops: the hop's duration is measured when
        the redirect reply arrives, so both events are recorded then —
        the ``span_open`` carries the earlier send timestamp.  Trace
        consumers must therefore sort by time rather than assume the
        stream is monotonic across kinds.
        """
        op = self.open(op_kind, open_us, oid, node, parent=parent, **detail)
        self.close(op, op_kind, close_us, oid, node)
        return op
