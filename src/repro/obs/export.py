"""Streaming JSONL trace export and import.

A :class:`JsonlTraceWriter` is a drop-in for
:class:`~repro.trace.recorder.TraceRecorder` at every protocol record
site (it implements the same ``wants(kind)`` / ``record(...)`` tracer
protocol) but streams events to disk instead of accumulating them in
memory — the bounded-memory path for long runs with full ``kinds``.

File format (``repro-trace-v1``): one JSON object per line.  The first
line is a meta header ::

    {"schema": "repro-trace-v1", "kinds": ["decision", "migration", ...]}

and every following line is one event ::

    {"t": 10432.5, "kind": "migration", "oid": 3, "node": 0,
     "detail": {"old_home": 0, "new_home": 2, "frozen_threshold": 2.0}}

:func:`load_trace` round-trips a file back into an in-memory
:class:`~repro.trace.recorder.TraceRecorder`, so every query helper
(``migrations``, ``home_path``, ``threshold_series``, ``of_kind``)
works identically on a loaded trace; :func:`iter_trace` streams events
without materialising the list; :func:`dump_trace` exports an in-memory
recorder to the same format.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, Iterator

from repro.trace.events import KINDS, TraceEvent
from repro.trace.recorder import TraceRecorder

#: Schema tag written to (and required of) every trace file's meta line.
TRACE_SCHEMA = "repro-trace-v1"

#: Events buffered before an implicit flush to the underlying file.
DEFAULT_FLUSH_EVERY = 512


def _jsonable(value):
    """JSON encoder fallback: unwrap numpy scalars, stringify the rest."""
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    return str(value)


class JsonlTraceWriter:
    """Streams trace events to a JSONL file with bounded memory.

    Implements the tracer protocol (``wants``/``record``) so it can be
    passed wherever a :class:`~repro.trace.recorder.TraceRecorder` is
    accepted (``DistributedJVM(tracer=...)``).  Events are buffered and
    flushed every ``flush_every`` records and on :meth:`close`; use it as
    a context manager to guarantee the file is finalized::

        with JsonlTraceWriter("run.jsonl", kinds=["migration"]) as sink:
            DistributedJVM(..., tracer=sink).run(app)
    """

    def __init__(
        self,
        path: str,
        kinds: Iterable[str] | None = None,
        flush_every: int = DEFAULT_FLUSH_EVERY,
    ) -> None:
        if flush_every < 1:
            raise ValueError(f"flush_every must be >= 1, got {flush_every}")
        if kinds is None:
            self.kinds = frozenset(KINDS)
        else:
            self.kinds = frozenset(kinds)
            unknown = self.kinds - KINDS
            if unknown:
                raise ValueError(f"unknown trace kinds {sorted(unknown)}")
        self.path = path
        self.events_written = 0
        self._flush_every = flush_every
        self._pending = 0
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        from repro import _kernel

        self._handle = open(path, "w", encoding="utf-8")
        self._handle.write(
            json.dumps(
                {
                    "schema": TRACE_SCHEMA,
                    "kinds": sorted(self.kinds),
                    "backend": _kernel.backend_name(),
                    "kernel_build_hash": _kernel.build_hash(),
                }
            )
            + "\n"
        )

    # -- tracer protocol ----------------------------------------------------

    def wants(self, kind: str) -> bool:
        """True when events of ``kind`` are captured (cheap hot-path guard)."""
        return kind in self.kinds

    def record(
        self, kind: str, time_us: float, oid: int, node: int, **detail
    ) -> None:
        """Append one event line (no-op for filtered kinds)."""
        if kind not in self.kinds:
            return
        if self._handle.closed:
            raise ValueError(f"trace writer for {self.path!r} is closed")
        self._handle.write(
            json.dumps(
                {
                    "t": time_us,
                    "kind": kind,
                    "oid": oid,
                    "node": node,
                    "detail": detail,
                },
                default=_jsonable,
            )
            + "\n"
        )
        self.events_written += 1
        self._pending += 1
        if self._pending >= self._flush_every:
            self._handle.flush()
            self._pending = 0

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        if not self._handle.closed:
            self._handle.flush()
            self._handle.close()

    def __enter__(self) -> "JsonlTraceWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<JsonlTraceWriter {self.path!r} "
            f"events={self.events_written}>"
        )


def _parse_meta(line: str, path: str) -> frozenset[str]:
    try:
        meta = json.loads(line)
    except json.JSONDecodeError:
        meta = None
    if not isinstance(meta, dict) or meta.get("schema") != TRACE_SCHEMA:
        raise ValueError(
            f"{path!r} is not a {TRACE_SCHEMA} trace (bad meta line)"
        )
    return frozenset(meta.get("kinds", KINDS))


def read_trace_meta(path: str) -> dict:
    """The parsed meta line of a trace file (schema, kinds, backend, ...).

    The ``backend`` key records which simulation backend produced the
    trace (``"python"`` or ``"compiled"``); ``kernel_build_hash`` is the
    compiled extension's build provenance (``None`` under the pure-Python
    backend).  Traces written before a key existed simply lack it.
    """
    with open(path, "r", encoding="utf-8") as handle:
        first = handle.readline()
    if not first:
        raise ValueError(f"{path!r} is empty (no meta line)")
    _parse_meta(first, path)  # schema validation
    return json.loads(first)


def iter_trace(path: str) -> Iterator[TraceEvent]:
    """Stream the events of a JSONL trace file one at a time.

    A malformed line — typically the cut-off last line of a killed run —
    raises :class:`ValueError` naming the file and line number.
    """
    with open(path, "r", encoding="utf-8") as handle:
        first = handle.readline()
        if not first:
            raise ValueError(f"{path!r} is empty (no meta line)")
        _parse_meta(first, path)
        for lineno, line in enumerate(handle, start=2):
            if not line.strip():
                continue
            try:
                raw = json.loads(line)
                event = TraceEvent(
                    time_us=raw["t"],
                    kind=raw["kind"],
                    oid=raw["oid"],
                    node=raw["node"],
                    detail=raw.get("detail", {}),
                )
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: malformed trace event "
                    f"({exc.msg}: column {exc.colno})"
                ) from None
            except (KeyError, TypeError) as exc:
                raise ValueError(
                    f"{path}:{lineno}: malformed trace event "
                    f"(missing or bad field {exc})"
                ) from None
            yield event


def load_trace(path: str) -> TraceRecorder:
    """Load a JSONL trace into an in-memory recorder.

    The returned :class:`~repro.trace.recorder.TraceRecorder` carries the
    writer's ``kinds`` and the full event list, so the query helpers
    (``migrations``, ``home_path``, ``threshold_series``, ``of_kind``)
    behave exactly as they would on the recorder that captured the run.
    """
    with open(path, "r", encoding="utf-8") as handle:
        first = handle.readline()
        if not first:
            raise ValueError(f"{path!r} is empty (no meta line)")
        kinds = _parse_meta(first, path)
    recorder = TraceRecorder(kinds=kinds)
    for event in iter_trace(path):
        recorder.events.append(event)
    return recorder


def dump_trace(recorder: TraceRecorder, path: str) -> int:
    """Write an in-memory recorder's events out as a JSONL trace.

    Returns the number of events written.
    """
    with JsonlTraceWriter(path, kinds=recorder.kinds) as sink:
        for event in recorder.events:
            sink.record(
                event.kind,
                event.time_us,
                event.oid,
                event.node,
                **dict(event.detail),
            )
        return sink.events_written
