"""SLO measurement over serving episodes (``repro-bench serve``).

Runs a :class:`~repro.apps.serving.ServingSpec` episode with request
spans captured *online* — the run's span sink folds every ``request``
span into per-class
:class:`~repro.obs.hist.LatencyHistogram` instances and a per-epoch
:class:`~repro.obs.hist.EpochSeries` as it streams by, so a 256-node
run never materializes a JSONL trace — and renders a deterministic SLO
report: per-epoch request throughput and p50/p99/p999 request latency
per request class.

The report is a plain dict of JSON types containing **only virtual-time
quantities** (no wall clock, no backend name, no paths), so the same
spec produces a byte-identical report under the python and compiled
backends; :func:`report_digest` pins that equality, and the CI serving
smoke byte-diffs the rendered markdown across backends.  Saturated tail
quantiles (too few samples to resolve p999 below the max — see
:meth:`~repro.obs.hist.LatencyHistogram.quantile_at`) are rendered with
a ``~`` marker instead of masquerading as resolved percentiles.

:func:`run_serving_race` runs the same traffic under several migration
policies (NM/AT/ATD/JUMP/LF/JIAJIA, any of
:data:`repro.check.fuzz.POLICY_NAMES`) and tabulates them side by side
— racing policies on SLO terms rather than wall clock alone.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, replace

from repro.apps.fromspec import SpecProgram
from repro.apps.serving import ServingSpec, build_serving_program
from repro.bench.report import format_table
from repro.check.fuzz import build_mechanism, build_policy
from repro.cluster.hockney import FAST_ETHERNET
from repro.gos.jvm import DistributedJVM
from repro.obs.hist import EpochSeries, LatencyHistogram
from repro.obs.spans import SPAN_CLOSE, SPAN_OPEN

__all__ = [
    "SERVE_POLICIES",
    "SERVE_SCHEMA",
    "render_race",
    "render_serving",
    "report_digest",
    "run_serving",
    "run_serving_race",
]

#: Schema tag stamped on every serve report dict.
SERVE_SCHEMA = "repro-serve-report-v1"

#: Policies the serve CLI can race: every family that instantiates
#: without mandatory parameters (FT needs an explicit threshold, so it
#: stays a library-level option via ``ServingSpec.policy_params``).
SERVE_POLICIES = ("NM", "AT", "ATD", "JUMP", "LF", "JIAJIA")


class _RequestCollector:
    """Online span sink: request latency + epoch throughput.

    Passed as the run's ``tracer``: it implements the tracer protocol
    (``wants``/``record``) for the two span kinds only and keeps no
    events (``events`` is empty), just per-class histograms, per-epoch
    request counts, and the close time of each barrier round (the epoch
    windows).  Everything it accumulates is a deterministic function of
    the span stream.
    """

    events = ()

    def __init__(self) -> None:
        self.hists: dict[str, LatencyHistogram] = {}
        self.epoch_requests = EpochSeries()
        self.barrier_close: dict[int, float] = {}
        self.opened = 0
        self.closed = 0
        self._open: dict[int, tuple[float, str, int]] = {}
        self._open_barriers: dict[int, int] = {}

    def wants(self, kind: str) -> bool:
        """Tracer protocol: only the span kinds are consumed."""
        return kind == SPAN_OPEN or kind == SPAN_CLOSE

    def record(
        self, kind: str, time_us: float, oid: int, node: int, **d
    ) -> None:
        """Tracer protocol: fold one span event."""
        if kind == SPAN_OPEN:
            op_kind = d.get("op_kind")
            if op_kind == "request":
                self.opened += 1
                self._open[d["op"]] = (
                    time_us, d.get("cls", "?"), d.get("epoch", 0)
                )
            elif op_kind == "barrier_wait" and d.get("round") is not None:
                self._open_barriers[d["op"]] = d["round"]
        elif kind == SPAN_CLOSE:
            op = d.get("op")
            if op in self._open:
                open_us, cls, epoch = self._open.pop(op)
                self.closed += 1
                self.hists.setdefault(cls, LatencyHistogram()).record(
                    time_us - open_us
                )
                self.epoch_requests.note(epoch)
            elif op in self._open_barriers:
                round_no = self._open_barriers.pop(op)
                prev = self.barrier_close.get(round_no)
                if prev is None or time_us > prev:
                    self.barrier_close[round_no] = time_us


def run_serving(spec: ServingSpec) -> dict:
    """Run one serving episode and return its deterministic SLO report.

    The episode expands to a ProgramSpec, runs on a fresh simulated
    cluster with the request collector as its only span sink, and the
    report is assembled
    from the online collector plus the run's deterministic counters —
    per request class latency (p50/p99/p999 with saturation flags) and
    per-epoch throughput in simulated time.
    """
    pspec = build_serving_program(spec)
    program = SpecProgram(pspec)
    collector = _RequestCollector()
    jvm = DistributedJVM(
        nodes=pspec.nnodes,
        comm_model=FAST_ETHERNET,
        policy=build_policy(spec.policy, dict(spec.policy_params)),
        mechanism=build_mechanism(spec.mechanism, pspec.manager_node),
        tracer=collector,
        lock_discipline=spec.lock_discipline,
        seed=spec.seed,
        topology=spec.topology,
        release_fanout=spec.release_fanout,
    )
    result = jvm.run(program, nthreads=pspec.nthreads)

    latency: dict[str, dict] = {
        cls: collector.hists[cls].summary()
        for cls in sorted(collector.hists)
    }
    if collector.hists:
        latency["all"] = LatencyHistogram.merged(
            collector.hists[cls] for cls in sorted(collector.hists)
        ).summary()

    epochs: list[dict] = []
    start = 0.0
    counts = collector.epoch_requests.counts
    for epoch in range(spec.phases):
        end = collector.barrier_close.get(epoch)
        n = counts.get(epoch, 0)
        window = (end - start) if end is not None else None
        epochs.append(
            {
                "epoch": epoch,
                "requests": n,
                "end_us": end,
                "window_us": window,
                "req_per_s": (
                    n / (window / 1e6) if window else None
                ),
            }
        )
        if end is not None:
            start = end

    stats = result.stats
    return {
        "schema": SERVE_SCHEMA,
        "config": asdict(spec),
        "nodes": pspec.nnodes,
        "threads": pspec.nthreads,
        "policy": spec.policy,
        "requests": collector.closed,
        "spans": {"opened": collector.opened, "closed": collector.closed},
        "sim_time_us": result.execution_time_us,
        "migrations": result.migrations,
        "messages": stats.total_messages(),
        "bytes_total": stats.total_bytes(),
        "latency_us": latency,
        "epoch_throughput": epochs,
        "epoch_requests": collector.epoch_requests.to_dict(),
    }


def report_digest(report: dict) -> str:
    """sha256 over the canonical JSON of a serve report.

    The cross-backend identity pin: python and compiled backends must
    produce this exact digest for the same :class:`ServingSpec`.
    """
    blob = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _fmt(value, precision: int = 1) -> str:
    """Format one table cell (``-`` for missing values)."""
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def _quantile_cell(summary: dict, name: str) -> str:
    """One quantile cell, ``~``-prefixed when saturated at the max."""
    value = summary.get(name)
    if value is None:
        return "-"
    marker = "~" if name in summary.get("estimated", ()) else ""
    return f"{marker}{value:.1f}"


def render_serving(report: dict) -> str:
    """Render one serve report as markdown-flavoured plain text.

    Deterministic and backend-independent — contains only virtual-time
    values from the report dict.
    """
    cfg = report["config"]
    blocks = [
        f"# Serving SLO report — policy {report['policy']}, "
        f"{report['nodes']} nodes, {report['requests']} requests",
        (
            f"traffic: {cfg['keys']} keys, zipf_s={cfg['zipf_s']}, "
            f"{cfg['arrival']}-loop arrivals, "
            f"read_fraction={cfg['read_fraction']}, "
            f"churn={cfg['churn']}, {cfg['phases']} phases, "
            f"seed={cfg['seed']}"
            + (f", topology={cfg['topology']}" if cfg["topology"] else "")
        ),
        (
            f"run: sim_time={report['sim_time_us'] / 1e6:.4f}s, "
            f"migrations={report['migrations']}, "
            f"messages={report['messages']}"
        ),
    ]

    rows = []
    for cls, summary in report["latency_us"].items():
        rows.append(
            [
                cls,
                summary["count"],
                _fmt(summary["mean"]),
                _quantile_cell(summary, "p50"),
                _quantile_cell(summary, "p99"),
                _quantile_cell(summary, "p999"),
                _fmt(summary["max"]),
            ]
        )
    if rows:
        blocks.append(
            format_table(
                ["class", "count", "mean_us", "p50_us", "p99_us",
                 "p999_us", "max_us"],
                rows,
                title="Request latency by class (virtual us; ~ = "
                "saturated estimate, too few samples)",
            )
        )

    rows = [
        [
            e["epoch"],
            e["requests"],
            _fmt(e["end_us"]),
            _fmt(e["req_per_s"]),
        ]
        for e in report["epoch_throughput"]
    ]
    if rows:
        blocks.append(
            format_table(
                ["epoch", "requests", "end_us", "req_per_s"],
                rows,
                title="Per-epoch request throughput (simulated time)",
            )
        )
    return "\n\n".join(blocks) + "\n"


def run_serving_race(spec: ServingSpec, policies: list[str]) -> dict:
    """Run identical traffic under several policies; report side by side.

    Every leg reuses the same :class:`ServingSpec` with only the policy
    swapped, so the request sequence, key popularity and arrivals are
    identical — the SLO deltas isolate the migration policy.
    """
    legs = {}
    for policy in policies:
        legs[policy] = run_serving(
            replace(spec, policy=policy, policy_params={})
        )
    return {"schema": SERVE_SCHEMA + "-race", "policies": legs}


def render_race(race: dict) -> str:
    """Tabulate a policy race: one row per policy, SLO columns."""
    rows = []
    for policy, report in race["policies"].items():
        summary = report["latency_us"].get("all", {})
        rows.append(
            [
                policy,
                report["requests"],
                f"{report['sim_time_us'] / 1e6:.4f}",
                report["migrations"],
                report["messages"],
                _quantile_cell(summary, "p50"),
                _quantile_cell(summary, "p99"),
                _quantile_cell(summary, "p999"),
            ]
        )
    return format_table(
        ["policy", "requests", "sim_s", "migrations", "messages",
         "p50_us", "p99_us", "p999_us"],
        rows,
        title="Policy race — same traffic, SLO terms",
    ) + "\n"
