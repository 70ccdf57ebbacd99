"""End-to-end tests: telemetry through the executor, CLI and report."""

import json
from dataclasses import replace

import pytest

from repro import _kernel
from repro.apps import Asp
from repro.apps.synthetic import SingleWriterBenchmark
from repro.bench.analyze import analyze_trace
from repro.bench.executor import ObsSpec, RunSpec, execute, run_spec
from repro.bench.obs_report import render_trace_report
from repro.bench.runner import make_policy
from repro.cluster.hockney import FAST_ETHERNET
from repro.gos.jvm import DistributedJVM
from repro.obs.export import JsonlTraceWriter, load_trace
from repro.obs.hist import TICKS_PER_UNIT, LatencyHistogram
from repro.obs.metrics import MetricsRegistry

SPEC = RunSpec(
    app="synthetic",
    app_kwargs={"total_updates": 64, "repetition": 8},
    policy="AT",
    nodes=4,
    tag="t0",
)


def test_obsspec_enabled_and_for_run(tmp_path):
    assert not ObsSpec().enabled
    obs = ObsSpec(trace_path=str(tmp_path / "run.jsonl"), metrics=True)
    assert obs.enabled
    assert obs.for_run(0, 1) is obs  # single run keeps the path
    derived = obs.for_run(2, 5)
    assert derived.trace_path == str(tmp_path / "run-002.jsonl")
    assert derived.metrics  # other fields carried over


def test_run_spec_with_obs_carries_telemetry(tmp_path):
    trace = str(tmp_path / "run.jsonl")
    obs = ObsSpec(trace_path=trace, metrics=True)
    outcome = run_spec(replace(SPEC, obs=obs))
    telemetry = outcome.telemetry
    assert telemetry is not None
    assert set(telemetry["phases"]) == {"build", "simulate", "verify"}
    assert telemetry["phases"]["simulate"]["count"] == 1
    assert telemetry["trace"]["path"] == trace
    assert telemetry["trace"]["events"] > 0
    metrics = MetricsRegistry.from_snapshot(telemetry["metrics"])
    assert (
        metrics.counter_total("dsm_migrations_total") == outcome.migrations
    )
    # the streamed trace agrees with the outcome
    loaded = load_trace(trace)
    assert len(loaded.migrations()) == outcome.migrations
    json.dumps(telemetry)  # picklable and JSON-clean


def test_telemetry_does_not_change_deterministic_fields():
    bare = run_spec(SPEC)
    obs = ObsSpec(metrics=True)
    instrumented = run_spec(replace(SPEC, obs=obs))
    assert bare.telemetry is None
    assert instrumented.deterministic() == bare.deterministic()


def test_execute_applies_obs_and_reports_progress(tmp_path):
    specs = [
        replace(SPEC, tag=f"t{i}", seed=i)
        for i in range(3)
    ]
    obs = ObsSpec(trace_path=str(tmp_path / "sweep.jsonl"), metrics=True)
    seen = []
    outcomes = execute(
        specs, jobs=1, obs=obs,
        progress=lambda done, total, outcome: seen.append((done, total)),
    )
    assert seen == [(1, 3), (2, 3), (3, 3)]
    assert [o.tag for o in outcomes] == ["t0", "t1", "t2"]
    for i, outcome in enumerate(outcomes):
        path = str(tmp_path / f"sweep-{i:03d}.jsonl")
        assert outcome.telemetry["trace"]["path"] == path
        assert load_trace(path).events  # file exists and has events
    # per-run snapshots merge into one registry
    total = MetricsRegistry()
    for outcome in outcomes:
        total.merge(outcome.telemetry["metrics"])
    assert total.counter_total("dsm_migrations_total") == sum(
        o.migrations for o in outcomes
    )


def test_execute_without_obs_is_unchanged():
    outcomes = execute([SPEC], jobs=1)
    assert outcomes[0].telemetry is None


def test_render_trace_report(tmp_path):
    trace = str(tmp_path / "run.jsonl")
    obs = ObsSpec(trace_path=trace)
    outcome = run_spec(replace(SPEC, obs=obs))
    report = render_trace_report(trace)
    assert "migrations" in report
    assert str(outcome.migrations) in report
    assert "threshold" in report


def test_cli_observability_flags(tmp_path, capsys):
    from repro.bench.cli import main

    trace = str(tmp_path / "cli.jsonl")
    metrics_out = str(tmp_path / "metrics.json")
    code = main([
        "figure5", "--jobs", "1",
        "--trace-out", trace,
        "--metrics-out", metrics_out,
        "--progress",
    ])
    assert code == 0
    captured = capsys.readouterr()
    assert "[1/" in captured.err  # progress heartbeats on stderr
    snap = json.load(open(metrics_out, encoding="utf-8"))
    assert snap["runs"] > 0
    assert snap["counters"]
    # per-sweep trace files were derived from the base path
    produced = sorted(tmp_path.glob("cli-figure5-*.jsonl"))
    assert len(produced) == snap["runs"]


def test_cli_report_target(tmp_path, capsys):
    from repro.bench.cli import main

    trace = str(tmp_path / "run.jsonl")
    run_spec(replace(SPEC, obs=ObsSpec(trace_path=trace)))
    assert main(["report", "--trace", trace]) == 0
    out = capsys.readouterr().out
    assert "migrations" in out


#: ``net_*`` counters of ASP-32/AT/4 with a registry attached, recorded
#: when metrics-on runs still took a per-send metrics path.
PINNED_NET_COUNTERS = {
    "barrier_arrive": (96, 13008),
    "barrier_release": (96, 38448),
    "diff": (24, 4984),
    "diff_ack": (24, 1152),
    "obj_reply": (172, 55040),
    "obj_reply_mig": (24, 8832),
    "obj_request": (240, 11520),
    "redirect": (44, 2112),
}


def test_metrics_on_compiled_run_uses_fabric_and_pinned_net_counters():
    """Attaching a registry keeps the compiled fabric, and the run-end
    ``net_*`` counters equal the pinned per-send totals."""
    kernel_module = _kernel.kernel()
    if kernel_module is None:
        pytest.skip("compiled backend unavailable")
    metrics = MetricsRegistry()
    jvm = DistributedJVM(
        nodes=4,
        comm_model=FAST_ETHERNET,
        policy=make_policy("AT"),
        metrics=metrics,
    )
    result = jvm.run(Asp(size=32))
    assert isinstance(result.gos.network._fabric, kernel_module.NetFabric)
    counters = {
        (c["name"], c["labels"]["category"]): c["value"]
        for c in metrics.snapshot()["counters"]
        if c["name"].startswith("net_")
    }
    expected = {}
    for category, (count, nbytes) in PINNED_NET_COUNTERS.items():
        expected["net_messages_total", category] = count
        expected["net_bytes_total", category] = nbytes
    assert counters == expected


#: ASP-32/AT/4 per-node fault-in latency (count, sum, min, max in
#: virtual µs), as the engine's own fault timer measured it before fault
#: latency became a view of the read/write-miss spans.
PINNED_FAULT_IN_US = {
    0: (46, 16744.730434782676, 242.0, 569.9130434782674),
    1: (54, 15494.869565217414, 242.0, 460.3478260869597),
    2: (51, 14815.826086956547, 242.0, 479.47826086956593),
    3: (45, 13195.913043478284, 242.0, 477.391304347826),
}


def test_miss_spans_give_the_pinned_fault_latency():
    """read_miss + write_miss span latencies per node equal the pinned
    fault-in distribution: both bracket the same instants."""
    metrics = MetricsRegistry()
    DistributedJVM(
        nodes=4,
        comm_model=FAST_ETHERNET,
        policy=make_policy("AT"),
        metrics=metrics,
    ).run(Asp(size=32))
    for node, (count, total, low, high) in PINNED_FAULT_IN_US.items():
        hist = LatencyHistogram.merged(
            metrics.histogram("dsm_span_us", op_kind=kind, node=node)
            for kind in ("read_miss", "write_miss")
        )
        assert (hist.count, hist.min, hist.max) == (count, low, high)
        assert hist.sum_ticks / TICKS_PER_UNIT == pytest.approx(
            total, abs=0.1
        )


@pytest.mark.parametrize(
    "app",
    [
        lambda: Asp(size=32),
        lambda: SingleWriterBenchmark(total_updates=64, repetition=4),
    ],
    ids=["asp", "locks"],
)
def test_registry_span_histograms_agree_with_trace_analytics(tmp_path, app):
    """The registry's dsm_span_us, merged over nodes, is the same
    per-kind distribution the offline analytics rebuild from the trace."""
    path = str(tmp_path / "spans.jsonl")
    metrics = MetricsRegistry()
    with JsonlTraceWriter(path) as sink:
        DistributedJVM(
            nodes=4,
            comm_model=FAST_ETHERNET,
            policy=make_policy("AT"),
            tracer=sink,
            metrics=metrics,
        ).run(app())
    by_kind: dict[str, LatencyHistogram] = {}
    for entry in metrics.snapshot()["histograms"]:
        if entry["name"] == "dsm_span_us":
            by_kind.setdefault(
                entry["labels"]["op_kind"], LatencyHistogram()
            ).merge(LatencyHistogram.from_dict(entry))
    latency = analyze_trace(path)["latency_us"]
    assert latency
    assert {k: h.summary() for k, h in by_kind.items()} == latency


def test_cli_metrics_out_independent_of_jobs(tmp_path, capsys):
    """Merged --metrics-out is byte-identical for --jobs 1 and 2."""
    from repro.bench.cli import main

    texts = []
    for jobs in ("1", "2"):
        out = tmp_path / f"metrics-{jobs}.json"
        assert main([
            "figure5", "--jobs", jobs, "--metrics-out", str(out),
        ]) == 0
        texts.append(out.read_bytes())
    capsys.readouterr()
    assert texts[0] == texts[1]
