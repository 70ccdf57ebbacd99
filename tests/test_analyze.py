"""SLO analytics engine: trace -> report -> markdown, end to end.

Records real traces through :func:`repro.bench.record.record_trace`
(once per workload per module, via fixtures) and checks the acceptance
surface of ``repro-bench analyze``:

* the synthetic lock workload reports exact percentiles for all four
  headline kinds — read_miss, write_miss, migration, lock_acquire;
* ASP (barrier-synchronised) yields per-epoch throughput, redirect
  chain lengths and p99 read-miss critical paths with a
  forwarding-vs-home decomposition;
* migration timelines pair each object's Eq-2 threshold trajectory
  with the decisions that fired;
* the report is backend-independent and deterministic: analyzing the
  same trace twice is identical, the rendered markdown round-trips
  through the CLI, and the JSON dump is stable.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.analyze import (
    REPORT_SCHEMA,
    analyze_trace,
    render_analysis,
    write_json_report,
)
from repro.bench.record import record_trace
from repro.obs.spans import SPAN_KINDS

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def asp_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "asp_at8.jsonl"
    record_trace(str(path), app="asp", app_kwargs={"size": 24},
                 policy="AT", nodes=8)
    return str(path)


@pytest.fixture(scope="module")
def lock_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "synthetic_at8.jsonl"
    record_trace(
        str(path),
        app="synthetic",
        app_kwargs={"total_updates": 96, "repetition": 4},
        policy="AT",
        nodes=8,
    )
    return str(path)


def test_headline_kinds_have_exact_percentiles(lock_trace):
    """Acceptance: p50/p99/p999 for the four headline span kinds."""
    report = analyze_trace(lock_trace)
    for kind in ("read_miss", "write_miss", "migration", "lock_acquire"):
        summary = report["latency_us"][kind]
        assert summary["count"] > 0, kind
        for q in ("p50", "p95", "p99", "p999"):
            assert summary[q] is not None, (kind, q)
            assert summary["min"] <= summary[q] <= summary["max"]
        assert summary["p50"] <= summary["p99"] <= summary["p999"]


def test_span_health_is_clean_on_real_traces(asp_trace, lock_trace):
    for path in (asp_trace, lock_trace):
        spans = analyze_trace(path)["spans"]
        assert spans["opened"] == spans["closed"] > 0
        assert spans["unclosed"] == 0
        assert spans["orphans"] == 0
        assert spans["double_close"] == 0
        assert spans["unmatched_close"] == 0


def test_latency_kinds_are_known_span_kinds(asp_trace):
    report = analyze_trace(asp_trace)
    assert set(report["latency_us"]) <= SPAN_KINDS
    assert report["schema"] == REPORT_SCHEMA


def test_chain_length_distribution_counts_every_fault(asp_trace):
    report = analyze_trace(asp_trace)
    chain = report["chain_lengths"]
    assert chain, "expected redirection chains under AT"
    faults = (
        report["latency_us"]["read_miss"]["count"]
        + report["latency_us"]["write_miss"]["count"]
    )
    assert sum(chain.values()) == faults
    assert any(int(h) > 0 for h in chain), "AT should produce >=1-hop chains"


def test_critical_paths_decompose_the_slowest_read_misses(asp_trace):
    report = analyze_trace(asp_trace)
    paths = report["critical_paths"]
    assert 1 <= len(paths) <= 5
    p99 = report["read_miss_p99_us"]
    assert p99 is not None
    # sorted slowest-first, and the decomposition must add up
    totals = [cp["total_us"] for cp in paths]
    assert totals == sorted(totals, reverse=True)
    for cp in paths:
        assert cp["dominant"] in ("forwarding-chain", "home+network")
        assert cp["redirect_us"] + cp["residual_us"] == pytest.approx(
            cp["total_us"]
        )
        if cp["hops"] == 0:
            assert cp["redirect_us"] == 0.0


def test_migration_timeline_tracks_threshold_vs_decisions(asp_trace):
    report = analyze_trace(asp_trace)
    objects = report["migration_objects"]
    assert objects, "pinned ASP/AT workload migrates homes"
    for entry in objects:
        assert entry["migrations"] >= 1
        assert entry["decisions"] >= entry["migrations"]
        # home path has one more node than migrations (origin included)
        assert len(entry["path"]) == entry["migrations"] + 1
        assert entry["threshold_min"] <= entry["threshold_max"]
    timeline = report["hottest_decision_timeline"]
    assert timeline
    assert any(d["migrated"] for d in timeline)
    times = [d["t"] for d in timeline]
    assert times == sorted(times)


def test_epoch_throughput_covers_barrier_rounds(asp_trace):
    report = analyze_trace(asp_trace)
    epochs = report["epoch_throughput"]
    assert epochs, "barrier app must produce epoch series"
    numbered = [e for e in epochs if e["epoch"] is not None]
    rounds = [e["epoch"] for e in numbered]
    assert rounds == sorted(rounds)
    ends = [e["end_us"] for e in numbered]
    assert ends == sorted(ends)
    assert all(e["ops"] >= 0 for e in epochs)
    assert any(e["ops"] > 0 for e in epochs)


def test_epoch_fanout_tracks_release_bursts(asp_trace):
    """The fan-out section reports, per barrier epoch, the release
    burst spread (first vs last barrier_wait close) and the redirect
    chain statistics of the faults that epoch absorbed."""
    report = analyze_trace(asp_trace)
    fanout = report["epoch_fanout"]
    assert fanout, "barrier app must produce fan-out series"
    epochs = [row["epoch"] for row in fanout]
    assert epochs == sorted(epochs)
    for row in fanout:
        assert row["parties"] >= 1
        assert row["release_last_us"] >= row["release_first_us"]
        assert row["release_spread_us"] == pytest.approx(
            row["release_last_us"] - row["release_first_us"]
        )
        assert row["faults"] >= 0
        if row["faults"]:
            assert row["max_chain"] >= row["mean_chain"] >= 0
    # every epoch's parties in a fixed-node run is the thread count
    assert {row["parties"] for row in fanout} == {8}
    # chain-carrying faults across epochs match the chain distribution
    chain_total = sum(report["chain_lengths"].values())
    assert sum(row["faults"] for row in fanout) <= chain_total


def test_lock_only_trace_has_no_fanout(lock_trace):
    report = analyze_trace(lock_trace)
    assert report["epoch_fanout"] == []
    assert "Per-epoch fan-out" not in render_analysis(report)


def test_lock_only_trace_has_no_epochs(lock_trace):
    """No barriers -> no epoch series, and that renders fine."""
    report = analyze_trace(lock_trace)
    assert report["epoch_throughput"] == []
    text = render_analysis(report)
    assert "Per-barrier-epoch throughput" not in text
    assert "lock_acquire" in text


def test_analysis_is_deterministic(asp_trace):
    first = analyze_trace(asp_trace)
    second = analyze_trace(asp_trace)
    assert first == second
    assert render_analysis(first) == render_analysis(second)


def test_report_is_json_serialisable_and_stable(asp_trace, tmp_path):
    report = analyze_trace(asp_trace)
    out = tmp_path / "slo.json"
    write_json_report(report, str(out))
    loaded = json.loads(out.read_text())
    assert loaded["schema"] == REPORT_SCHEMA
    assert loaded["spans"]["opened"] == report["spans"]["opened"]
    # stable: a second dump is byte-identical
    out2 = tmp_path / "slo2.json"
    write_json_report(report, str(out2))
    assert out.read_text() == out2.read_text()


def test_report_contains_no_environment_identifiers(asp_trace):
    """Backend independence: nothing machine- or path-specific leaks in.

    The CI parity job diffs python-vs-compiled reports byte-for-byte,
    which only works if the report never mentions the trace path, the
    backend name, or the kernel build hash.
    """
    report = analyze_trace(asp_trace)
    blob = json.dumps(report)
    assert asp_trace not in blob
    assert "backend" not in blob
    assert "kernel" not in blob


def test_render_mentions_every_section(asp_trace):
    text = render_analysis(analyze_trace(asp_trace))
    for needle in (
        "SLO report",
        "span health",
        "Latency by operation kind",
        "Redirection chain length",
        "Critical paths",
        "Migration-decision timelines",
        "Per-barrier-epoch throughput",
        "Per-epoch fan-out",
    ):
        assert needle in text, needle


def test_cli_analyze_target(asp_trace, tmp_path):
    """`repro-bench analyze <trace> --json out` prints markdown + JSON."""
    out = tmp_path / "slo.json"
    proc = subprocess.run(
        [sys.executable, "-m", "repro.bench", "analyze", asp_trace,
         "--json", str(out)],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin",
             "REPRO_BACKEND": "python"},
    )
    assert proc.returncode == 0, proc.stderr
    assert "SLO report" in proc.stdout
    assert "Latency by operation kind" in proc.stdout
    assert json.loads(out.read_text())["schema"] == REPORT_SCHEMA
    # stdout matches the library rendering exactly (CI diffs this)
    assert proc.stdout == render_analysis(analyze_trace(asp_trace))


def test_cli_analyze_requires_a_path():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.bench", "analyze"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert "requires a trace path" in proc.stderr


def _bad_trace(directory: Path, case: str, source: str) -> str:
    """A missing, empty, or cut-mid-line (killed run) trace file."""
    path = directory / f"{case}.jsonl"
    if case == "empty":
        path.write_text("")
    elif case == "cut":
        data = Path(source).read_bytes()
        second_event = data.index(b"\n", data.index(b"\n") + 1) + 1
        path.write_bytes(data[: second_event + 30])
    return str(path)


@pytest.mark.parametrize("target", ["analyze", "report"])
@pytest.mark.parametrize(
    "case, message",
    [
        ("missing", "No such file"),
        ("empty", "no meta line"),
        ("cut", "cut.jsonl:3: malformed trace event"),
    ],
)
def test_cli_bad_trace_is_one_error_line(
    tmp_path, capsys, asp_trace, target, case, message
):
    """Unreadable traces exit 2 with one line naming the problem."""
    from repro.bench.cli import main

    path = _bad_trace(tmp_path, case, asp_trace)
    argv = [target, path] if target == "analyze" else [target, "--trace", path]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("repro-bench: error: ")
    assert captured.err.count("\n") == 1
    assert message in captured.err


def test_empty_span_trace_renders_gracefully(tmp_path):
    """A trace without spans analyzes to an explicit 'no spans' report."""
    path = tmp_path / "nospans.jsonl"
    record_trace(str(path), app="asp", app_kwargs={"size": 20},
                 policy="NM", nodes=4)
    # strip the span events to simulate a filtered recording
    lines = path.read_text().splitlines()
    kept = [lines[0]] + [
        line for line in lines[1:]
        if '"span_open"' not in line and '"span_close"' not in line
    ]
    filtered = tmp_path / "filtered.jsonl"
    filtered.write_text("\n".join(kept) + "\n")
    report = analyze_trace(str(filtered))
    assert report["spans"]["opened"] == 0
    text = render_analysis(report)
    assert "no spans in this trace" in text


def test_cli_analyze_spans_disabled_trace_is_one_line_and_exit_0(tmp_path):
    """``repro-bench analyze`` on a spans-disabled trace prints a single
    actionable line (how to re-record) and exits 0 — a filtered trace is
    not an error condition."""
    path = tmp_path / "nospans.jsonl"
    record_trace(str(path), app="asp", app_kwargs={"size": 20},
                 policy="NM", nodes=4)
    lines = path.read_text().splitlines()
    kept = [lines[0]] + [
        line for line in lines[1:]
        if '"span_open"' not in line and '"span_close"' not in line
    ]
    filtered = tmp_path / "filtered.jsonl"
    filtered.write_text("\n".join(kept) + "\n")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.bench", "analyze", str(filtered)],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin",
             "REPRO_BACKEND": "python"},
    )
    assert proc.returncode == 0, proc.stderr
    out_lines = proc.stdout.strip().splitlines()
    assert len(out_lines) == 1, proc.stdout
    assert "no spans in this trace" in out_lines[0]
    assert "re-record" in out_lines[0]
