"""The serving SLO pipeline end to end (repro-bench serve).

Covers the bench layer above :mod:`repro.apps.serving`: the online
request-span collector, the deterministic report and its digest, the
policy race, the CLI target, and the conformance-harness integration
(a serving episode must run clean under the oracle and the runtime
invariant checker).
"""

import json

import pytest

from repro.apps.serving import ServingSpec
from repro.bench.cli import main as cli_main
from repro.bench.serving import (
    SERVE_POLICIES,
    SERVE_SCHEMA,
    render_race,
    render_serving,
    report_digest,
    run_serving,
    run_serving_race,
)
from repro.check.runner import run_check, run_episode

SPEC = ServingSpec(seed=0, nodes=4, keys=12, phases=2, requests_per_thread=4)


def test_report_shape_and_accounting():
    """Every request span closes and lands in exactly one histogram."""
    report = run_serving(SPEC)
    assert report["schema"] == SERVE_SCHEMA
    expected = SPEC.nthreads * SPEC.requests_per_thread * SPEC.phases
    assert report["requests"] == expected
    assert report["spans"] == {"opened": expected, "closed": expected}
    per_class = sum(
        report["latency_us"][cls]["count"]
        for cls in report["latency_us"]
        if cls != "all"
    )
    assert per_class == expected
    assert report["latency_us"]["all"]["count"] == expected
    assert sum(e["requests"] for e in report["epoch_throughput"]) == expected
    # one throughput row per phase, windows strictly ordered
    assert [e["epoch"] for e in report["epoch_throughput"]] == [0, 1]
    ends = [e["end_us"] for e in report["epoch_throughput"]]
    assert all(e is not None for e in ends)
    assert ends == sorted(ends)
    assert all(
        e["req_per_s"] > 0 for e in report["epoch_throughput"]
    )


def test_report_deterministic_and_digest_stable():
    """Equal specs produce byte-identical reports (same digest)."""
    first = run_serving(SPEC)
    second = run_serving(SPEC)
    assert first == second
    assert report_digest(first) == report_digest(second)
    # and the digest is over canonical JSON — key order never matters
    reordered = json.loads(
        json.dumps(first, sort_keys=True), object_pairs_hook=dict
    )
    assert report_digest(reordered) == report_digest(first)


def test_report_json_clean():
    """Reports hold only JSON types — no numpy scalars, no objects."""
    report = run_serving(SPEC)
    json.dumps(report)  # raises on anything exotic


def test_migrations_follow_hot_set_shift():
    """Adaptive policies migrate when the hot set (and owners) rotate."""
    moving = run_serving(
        ServingSpec(seed=0, nodes=8, keys=16, phases=3,
                    requests_per_thread=6, policy="JUMP")
    )
    frozen = run_serving(
        ServingSpec(seed=0, nodes=8, keys=16, phases=3,
                    requests_per_thread=6, policy="NM")
    )
    assert frozen["migrations"] == 0
    assert moving["migrations"] > 0


def test_race_runs_identical_traffic():
    """Race legs differ only in policy: same request count everywhere."""
    race = run_serving_race(SPEC, ["NM", "AT"])
    assert race["schema"] == SERVE_SCHEMA + "-race"
    nm, at = race["policies"]["NM"], race["policies"]["AT"]
    assert nm["requests"] == at["requests"]
    assert nm["policy"] == "NM" and at["policy"] == "AT"
    text = render_race(race)
    assert "NM" in text and "AT" in text and "p999_us" in text


def test_render_serving_mentions_saturation():
    """Small runs flag unresolved tails with the ~ marker."""
    report = run_serving(SPEC)
    text = render_serving(report)
    assert "Serving SLO report" in text
    assert "p999_us" in text
    assert "~" in text  # 32 requests cannot resolve p999


def test_serve_policies_all_instantiable():
    """Every raceable policy runs without mandatory parameters."""
    tiny = ServingSpec(seed=1, nodes=2, keys=4, phases=1,
                       requests_per_thread=2)
    race = run_serving_race(tiny, list(SERVE_POLICIES))
    assert set(race["policies"]) == set(SERVE_POLICIES)


def test_cli_serve_single(capsys):
    """repro-bench serve prints the report and its digest."""
    assert cli_main([
        "serve", "--nodes", "4", "--policy", "AT", "--seed", "0",
        "--keys", "12", "--requests", "4", "--phases", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "Serving SLO report" in out
    assert "report digest: " in out
    digest = out.rsplit("report digest: ", 1)[1].strip()
    assert digest == report_digest(run_serving(SPEC))


def test_cli_serve_race_and_json(tmp_path, capsys):
    """Comma-separated policies race; --json lands the raw report."""
    out_path = tmp_path / "race.json"
    assert cli_main([
        "serve", "--nodes", "2", "--policy", "NM,AT", "--seed", "1",
        "--keys", "4", "--requests", "2", "--phases", "1",
        "--json", str(out_path),
    ]) == 0
    assert "Policy race" in capsys.readouterr().out
    payload = json.loads(out_path.read_text())
    assert set(payload["policies"]) == {"NM", "AT"}


def test_cli_serve_rejects_unknown_policy(capsys):
    """FT (mandatory threshold) and typos are refused with a message."""
    with pytest.raises(SystemExit):
        cli_main(["serve", "--policy", "FT"])
    with pytest.raises(SystemExit):
        cli_main(["serve", "--policy", "WAT"])


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--zipf-s", "nan"),
        ("--zipf-s", "-1"),
        ("--read-fraction", "1.5"),
        ("--phases", "0"),
        ("--keys", "0"),
        ("--requests", "0"),
    ],
)
def test_cli_serve_rejects_bad_traffic(flag, value, capsys):
    """Out-of-range traffic knobs exit 2 with one usage error, no run."""
    with pytest.raises(SystemExit) as exc:
        cli_main(["serve", "--nodes", "2", flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


def test_run_serving_needs_no_trace_recorder(monkeypatch):
    """Request spans reach the collector directly, not via a relay."""
    from repro.trace.recorder import TraceRecorder

    def refuse(*args, **kwargs):
        raise AssertionError("serving spans went through a TraceRecorder")

    monkeypatch.setattr(TraceRecorder, "record", refuse)
    report = run_serving(SPEC)
    assert report["requests"] == (
        SPEC.nthreads * SPEC.requests_per_thread * SPEC.phases
    )


def test_serving_episode_clean_under_conformance():
    """A serving episode passes the oracle and the invariant checker."""
    result = run_episode(seed=0, flavor="serving")
    assert result.ok, result.verdict()
    assert result.ops > 0


def test_check_session_serving_flavor(tmp_path):
    """A short serving-flavoured check session is green end to end."""
    report = run_check(
        episodes=5,
        base_seed=0,
        corpus_dir=tmp_path,
        self_test=False,
        flavor="serving",
    )
    assert report.ok
    assert len(report.episodes) == 5
    saved = json.loads((tmp_path / "report.json").read_text())
    assert saved["ok"] is True


def test_cli_check_flavor_flag(capsys):
    """The check target threads --flavor through to the generator."""
    assert cli_main([
        "check", "--episodes", "2", "--seed", "0",
        "--flavor", "serving", "--no-self-test",
    ]) == 0
    assert "conformance" in capsys.readouterr().out
