"""The repository benchmark: end-to-end walls, simulated outcomes and a
per-layer host-time ledger for three workloads of the DSM simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload asp-16 --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 38 --trace 1

The benchmark imports the program once and warms imports and the
compiled kernel build before anything is timed; it refuses to measure
the pure-Python fallback.  Every run of the program then happens in a
child forked from that warmed process (``worker.py``), one at a time,
so ``peak_rss_mb`` is a per-run high-water mark and no run inherits
another's caches.

``--trace 0`` repeats untraced runs for ``--seconds`` and reports the
end-to-end metrics as medians.  Each run is bracketed by a fixed
calibration loop, and ``wall_s`` and ``setup_s`` are rescaled by it to
the reference host speed (README, Noise).
``--trace 1`` alternates untraced and cProfile-traced runs and reports
the per-layer metrics: host self-time per layer from the traced runs,
set-up spans and counters from the untraced ones, and the tracing
overhead between the two.

Every run's outputs are checked against the sequential reference
outside the timed region, and every run's deterministic outputs are
digested: runs of one invocation, traced or not, must agree exactly.
The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``failed / attempted`` is
the error rate.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import monotonic

from ledger import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("asp-16", "serve-256", "bcast-1024")

#: Every invocation must end well inside the 180 s a run is allowed.
DEADLINE_S = 170.0
STARTED = monotonic()
#: Untraced runs per invocation at the least (a median needs three).
MIN_RUNS = 3

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "sim_time_s": "s",
    "messages": "count",
    "net_mb": "MB",
}

#: Per-layer metrics (``--trace 1``) and their units.
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "other.self_s": "s",
    "profiler.gap_s": "s",
    "sim.run_s": "s",
    "sim.events": "count",
    "sim.us_per_event": "us",
    "cluster.tables_s": "s",
    "cluster.data_msgs": "count",
    "cluster.sync_msgs": "count",
    "cluster.bcast_msgs": "count",
    "dsm.faults": "count",
    "dsm.diffs": "count",
    "dsm.redirects": "count",
    "dsm.redirect_ratio": "ratio",
    "dsm.remote_ratio": "ratio",
    "core.migrations": "count",
    "core.exclusive_ratio": "ratio",
    "memory.arena_reuse_ratio": "ratio",
    "memory.peak_cache_entries": "count",
    "gos.build_s": "s",
    "apps.setup_s": "s",
    "apps.expand_s": "s",
    "trace.events": "count",
    "obs.spans": "count",
    "req.p99_us": "us",
    "req.p999_us": "us",
    "req.get.p99_us": "us",
    "req.put.p99_us": "us",
    "trace_overhead": "ratio",
    "host.wall_s": "s",
    "host.cal_s": "s",
}

#: The rows of the ledger: together they add up to the traced wall.
LEDGER_ROWS = (
    *(f"{layer}.self_s" for layer in (*LAYERS, "other")), "profiler.gap_s",
)

#: Disjoint parts of ``setup_s``, timed around the program's own calls.
SETUP_SPANS = ("apps.expand_s", "gos.build_s", "cluster.tables_s",
               "apps.setup_s")

#: Measured per run (reported as medians); everything else a worker
#: reports is a deterministic function of the workload and seed.
TIMED = ("wall_s", "setup_s", "peak_rss_mb", "sim.run_s", *SETUP_SPANS)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def prepare(tmpdir: str) -> None:
    """Pin the program's environment before anything imports it.

    The compiled backend is required; numpy's thread pool is held to
    one thread so a run occupies one CPU; temporary files (the kernel
    build's) stay inside the checkout."""
    os.environ.update(
        REPRO_BACKEND="compiled", TMPDIR=tmpdir,
        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
    )
    tempfile.tempdir = tmpdir
    sys.path.insert(0, str(ROOT / "src"))


class Session:
    """Runs the workers of one workload under the invocation's deadline."""

    def __init__(self):
        import worker

        self.program = worker

    def remaining(self) -> float:
        return DEADLINE_S - (monotonic() - STARTED)

    def worker(self, mode: str, workload: str, seed: int) -> dict:
        """One run of ``workload`` in a forked child: its record."""
        return self.forked(
            lambda: self.program.run(mode, workload, seed),
            f"{mode} run of {workload}",
        )

    def calibrate(self) -> float:
        """The host-speed loop's time, in a forked child."""
        return self.forked(self.program.calibrate, "calibration")["cal_s"]

    def forked(self, job, name: str) -> dict:
        """Call ``job`` in a forked child and return the dict it returns."""
        timeout = self.remaining()
        if timeout <= 0:
            raise BenchError("out of time before the next run")
        sys.stdout.flush()
        sys.stderr.flush()
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child: one run, then exit without cleanup
            status = 1
            try:
                os.close(read_fd)
                payload = json.dumps(job())
                with os.fdopen(write_fd, "w") as pipe:
                    pipe.write(payload)
                status = 0
            except BaseException:
                traceback.print_exc()
            finally:
                sys.stderr.flush()
                os._exit(status)
        os.close(write_fd)
        payload = None
        try:
            payload = read_until_eof(read_fd, monotonic() + timeout)
        finally:
            os.close(read_fd)
            if payload is None:  # timed out or interrupted
                os.kill(pid, signal.SIGKILL)
            _, status = os.waitpid(pid, 0)
        if payload is None:
            raise BenchError(f"{name} timed out")
        if status != 0 or not payload:
            raise BenchError(f"{name} failed (wait status {status})")
        return json.loads(payload)


def read_until_eof(fd: int, deadline: float) -> str | None:
    """Everything written to ``fd`` until EOF, or ``None`` at the deadline."""
    chunks = []
    while True:
        left = deadline - monotonic()
        if left <= 0:
            return None
        ready, _, _ = select.select([fd], [], [], left)
        if ready:
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return b"".join(chunks).decode()
            chunks.append(chunk)


def git_revision() -> str | None:
    """HEAD of the checkout, when it is a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def median_of(records: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in records)


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run one workload for ``seconds``; return its aggregated record."""
    session = Session()
    try:
        warm = session.program.warm(workload, seed)
    except RuntimeError as exc:
        raise BenchError(str(exc)) from None
    runs: list[dict] = []
    traces: list[dict] = []
    failed_runs: list[dict] = []
    start = monotonic()
    last = 0.0
    cal_s = session.calibrate()
    while True:
        # Start no run that would end past ``seconds`` (nor past the
        # deadline), once there are enough for a median.
        elapsed = monotonic() - start
        enough = len(runs) + len(failed_runs) >= (1 if traced else MIN_RUNS)
        if enough and (elapsed + last > seconds
                       or session.remaining() < 1.5 * last):
            break
        began = monotonic()
        record = session.worker("run", workload, seed)
        (failed_runs if "error" in record else runs).append(record)
        if traced:
            traced_record = session.worker("traced", workload, seed)
            (failed_runs if "error" in traced_record else traces).append(
                traced_record
            )
        # The host's speed around the run: the loop timed before and after.
        after = session.calibrate()
        record["cal_s"] = (cal_s + after) / 2
        cal_s = after
        last = monotonic() - began
    if not runs or (traced and not traces):
        errors = "; ".join(r["error"] for r in failed_runs)
        raise BenchError(f"no run of {workload} completed: {errors}")

    checked = runs + traces + failed_runs
    attempted = sum(r.get("attempted", 0) for r in checked)
    failed = sum(r.get("failed", 0) for r in checked)
    digests = sorted({r["digest"] for r in runs + traces})
    first = runs[0]
    metrics: dict[str, float] = {}
    if traced:
        for key in first:
            if key not in TIMED and isinstance(first[key], (int, float)):
                metrics[key] = first[key]
        for key in TIMED:
            metrics[key] = median_of(runs, key)
        metrics["host.wall_s"] = metrics["wall_s"]
        metrics["host.cal_s"] = median_of(runs, "cal_s")
        untraced_wall = metrics["wall_s"]
        traced_wall = median_of(traces, "wall_s")
        for layer in (*LAYERS, "other"):
            metrics[f"{layer}.self_s"] = statistics.median(
                t["self_s"][layer] for t in traces
            )
        # Traced wall that no function's self-time covers is the
        # profiler's own bookkeeping, not the program's.
        metrics["profiler.gap_s"] = traced_wall - sum(
            metrics[f"{layer}.self_s"] for layer in (*LAYERS, "other")
        )
        metrics["sim.us_per_event"] = (
            metrics["sim.run_s"] / metrics["sim.events"] * 1e6
        )
        metrics["trace_overhead"] = traced_wall / untraced_wall
        metrics["traced_wall_s"] = traced_wall
    else:
        # Other tenants slow the host by up to 60 % for minutes at a
        # time; walls rescaled by the loop timed around each run read as
        # seconds at the reference speed and stay put (README, Noise).
        ref = metrics["cal_ref_s"] = session.program.CAL_REF_S
        for key in ("wall_s", "setup_s"):
            metrics[key] = statistics.median(
                r[key] * ref / r["cal_s"] for r in runs
            )
        for key in ("peak_rss_mb", "cal_s"):
            metrics[key] = median_of(runs, key)
        metrics["raw_wall_s"] = median_of(runs, "wall_s")
        metrics["raw_setup_s"] = median_of(runs, "setup_s")
        for key in ("sim_time_s", "messages", "net_mb"):
            metrics[key] = first[key]
    return {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "provenance": {**warm, "git": git_revision()},
        "samples": {
            "runs": len(runs), "traced": len(traces),
            "failed_runs": len(failed_runs),
            "wall_s": [r["wall_s"] for r in runs],
            "setup_s": [r["setup_s"] for r in runs],
            "cal_s": [r["cal_s"] for r in runs],
        },
        "digests": digests,
        "deterministic": len(digests) == 1,
        "errors": [r["error"] for r in failed_runs],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "seconds": monotonic() - start,
    }


def render(result: dict, units: dict[str, str]) -> str:
    """Human-readable block: every metric with its unit and the verdict."""
    samples = result["samples"]
    lines = [
        f"== {result['workload']} seed={result['seed']} "
        f"trace={int(result['traced'])}: {samples['runs']} runs, "
        f"{samples['traced']} traced "
        f"in {result['seconds']:.1f} s",
    ]
    metrics = result["metrics"]
    for name, unit in units.items():
        lines.append(f"  {name:<26} {metrics[name]:>16.6g} {unit}")
    if not result["traced"]:
        lines.append(
            f"  wall_s and setup_s are at the reference host speed; as "
            f"measured: wall {metrics['raw_wall_s']:.6g} s, set-up "
            f"{metrics['raw_setup_s']:.6g} s, calibration loop "
            f"{metrics['cal_s']:.6g} s (reference {metrics['cal_ref_s']} s)"
        )
    if result["traced"]:
        total = metrics["traced_wall_s"]
        lines.append(
            f"  ledger: share of traced wall {total:.3f} s "
            f"(trace_overhead {metrics['trace_overhead']:.2f}x)"
        )
        for name in LEDGER_ROWS:
            value = metrics[name]
            lines.append(
                f"    {name:<16} {value:>9.4f} s {100 * value / total:6.1f} %"
            )
    rate = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    lines.append(
        f"  correct: {'yes' if verdict(result) else 'NO'} -- "
        f"{result['failed']} of {result['attempted']} checked outputs "
        f"failed (error_rate {rate:.6g}); "
        f"{len(result['digests'])} distinct digest(s) "
        f"{[d[:12] for d in result['digests']]}"
    )
    for error in result["errors"]:
        lines.append(f"  run failed: {error}")
    return "\n".join(lines)


def verdict(result: dict) -> bool:
    return (
        result["failed"] == 0
        and result["deterministic"]
        and not result["errors"]
    )


def ledger_table(results: list[dict]) -> str:
    """Share of each layer in traced self-time, one column per workload."""
    names = [r["workload"] for r in results]
    lines = ["== layer ledger (share of traced wall)",
             "  " + f"{'layer':<16}" + "".join(f"{n:>12}" for n in names)]
    for name in LEDGER_ROWS:
        cells = "".join(
            f"{100 * r['metrics'][name] / r['metrics']['traced_wall_s']:>11.1f}%"
            for r in results
        )
        lines.append(f"  {name:<16}{cells}")
    lines.append("  untraced spans (s)")
    for key in ("setup_s", *SETUP_SPANS, "sim.run_s", "wall_s",
                "traced_wall_s", "trace_overhead"):
        cells = "".join(f"{r['metrics'][key]:>12.3f}" for r in results)
        lines.append(f"  {key:<16}{cells}")
    return "\n".join(lines)


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    traced = bool(args.trace)
    units = PER_LAYER if traced else END_TO_END
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        prepare(tmp)
        try:
            for workload in workloads:
                results.append(
                    measure(workload, args.seed, args.seconds, traced)
                )
                print(render(results[-1], units), flush=True)
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
    if traced and len(results) > 1:
        print(ledger_table(results))
    for result in results:
        print("record: " + json.dumps(
            {k: result[k] for k in ("workload", "seed", "provenance",
                                    "samples", "digests", "errors")}
        ))
    prefix = len(results) > 1
    metrics = {
        (f"{r['workload']}.{name}" if prefix else name): {
            "value": r["metrics"][name], "unit": unit,
        }
        for r in results
        for name, unit in units.items()
    }
    print(json.dumps({
        "correct": all(verdict(r) for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
