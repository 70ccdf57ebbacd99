"""One benchmark run of one workload, in a process of its own.

``run.py`` imports this module once, warms imports and the compiled
kernel with :func:`warm`, and then forks a fresh child for every run,
which calls :func:`run` and dies.  A child starts from the warmed image
and never from another run's state, and its ``ru_maxrss`` is its own.

Between runs ``run.py`` forks a child that times :func:`calibrate`, a
fixed loop whose only job is to measure how fast the host is just then.

Modes of :func:`run`:

* ``run``    -- one untraced run: timings, counters, digest, check.
* ``traced`` -- the same run under cProfile, plus the layer ledger.

The program is driven only through its public calls (``run_spec``,
``run_serving``).  Set-up spans are timed from outside by subclasses
and wrappers installed where those calls look them up:
``repro.bench.serving.SpecProgram`` and ``build_serving_program``,
``repro.gos.jvm.GlobalObjectSpace`` and ``ClusterTopology.tables``.
No tracer, metrics registry or logger is attached beyond what a
workload itself asks for, so the measured code path is the production
one.
"""

from __future__ import annotations

import cProfile
import hashlib
import heapq
import json
import os
import platform
import pstats
import resource
from pathlib import Path
from time import perf_counter

import numpy as np

import repro
import repro.bench.serving as serving_module
import repro.gos.jvm as jvm_module
from repro import _kernel
from repro.apps.asp import Asp, floyd_oracle, random_graph
from repro.apps.serving import ServingSpec
from repro.bench.executor import RunSpec, run_spec
from repro.check.oracle import check_episode
from repro.cluster.message import MsgCategory
from repro.cluster.topology import ClusterTopology

import ledger

#: The seed is the only input that varies between runs of a workload;
#: why each workload exists is recorded in BENCHMARK.json.
ASP_NODES = 16
ASP_SIZE = 512


def serving_spec(workload: str, seed: int) -> ServingSpec:
    """The serving episode of ``workload`` with traffic drawn from ``seed``."""
    if workload == "serve-256":
        return ServingSpec(
            seed=seed, nodes=256, keys=1024, phases=8,
            requests_per_thread=16, churn=0.125, policy="AT",
            topology="fat-tree:edge=16:pod=4:oversub=2:contention=1",
        )
    if workload == "bcast-1024":
        return ServingSpec(
            seed=seed, nodes=1024, keys=2048, phases=4,
            requests_per_thread=8, churn=0.125, policy="AT",
            mechanism="broadcast", release_fanout=4,
            topology="fat-tree:edge=16:pod=8:oversub=2:contention=1",
        )
    raise ValueError(f"unknown workload {workload!r}")


class Probe:
    """Wall-clock marks and captured objects of one run."""

    def __init__(self):
        self.spans = {
            "apps.expand_s": 0.0,
            "gos.build_s": 0.0,
            "cluster.tables_s": 0.0,
            "apps.setup_s": 0.0,
        }
        self.setup_end: float | None = None
        self.sim_end: float | None = None
        self.gos = None
        self.app = None
        self.output = None

    def timed_app(self, base: type) -> type:
        """A subclass of application ``base`` that marks set-up and end."""
        probe = self

        class Timed(base):
            def setup(self, gos, nthreads):
                probe.app = self
                start = perf_counter()
                super().setup(gos, nthreads)
                probe.setup_end = perf_counter()
                probe.spans["apps.setup_s"] += probe.setup_end - start

            def finalize(self, gos):
                probe.sim_end = perf_counter()
                probe.output = super().finalize(gos)
                return probe.output

        Timed.__name__ = base.__name__
        return Timed

    def install(self) -> None:
        """Put the timing hooks where the program looks them up."""
        probe = self
        spans = self.spans

        tables = ClusterTopology.tables

        def timed_tables(topology):
            start = perf_counter()
            try:
                return tables(topology)
            finally:
                spans["cluster.tables_s"] += perf_counter() - start

        ClusterTopology.tables = timed_tables

        class TimedSpace(jvm_module.GlobalObjectSpace):
            def __init__(self, *args, **kwargs):
                start = perf_counter()
                nested = spans["cluster.tables_s"]
                super().__init__(*args, **kwargs)
                spans["gos.build_s"] += (
                    perf_counter() - start
                    - (spans["cluster.tables_s"] - nested)
                )
                probe.gos = self

        jvm_module.GlobalObjectSpace = TimedSpace

        expand = serving_module.build_serving_program

        def timed_expand(spec):
            start = perf_counter()
            try:
                return expand(spec)
            finally:
                spans["apps.expand_s"] += perf_counter() - start

        serving_module.build_serving_program = timed_expand
        serving_module.SpecProgram = self.timed_app(serving_module.SpecProgram)


def spec_summary(workload: str, seed: int) -> dict:
    """The generated program input, as recorded in the result."""
    if workload == "asp-16":
        return {
            "app": "asp", "size": ASP_SIZE, "seed": seed, "policy": "AT",
            "nodes": ASP_NODES, "mechanism": "forwarding-pointer",
            "comm_model": "fast-ethernet", "topology": None,
        }
    return dict(vars(serving_spec(workload, seed)))


def run_workload(workload: str, seed: int, probe: Probe):
    """Run the workload once; return the program's own result object."""
    if workload == "asp-16":
        return run_spec(
            RunSpec(
                app=probe.timed_app(Asp),
                app_kwargs={"size": ASP_SIZE, "seed": seed},
                policy="AT",
                nodes=ASP_NODES,
                verify=False,
            )
        )
    return serving_module.run_serving(serving_spec(workload, seed))


# -- correctness --------------------------------------------------------


def expected_outputs(workload: str, seed: int, app) -> int:
    """Outputs one run of ``workload`` is checked on (``app`` is the
    captured application, or ``None`` when the run failed before it)."""
    if workload == "asp-16":
        return ASP_SIZE
    if app is not None:
        spec = app.spec
    else:
        spec = serving_module.build_serving_program(
            serving_spec(workload, seed)
        )
    reads = sum(
        1
        for phase in spec.phases
        for sections in phase
        for section in sections
        for op in section.ops
        if op[0] in ("read", "ship_add")
    )
    return reads + sum(o.length for o in spec.objects)


def check_outputs(workload: str, seed: int, probe: Probe) -> int:
    """Number of checked outputs that disagree with the reference."""
    if workload == "asp-16":
        expected = floyd_oracle(random_graph(ASP_SIZE, seed))
        output = probe.output
        return sum(
            1
            for i in range(ASP_SIZE)
            if not np.array_equal(output[i], expected[i])
        )
    app = probe.app
    return len(check_episode(app.spec, app.execution_log, probe.output))


# -- counters -----------------------------------------------------------


def counters(workload: str, result, probe: Probe) -> dict:
    """Deterministic outcomes and per-layer counts of a finished run."""
    gos = probe.gos
    stats = gos.stats
    events = stats.events
    data_msgs = stats.data_messages()
    sync_msgs = stats.total_messages() - data_msgs
    faults = events.get("obj", 0) + events.get("mig", 0)
    remote = events.get("remote_read", 0) + events.get("remote_write", 0)
    home_writes = events.get("home_write", 0)
    footprint = gos.memory_footprint()
    arena = footprint["arena"]
    out = {
        "messages": stats.total_messages(),
        "net_mb": stats.total_bytes() / 1e6,
        "sim.events": gos.sim.events_processed,
        "cluster.data_msgs": data_msgs,
        "cluster.sync_msgs": sync_msgs,
        "cluster.bcast_msgs": stats.msg_count.get(MsgCategory.HOME_BCAST, 0),
        "dsm.faults": faults,
        "dsm.diffs": events.get("diff", 0),
        "dsm.redirects": events.get("redir", 0),
        "dsm.redirect_ratio": events.get("redir", 0) / faults if faults else 0.0,
        "dsm.remote_ratio": (
            remote / (remote + home_writes) if remote + home_writes else 0.0
        ),
        "core.migrations": events.get("migration", 0),
        "core.exclusive_ratio": (
            events.get("exclusive_home_write", 0) / home_writes
            if home_writes else 0.0
        ),
        "memory.arena_reuse_ratio": (
            arena["reuses"] / arena["carves"] if arena["carves"] else 0.0
        ),
        "memory.peak_cache_entries": footprint["peaks"].get("cache_entries", 0),
        "trace.events": len(gos.tracer.events) if gos.tracer is not None else 0,
        "obs.spans": gos.spans.issued if gos.spans is not None else 0,
    }
    if workload == "asp-16":
        out["sim_time_s"] = result.time_us / 1e6
        snapshot = {"stats": stats.snapshot(), "time_us": result.time_us}
        blob = json.dumps(snapshot, sort_keys=True, separators=(",", ":"))
        out["digest"] = hashlib.sha256(blob.encode()).hexdigest()
        latency = {}
    else:
        out["sim_time_s"] = result["sim_time_us"] / 1e6
        out["digest"] = serving_module.report_digest(result)
        latency = result["latency_us"]
    for cls, name in (("all", "req"), ("get", "req.get"), ("put", "req.put")):
        summary = latency.get(cls, {})
        out[f"{name}.p99_us"] = summary.get("p99") or 0.0
        out[f"{name}.p999_us"] = summary.get("p999") or 0.0
    return out


# -- provenance ---------------------------------------------------------


def cpu_model() -> str:
    """Host CPU model name, as the kernel reports it."""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def source_digest(package_dir: Path) -> str:
    """sha256 over the program's source files (a revision for trees
    that are not git checkouts)."""
    digest = hashlib.sha256()
    for path in sorted(package_dir.rglob("*")):
        if path.suffix in (".py", ".c") and "_build" not in path.parts:
            digest.update(str(path.relative_to(package_dir)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance() -> dict:
    package_dir = Path(repro.__file__).parent
    return {
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": _kernel.backend_name(),
        "kernel_build": _kernel.build_hash(),
        "source_digest": source_digest(package_dir),
    }


# -- host speed ---------------------------------------------------------

#: Time of :func:`calibrate` on the 2-vCPU Xeon virtual machine the
#: benchmark was tuned on.  Walls rescaled by ``CAL_REF_S / cal_s`` read
#: as seconds on that host at its usual speed.  Changing the loop or this
#: constant changes every rescaled figure, so neither may change without
#: re-measuring the baseline.
CAL_REF_S = 0.040


def calibrate() -> dict:
    """Time a fixed mix of interpreter work (dict updates, a small heap),
    small numpy operations and a stream over 16 MiB -- the kinds of work
    the simulator does -- to gauge the host's current speed."""
    row = np.arange(512, dtype=np.int64)
    acc = np.full(512, 1 << 40, dtype=np.int64)
    big = np.arange(1 << 21, dtype=np.int64)
    table: dict[int, int] = {}
    heap: list[int] = []
    start = perf_counter()
    for i in range(60000):
        table[i & 1023] = table.get((i * 7) & 1023, 0) + i
        heapq.heappush(heap, (i * 7919) % 10007)
        if len(heap) > 64:
            heapq.heappop(heap)
        if i % 32 == 0:
            np.minimum(acc, row + i, out=acc)
    for _ in range(4):
        int(big.sum())
    return {"cal_s": perf_counter() - start}


# -- entry points -------------------------------------------------------


def warm(workload: str, seed: int) -> dict:
    """Resolve (and on first use build) the kernel; return provenance.

    Never lets a fallback to pure Python pass as a result."""
    if _kernel.backend_name() != "compiled":
        raise RuntimeError(
            f"compiled backend unavailable: {_kernel.backend_info()}"
        )
    return {**provenance(), "spec": spec_summary(workload, seed)}


def run(mode: str, workload: str, seed: int) -> dict:
    """One run of ``workload``: its timings, counters and check."""
    if mode not in ("run", "traced"):
        raise ValueError(f"unknown mode {mode!r}")
    probe = Probe()
    probe.install()
    profiler = cProfile.Profile() if mode == "traced" else None
    raised = None
    result = None
    start = perf_counter()
    try:
        if profiler is not None:
            profiler.enable()
        try:
            result = run_workload(workload, seed, probe)
        finally:
            if profiler is not None:
                profiler.disable()
    except Exception as exc:  # a failing run is reported, not hidden
        raised = f"{type(exc).__name__}: {exc}"
    end = perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted = expected_outputs(workload, seed, probe.app)
    if raised is not None:
        return {"error": raised, "attempted": attempted, "failed": attempted}
    out = {
        "setup_s": probe.setup_end - start,
        **probe.spans,
        "wall_s": end - start,
        "peak_rss_mb": peak_rss_mb,
        "sim.run_s": probe.sim_end - probe.setup_end,
        **counters(workload, result, probe),
        "attempted": attempted,
        "failed": check_outputs(workload, seed, probe),
    }
    if profiler is not None:
        layers = ledger.LayerMap(str(Path(repro.__file__).parent))
        out["self_s"] = ledger.layer_self_times(
            pstats.Stats(profiler), layers
        )
    return out
