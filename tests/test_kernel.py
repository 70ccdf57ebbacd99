"""Unit tests for the compiled kernel primitives (``repro._kernel``).

Each primitive is checked directly against its pure-Python ground truth
in the same process — ordering, results, and error *messages* (the
fallback contract promises byte-identical behaviour, which includes what
an exception says).  The build/fallback machinery is exercised in
subprocesses with a deliberately broken compiler.

Skips (with the reason) when the extension is unavailable, e.g. under
``REPRO_BACKEND=python`` CI legs or a host with no C toolchain.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import _kernel
from repro.cluster.hockney import FAST_ETHERNET
from repro.cluster.network import Network

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@pytest.fixture(scope="module")
def km():
    module = _kernel.kernel()
    if module is None:
        pytest.skip(
            f"compiled backend unavailable: {_kernel.backend_info()['reason']}"
        )
    return module


@pytest.fixture(scope="module")
def sim_classes(km):
    from repro.sim import engine

    compiled = engine.CompiledSimulator or engine._build_compiled_class(km)
    return engine.PySimulator, compiled


# --------------------------------------------------------------------------
# Engine: event ordering, time semantics, error messages
# --------------------------------------------------------------------------


def _drive(sim_cls, until=None):
    """Schedule a fixed mix of ties/out-of-order events; return the trace."""
    sim = sim_cls()
    order = []
    for label, delay in [
        ("a", 5.0), ("b", 1.0), ("c", 5.0), ("d", 0.0), ("e", 3.0),
    ]:
        sim.schedule(delay, lambda lb=label: order.append((lb, sim.now)))
    sim.call_soon(lambda: order.append(("soon", sim.now)))
    sim.schedule(2.0, lambda: sim.schedule(0.5, lambda: order.append(("nested", sim.now))))
    end = sim.run(until)
    return order, end, sim.events_processed


def test_engine_order_matches_python(sim_classes):
    py_cls, compiled_cls = sim_classes
    assert _drive(py_cls) == _drive(compiled_cls)
    assert _drive(py_cls, until=2.4) == _drive(compiled_cls, until=2.4)
    assert _drive(py_cls, until=100.0) == _drive(compiled_cls, until=100.0)


def test_engine_error_messages_match(sim_classes):
    from repro.sim.errors import SimulationError

    py_cls, compiled_cls = sim_classes
    messages = {}
    for name, cls in (("python", py_cls), ("compiled", compiled_cls)):
        sim = cls()
        with pytest.raises(SimulationError) as neg:
            sim.schedule(-1.5, lambda: None)
        sim.schedule(4.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError) as past:
            sim.at(1.0, lambda: None)
        messages[name] = (str(neg.value), str(past.value))
    assert messages["python"] == messages["compiled"]


def test_engine_counter_exact_on_raise(sim_classes):
    py_cls, compiled_cls = sim_classes

    def boom():
        raise RuntimeError("boom")

    counts = {}
    for name, cls in (("python", py_cls), ("compiled", compiled_cls)):
        sim = cls()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, boom)
        sim.schedule(3.0, lambda: None)
        with pytest.raises(RuntimeError):
            sim.run()
        counts[name] = sim.events_processed
    assert counts["python"] == counts["compiled"] == 2


# --------------------------------------------------------------------------
# Delivery dispatch: the fabric's ports against the Python ports
# --------------------------------------------------------------------------


def _wire(sim_cls, dispatch):
    """A 2-node network whose node 1 delivers through ``dispatch``."""
    sim = sim_cls()
    net = Network(sim, FAST_ETHERNET, 2)
    net.register_fast_dispatch(0, {}, lambda sender: None)
    net.register_fast_dispatch(1, dispatch, lambda sender: None)
    return sim, net


def test_dispatcher_routes_by_category(sim_classes):
    for sim_cls in sim_classes:
        seen = []
        dispatch = {"ping": seen.append, "pong": lambda p: seen.append(-p)}
        sim, net = _wire(sim_cls, dispatch)
        net.send(0, 1, "ping", 8, 1)
        net.send(0, 1, "pong", 8, 2)
        sim.run()
        assert seen == [1, -2]


def test_dispatcher_unhandled_message_matches_python(sim_classes):
    messages = []
    for sim_cls in sim_classes:
        sim, net = _wire(sim_cls, {})
        net.send(0, 1, "mystery", 8)
        with pytest.raises(RuntimeError) as err:
            sim.run()
        messages.append(str(err.value))
    assert messages == ["unhandled message category 'mystery'"] * 2


def test_dispatcher_sees_dict_mutations(sim_classes):
    """Ports read the registered dict live — handler swaps take effect."""
    for sim_cls in sim_classes:
        table = {}
        seen = []
        sim, net = _wire(sim_cls, table)
        table["late"] = seen.append
        net.send(0, 1, "late", 8, "x")
        sim.run()
        assert seen == ["x"]


# --------------------------------------------------------------------------
# compute_diff and adaptive_threshold: Python-only kernels
# --------------------------------------------------------------------------


def _reference_scan(current, twin):
    """The pure-numpy scan ``compute_diff`` performs."""
    indices = np.flatnonzero(current != twin)
    if indices.size == 0:
        return None
    nruns = 1 + int(np.count_nonzero(np.diff(indices) != 1))
    return indices, current[indices], nruns


@pytest.mark.parametrize(
    "dtype", ["float64", "float32", "int64", "int32", "int16", "int8", "bool"]
)
def test_diff_arrays_matches_numpy(dtype):
    from repro.memory.diff import DIFF_HEADER_BYTES, RUN_HEADER_BYTES, compute_diff

    rng = np.random.default_rng(42)
    for _ in range(25):
        size = int(rng.integers(1, 200))
        twin = (rng.integers(0, 4, size) * 10).astype(dtype)
        current = twin.copy()
        flips = rng.random(size) < 0.2
        current[flips] = (rng.integers(1, 4, size) * 7).astype(dtype)[flips]
        got = compute_diff(1, twin, current)
        want = _reference_scan(current, twin)
        if want is None:
            assert got is None
            continue
        np.testing.assert_array_equal(got.indices, want[0])
        np.testing.assert_array_equal(got.values, want[1])
        assert got.values.dtype == current.dtype
        assert got.size_bytes == (
            DIFF_HEADER_BYTES
            + want[2] * RUN_HEADER_BYTES
            + want[0].size * current.dtype.itemsize
        )


def test_diff_arrays_float_edge_semantics():
    """NaN and signed zero follow numpy ``!=``: NaN always differs,
    -0.0 vs 0.0 never does."""
    from repro.memory.diff import compute_diff

    twin = np.array([0.0, np.nan, 1.0, np.nan], dtype=np.float64)
    current = np.array([-0.0, np.nan, 1.0, 2.0], dtype=np.float64)
    diff = compute_diff(1, twin, current)
    np.testing.assert_array_equal(diff.indices, [1, 3])
    assert np.isnan(diff.values[0]) and diff.values[1] == 2.0


def test_compute_diff_skips_ndarray_subclasses():
    """``compute_diff`` handles ndarray subclasses (tests count their
    ``__ne__`` calls)."""

    class Tagged(np.ndarray):
        pass

    from repro.memory.diff import compute_diff

    twin = np.arange(8, dtype=np.float64).view(Tagged)
    current = twin.copy()
    current[3] += 1.0
    diff = compute_diff(1, twin, current)
    np.testing.assert_array_equal(diff.indices, [3])


def test_adaptive_threshold_matches_expression():
    from repro.core.threshold import adaptive_threshold

    rng = np.random.default_rng(7)
    for _ in range(200):
        red, excl = rng.uniform(0, 50, 2)
        alpha, lam = rng.uniform(0.01, 3.0, 2)
        t_init = rng.uniform(0, 10)
        base = t_init + rng.uniform(0, 50)
        got = adaptive_threshold(base, red, excl, alpha, lam, t_init)
        want = base + lam * (red - alpha * excl)
        if want < t_init:
            want = t_init
        assert got == want  # bit-identical, not approx


# --------------------------------------------------------------------------
# Future: the C twin of repro.sim.future.Future
# --------------------------------------------------------------------------


def _future_transcript(cls):
    """Exercise one class through the full Future contract; return a
    comparable transcript (values, callback orders, error messages)."""
    from repro.sim.errors import SimulationError

    out = []
    fut = cls(label="t")
    out.append((fut.resolved, fut.exception, repr(fut)))
    calls = []
    fut.add_done_callback(lambda f: calls.append(("first", f.value)))
    fut.add_done_callback(lambda f: calls.append(("second", f.value)))
    fut.resolve(41)
    out.append((fut.resolved, fut.value, calls, repr(fut)))
    fut.add_done_callback(lambda f: calls.append(("late", f.value)))
    out.append(list(calls))
    for exc_case in ("resolve", "fail"):
        try:
            getattr(fut, exc_case)(RuntimeError("x") if exc_case == "fail" else 1)
        except SimulationError as exc:
            out.append(str(exc))
    unread = cls(label="u")
    try:
        unread.value
    except SimulationError as exc:
        out.append(str(exc))
    try:
        unread.peek()
    except SimulationError as exc:
        out.append(str(exc))
    failed = cls(label="f")
    error = ValueError("boom")
    failed.fail(error)
    value, exc = failed.peek()
    out.append((failed.resolved, failed.exception is error, value, exc is error))
    try:
        failed.value
    except ValueError as exc:
        out.append(("reraised", exc is error))
    return out


def test_future_twin_matches_python(km):
    from repro.sim.future import Future as PyFuture

    assert _future_transcript(PyFuture) == _future_transcript(km.Future)


def test_future_classes_cover_both_backends(km):
    from repro.sim.future import Future as PyFuture, future_class, future_classes

    classes = future_classes()
    assert PyFuture in classes and km.Future in classes
    assert future_class() is km.Future


def test_process_blocks_on_compiled_future(km, sim_classes):
    """A generator yielding a C Future suspends and resumes exactly like
    one yielding the Python Future."""
    from repro.sim.process import Process

    _, compiled_cls = sim_classes
    sim = compiled_cls()
    fut = km.Future(label="gate")
    trace = []

    def body():
        value = yield fut
        trace.append(value)
        return value * 2

    proc = Process(sim, body(), name="p")
    proc.start()
    sim.schedule(5.0, lambda: fut.resolve(21))
    sim.run()
    assert trace == [21]
    assert proc.finished.value == 42


# --------------------------------------------------------------------------
# Arena: the C twin of repro.memory.arena.Arena
# --------------------------------------------------------------------------


def _arena_transcript(cls):
    """One allocation workout; returns (stats dict, error messages)."""
    arena = cls(1024, "t")
    a = arena.zeros(10)
    b = arena.take_copy(np.arange(5, dtype=np.float64))
    arena.free(a)
    c = arena.alloc(10)  # exact-shape reuse of a
    assert c.base is not None
    scratch = arena.bool_scratch(100)
    assert scratch.dtype == np.bool_ and scratch.size == 100
    errors = []
    for thunk in (
        lambda: arena.alloc(0),
        lambda: arena.take_copy(np.zeros((2, 2))),
        lambda: cls(8),
    ):
        try:
            thunk()
        except ValueError as exc:
            errors.append(str(exc))
    np.testing.assert_array_equal(b, np.arange(5, dtype=np.float64))
    return arena.stats(), errors


def test_arena_twin_matches_python(km):
    from repro.memory.arena import Arena as PyArena

    py_stats, py_errors = _arena_transcript(PyArena)
    c_stats, c_errors = _arena_transcript(km.Arena)
    assert py_stats == c_stats
    assert py_errors == c_errors


def test_arena_twin_zeroes_and_isolates_reuse(km):
    """Pooled reuse can never leak stale bytes through ``zeros``."""
    arena = km.Arena(1024, "reuse")
    first = arena.zeros(16)
    first[:] = 7.5
    arena.free(first)
    again = arena.zeros(16)
    np.testing.assert_array_equal(again, np.zeros(16))


def test_new_arena_returns_backend_class(km):
    from repro.memory.arena import new_arena

    assert type(new_arena(label="x")).__module__ == "repro._kernel._kernelc"


# --------------------------------------------------------------------------
# Ready + Accessor: the fused local-access fast path
# --------------------------------------------------------------------------


def test_ready_is_single_use_yield_from_target(km):
    def consume(it):
        value = yield from it
        return value

    gen = consume(km.Ready({"k": 1}))
    with pytest.raises(StopIteration) as stop:
        next(gen)
    assert stop.value.value == {"k": 1}
    # a consumed Ready ends iteration immediately, with no value
    spent = km.Ready(5)
    assert list(spent) == []
    assert list(spent) == []


def test_accessor_hit_and_miss_paths(km):
    """ctx.read/ctx.write route through the C Accessor under the
    compiled backend: a home-copy write is a local hit, a remote read
    faults in through the protocol generator — and the run's result is
    what the Python wrapper would produce."""
    from repro.apps.base import DsmApplication
    from repro.bench.runner import make_comm_model
    from repro.gos.jvm import DistributedJVM

    class Probe(DsmApplication):
        name = "accessor-probe"

        def setup(self, gos, nthreads):
            self.arr = gos.alloc_array(8, home=0, label="arr")
            self.gate = gos.alloc_barrier(nthreads)

        def thread_body(self, ctx, tid):
            if tid == 0:
                payload = yield from ctx.write(self.arr)  # home hit
                payload[0] = 42.0
            yield from ctx.barrier(self.gate)
            got = yield from ctx.read(self.arr)  # tid 1: remote fault-in
            self.seen[tid] = float(got[0])

        def setup_run(self):
            self.seen = {}

        def finalize(self, gos):
            return dict(self.seen)

    app = Probe()
    app.setup_run()
    jvm = DistributedJVM(nodes=2, comm_model=make_comm_model("fast-ethernet"))
    result = jvm.run(app, nthreads=2)
    assert result.output == {0: 42.0, 1: 42.0}


def test_thread_context_binds_accessor_methods(km):
    """Under the compiled backend the context's read/write are the C
    Accessor's bound methods, not the Python wrappers."""
    from repro.bench.runner import make_comm_model
    from repro.gos.space import GlobalObjectSpace
    from repro.gos.thread import ThreadContext

    gos = GlobalObjectSpace(
        nnodes=2, comm_model=make_comm_model("fast-ethernet")
    )
    ctx = ThreadContext(gos, tid=0, node=0)
    assert type(ctx.read).__name__ == "builtin_function_or_method"
    assert type(ctx.read.__self__) is km.Accessor
    assert ctx.write.__self__ is ctx.read.__self__


# --------------------------------------------------------------------------
# Build / fallback machinery
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def cacheless_src(tmp_path_factory):
    """A copy of ``src/`` with no build cache — a host that never built.

    Needed because ``import repro`` resolves the backend eagerly (the
    engine binds ``Simulator`` at import), so a cached ``.so`` next to
    the real source would satisfy even a broken compiler.
    """
    import shutil

    dest = tmp_path_factory.mktemp("cacheless") / "src"
    shutil.copytree(
        SRC, dest, ignore=shutil.ignore_patterns("_build", "__pycache__")
    )
    return dest


def _subprocess_check(src_dir: Path, backend: str, code: str) -> None:
    env = dict(
        os.environ,
        PYTHONPATH=str(src_dir),
        REPRO_BACKEND=backend,
        REPRO_KERNEL_CC="/nonexistent-compiler",
        XDG_CACHE_HOME="/nonexistent-cache",
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith("OK"), proc.stdout


def test_auto_falls_back_when_compiler_is_broken(cacheless_src):
    """No toolchain + no cache => ``import repro`` still succeeds, on the
    pure-Python backend, with one RuntimeWarning."""
    _subprocess_check(
        cacheless_src,
        "auto",
        """\
import warnings
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    import repro
    from repro import _kernel
    name = _kernel.backend_name()
assert name == "python", name
assert any(
    "falling back to the pure-Python backend" in str(w.message)
    for w in caught
), [str(w.message) for w in caught]
from repro.sim.engine import Simulator, PySimulator
assert Simulator is PySimulator
print("OK")
""",
    )


def test_compiled_request_raises_when_compiler_is_broken(cacheless_src):
    _subprocess_check(
        cacheless_src,
        "compiled",
        """\
try:
    # raises during import: the engine binds Simulator eagerly
    import repro
    repro.sim  # pragma: no cover - unreachable
except RuntimeError as exc:
    assert "compiled backend requested but unavailable" in str(exc), exc
    print("OK")
else:
    raise SystemExit("expected RuntimeError")
""",
    )


def test_fallback_warning_fires_once_per_process(cacheless_src):
    """The auto-mode fallback RuntimeWarning is latched per process:
    ``select_backend()`` re-resolutions on a compiler-less host must not
    re-fire it."""
    _subprocess_check(
        cacheless_src,
        "auto",
        """\
import warnings
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    import repro
    from repro import _kernel
    assert _kernel.backend_name() == "python"
    # two explicit re-resolutions: each re-attempts (and re-fails) the
    # compiled build, but the warning must stay a one-liner
    assert _kernel.select_backend("auto") == "python"
    assert _kernel.select_backend("auto") == "python"
fallbacks = [
    w for w in caught
    if "falling back to the pure-Python backend" in str(w.message)
]
assert len(fallbacks) == 1, [str(w.message) for w in caught]
assert issubclass(fallbacks[0].category, RuntimeWarning)
print("OK")
""",
    )


def test_backend_info_reports_extension(km):
    info = _kernel.backend_info()
    assert info["backend"] == "compiled"
    assert info["reason"] == "extension loaded"
    assert info.get("extension")
