"""Shared fixtures for the test suite."""

from __future__ import annotations

from functools import partial

import pytest

from repro.cluster.hockney import FAST_ETHERNET
from repro.cluster.message import MsgCategory
from repro.cluster.network import Network
from repro.cluster.stats import ClusterStats
from repro.core.policies import AdaptiveThreshold, NoMigration
from repro.gos.jvm import DistributedJVM
from repro.gos.space import GlobalObjectSpace
from repro.sim.engine import Simulator


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def stats() -> ClusterStats:
    return ClusterStats()


def delivery_simulators() -> list[type]:
    """Simulator classes of every available delivery path.

    The pure-Python simulator drives the reference send and delivery
    ports; the compiled engine, present when the kernel builds, drives
    the C ``NetFabric``.
    """
    from repro import _kernel
    from repro.sim import engine

    classes = [engine.PySimulator]
    kernel_module = _kernel.kernel()
    if kernel_module is not None:
        classes.append(
            engine.CompiledSimulator
            or engine._build_compiled_class(kernel_module)
        )
    return classes


def _record(inbox, sim, node, category, payload):
    inbox.append((node, category, payload, sim.now))


def wired_networks(nnodes: int, model=FAST_ETHERNET, **network_kwargs):
    """Yield ``(sim, net, stats, inbox)`` once per delivery path.

    Every node registers a dispatch dict that appends ``(node,
    category, payload, arrival_time)`` to ``inbox``, so the network is
    live and each test body checks both the Python path and the
    compiled fabric.
    """
    for sim_cls in delivery_simulators():
        sim = sim_cls()
        stats = ClusterStats()
        net = Network(sim, model, nnodes, stats, **network_kwargs)
        inbox: list = []
        for node in range(nnodes):
            dispatch = {
                category: partial(_record, inbox, sim, node, category)
                for category in MsgCategory
            }
            net.register_fast_dispatch(node, dispatch, lambda sender: None)
        yield sim, net, stats, inbox


def make_gos(nnodes: int = 4, policy=None, mechanism=None) -> GlobalObjectSpace:
    """A small cluster with the given policy (NoMigration by default)."""
    return GlobalObjectSpace(
        nnodes=nnodes,
        comm_model=FAST_ETHERNET,
        policy=policy if policy is not None else NoMigration(),
        mechanism=mechanism,
    )


def make_jvm(nodes: int = 4, policy=None, mechanism=None) -> DistributedJVM:
    """A small DistributedJVM with AT by default."""
    return DistributedJVM(
        nodes=nodes,
        comm_model=FAST_ETHERNET,
        policy=policy if policy is not None else AdaptiveThreshold(),
        mechanism=mechanism,
    )


@pytest.fixture
def gos() -> GlobalObjectSpace:
    return make_gos()


def run_threads(gos: GlobalObjectSpace, *bodies) -> float:
    """Spawn generator thread bodies, drain the simulation, surface errors."""
    processes = [
        gos.sim.spawn(body, name=f"test-thread-{i}")
        for i, body in enumerate(bodies)
    ]
    try:
        end = gos.sim.run()
    except Exception:
        # prefer a thread's root-cause failure over the induced deadlock
        for process in processes:
            if process.done and process.finished.exception is not None:
                raise process.finished.exception from None
        raise
    for process in processes:
        if process.finished.exception is not None:
            raise process.finished.exception
    return end
