"""DistributedJVM: build the simulated machine, run an application.

Mirrors the paper's execution model (§5): "A Java application is started
in one cluster node.  When a Java thread is created, it is automatically
dispatched to a free cluster node" — thread placement defaults to
``tid -> node tid % nnodes`` and can be overridden by the application
(the synthetic benchmark places its workers on nodes other than node 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, TYPE_CHECKING

from repro.cluster.hockney import HockneyModel
from repro.cluster.stats import ClusterStats
from repro.core.policies import MigrationPolicy, NoMigration
from repro.dsm.redirection import (
    ForwardingPointerMechanism,
    NotificationMechanism,
)
from repro.gos.space import GlobalObjectSpace
from repro.gos.thread import ThreadContext

if TYPE_CHECKING:  # pragma: no cover
    from repro.apps.base import DsmApplication


@dataclass
class RunResult:
    """Everything one run produced: timing, traffic, and application output."""

    app_name: str
    policy_name: str
    mechanism_name: str
    nnodes: int
    nthreads: int
    execution_time_us: float
    stats: ClusterStats
    output: Any = None
    gos: GlobalObjectSpace = field(repr=False, default=None)

    @property
    def execution_time_s(self) -> float:
        return self.execution_time_us / 1e6

    @property
    def migrations(self) -> int:
        return self.stats.events.get("migration", 0)

    def summary(self) -> dict:
        """Stable plain-dict summary used by the bench harness and tests."""
        return {
            "app": self.app_name,
            "policy": self.policy_name,
            "mechanism": self.mechanism_name,
            "nodes": self.nnodes,
            "threads": self.nthreads,
            "time_us": self.execution_time_us,
            "messages": self.stats.total_messages(),
            "data_messages": self.stats.data_messages(),
            "bytes": self.stats.total_bytes(),
            "data_bytes": self.stats.data_bytes(),
            "migrations": self.migrations,
            "breakdown": self.stats.breakdown(),
        }


class DistributedJVM:
    """One-call façade: configure the cluster once, run applications."""

    def __init__(
        self,
        nodes: int,
        comm_model: HockneyModel,
        policy: MigrationPolicy | None = None,
        mechanism: NotificationMechanism | None = None,
        service_us: float | None = None,
        protocol: str = "home-based",
        tracer=None,
        lock_discipline: str = "fifo",
        seed: int = 0,
        metrics=None,
        logger=None,
        heartbeat_events: int | None = None,
        gc_enabled: bool = True,
        topology=None,
        release_fanout: int | None = None,
    ):
        if nodes < 1:
            raise ValueError(f"need at least one node, got {nodes}")
        if protocol not in ("home-based", "homeless"):
            raise ValueError(
                f"protocol must be 'home-based' or 'homeless', got {protocol!r}"
            )
        if heartbeat_events is not None and heartbeat_events < 1:
            raise ValueError(
                f"heartbeat_events must be >= 1, got {heartbeat_events}"
            )
        self.nodes = nodes
        self.comm_model = comm_model
        self.policy = policy if policy is not None else NoMigration()
        self.mechanism = (
            mechanism if mechanism is not None else ForwardingPointerMechanism()
        )
        self.service_us = service_us
        self.protocol = protocol
        self.tracer = tracer
        self.lock_discipline = lock_discipline
        self.seed = seed
        #: Optional :class:`~repro.obs.metrics.MetricsRegistry` threaded
        #: into the network and engines of every home-based run.
        self.metrics = metrics
        #: Optional :class:`~repro.obs.logging.RunLogger`.
        self.logger = logger
        #: When set, :meth:`run` installs a simulator heartbeat logging an
        #: ``info``-level progress line every this many processed events.
        self.heartbeat_events = heartbeat_events
        #: Barrier-epoch memory GC in the home-based engines (``--no-gc``
        #: escape hatch turns it off; results are identical either way,
        #: only the memory footprint differs).
        self.gc_enabled = gc_enabled
        #: Opt-in interconnect topology (spec string, dict or
        #: :class:`~repro.cluster.topology.ClusterTopology`); ``None``
        #: keeps the seed's ideal single switch (PROTOCOL.md §15).
        self.topology = topology
        #: Opt-in k-ary multicast relay for barrier releases; ``None``
        #: keeps the legacy direct burst.
        self.release_fanout = release_fanout

    def run(
        self, app: "DsmApplication", nthreads: int | None = None
    ) -> RunResult:
        """Execute ``app`` on a freshly built cluster; verify its output.

        Each run constructs a new :class:`GlobalObjectSpace` (fresh
        simulator, network, heap, engines), so runs are independent and
        deterministic.
        """
        threads = nthreads if nthreads is not None else app.default_threads(self.nodes)
        if threads < 1:
            raise ValueError(f"need at least one thread, got {threads}")
        if self.protocol == "homeless":
            from repro.gos.homeless import HomelessObjectSpace

            gos = HomelessObjectSpace(
                nnodes=self.nodes,
                comm_model=self.comm_model,
                service_us=self.service_us,
            )
        else:
            gos = GlobalObjectSpace(
                nnodes=self.nodes,
                comm_model=self.comm_model,
                policy=self.policy,
                mechanism=self.mechanism,
                service_us=self.service_us,
                tracer=self.tracer,
                lock_discipline=self.lock_discipline,
                seed=self.seed,
                metrics=self.metrics,
                logger=self.logger,
                gc_enabled=self.gc_enabled,
                topology=self.topology,
                release_fanout=self.release_fanout,
            )
        log = self.logger
        log_info = log is not None and log.enabled_for("info")
        if log_info:
            log.info(
                "run_start",
                app=app.name,
                protocol=self.protocol,
                nodes=self.nodes,
                threads=threads,
            )
        if self.heartbeat_events is not None and log_info:
            gos.sim.set_heartbeat(
                self.heartbeat_events,
                lambda sim: log.info(
                    "heartbeat",
                    events=sim.events_processed,
                    sim_us=sim.now,
                ),
            )
        app.setup(gos, threads)
        processes = []
        for tid in range(threads):
            node = app.placement(tid, self.nodes, threads)
            ctx = ThreadContext(gos, tid, node)
            processes.append(
                gos.sim.spawn(app.thread_body(ctx, tid), name=f"{app.name}-t{tid}")
            )
        try:
            execution_time = gos.sim.run()
        except Exception:
            # a thread failure often surfaces as a deadlock of its peers;
            # report the root cause instead
            for process in processes:
                if process.done and process.finished.exception is not None:
                    raise process.finished.exception from None
            raise
        for process in processes:
            if process.finished.exception is not None:
                raise process.finished.exception
        gos.network.publish_metrics()
        output = app.finalize(gos)
        if log_info:
            log.info(
                "run_end",
                app=app.name,
                sim_time_us=execution_time,
                events=gos.sim.events_processed,
                messages=gos.stats.total_messages(),
                migrations=gos.stats.events.get("migration", 0),
            )
        # A bounded TraceRecorder that evicted span events has broken
        # causal trees: never let that pass silently.
        dropped_spans = getattr(self.tracer, "dropped_spans", 0)
        if dropped_spans:
            if log is not None:
                log.warning(
                    "dropped_spans",
                    app=app.name,
                    dropped_spans=dropped_spans,
                    dropped_total=getattr(self.tracer, "dropped", 0),
                )
            else:  # no logger: fall back to a stdlib warning
                import warnings

                warnings.warn(
                    f"trace recorder dropped {dropped_spans} span events "
                    f"(max_events too small); causal trees are incomplete",
                    RuntimeWarning,
                    stacklevel=2,
                )
        return RunResult(
            app_name=app.name,
            policy_name=(
                "HOMELESS" if self.protocol == "homeless" else self.policy.name
            ),
            mechanism_name=self.mechanism.name,
            nnodes=self.nodes,
            nthreads=threads,
            execution_time_us=execution_time,
            stats=gos.stats,
            output=output,
            gos=gos,
        )
