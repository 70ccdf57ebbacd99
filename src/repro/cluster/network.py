"""Switched cluster network with Hockney latency and per-NIC serialization.

Timing model for a message of ``m`` bytes from ``src`` to ``dst``:

* the sender's NIC is busy injecting for ``transfer_us(m) = m / r_inf``;
  injections from one node serialize (``nic_free`` bookkeeping), modelling
  a single full-duplex link into the switch;
* the wire+stack latency adds the start-up term, so arrival is
  ``injection_end + t0``;
* the receiving node's delivery port charges its service overhead
  before the protocol handler runs.

End-to-end latency of an isolated message is therefore exactly the Hockney
``t(m) = t0 + m/r_inf`` (plus receiver service time), while bursts of
messages from one node back-pressure each other — enough fidelity for the
message-count/traffic/ordering behaviour the protocol depends on.

Local messages (``src == dst``) are not allowed: the DSM layer handles
node-local operations without the network, as the real system does.

There is one delivery path.  Every node's protocol engine registers a
category -> handler dict (:meth:`Network.register_fast_dispatch`); once
all have, sends run through the compiled ``NetFabric`` when the
simulator is the compiled engine, else through the pure-Python
:meth:`Network._py_send` and :class:`_PyDeliveryPort` reference.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, TYPE_CHECKING

from repro.cluster.hockney import HockneyModel
from repro.cluster.message import HEADER_BYTES, MsgCategory
from repro.cluster.stats import ClusterStats
from repro.cluster.topology import ClusterTopology, make_topology

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator

#: Fixed CPU overhead charged at the receiver per handled message
#: (interrupt + protocol dispatch), in microseconds.
DEFAULT_SERVICE_US = 5.0


class _PyDeliveryPort:
    """Pure-Python twin of the kernel's ``DeliveryPort``.

    Batching rule (identical in C): an arrival coalesces into the open
    batch iff it flushes at the same instant *and* the engine's sequence
    counter still equals the watermark recorded right after the batch's
    flush event was scheduled.  Any interleaved event — another port's
    flush, a handler-scheduled callback — advances the counter and
    breaks coalescing, so handlers run in exactly the order one flush
    event per message would give.
    """

    __slots__ = ("_sim", "_dispatch", "_service", "_batch", "_batch_time",
                 "_watermark")

    def __init__(self, sim: "Simulator", dispatch: dict, service_us: float):
        self._sim = sim
        self._dispatch = dispatch
        self._service = service_us
        self._batch: list | None = None
        self._batch_time = 0.0
        self._watermark = -1

    def arrive(self, category: MsgCategory, payload: Any) -> None:
        sim = self._sim
        time = sim._now + self._service
        batch = self._batch
        if (batch is not None and self._batch_time == time
                and sim._seq == self._watermark):
            batch.append((category, payload))
            return
        batch = [(category, payload)]
        sim.schedule(self._service, self.flush, batch)
        self._batch = batch
        self._batch_time = time
        self._watermark = sim._seq

    def flush(self, batch: list) -> None:
        if batch is self._batch:
            self._batch = None
        dispatch = self._dispatch
        for category, payload in batch:
            handler = dispatch.get(category)
            if handler is None:
                raise RuntimeError(
                    f"unhandled message category {category!r}"
                )
            handler(payload)


class Network:
    """The cluster interconnect: routes messages between node engines."""

    def __init__(
        self,
        sim: "Simulator",
        comm_model: HockneyModel,
        nnodes: int,
        stats: ClusterStats | None = None,
        service_us: float | None = None,
        metrics=None,
        topology: "ClusterTopology | str | dict | None" = None,
    ):
        if nnodes < 1:
            raise ValueError(f"need at least one node, got {nnodes}")
        if service_us is None:
            service_us = DEFAULT_SERVICE_US
        if service_us < 0:
            raise ValueError(f"service_us must be non-negative, got {service_us}")
        self.sim = sim
        self.comm_model = comm_model
        self.stats = stats if stats is not None else ClusterStats()
        self.nnodes = nnodes
        #: Receiver CPU time charged per delivered message (every node).
        self.service_us = service_us
        self._nic_free = [0.0] * nnodes
        # Hot-path pre-binds: one attribute resolution at construction
        # instead of several per message.
        self._transfer_us = comm_model.transfer_us
        self._startup_us = comm_model.startup_us
        self._sim_at = sim.at
        #: Optional :class:`~repro.obs.metrics.MetricsRegistry`; the run's
        #: per-category totals land in it via :meth:`publish_metrics`.
        self.metrics = metrics
        #: Delivery state: ``None`` until every node has registered its
        #: dispatch dict, then the compiled fabric's or the Python send.
        self._send: Callable | None = None
        self._dispatch: dict[int, dict] = {}
        self._bind: dict[int, Callable] = {}
        self._ports: list[_PyDeliveryPort] | None = None
        self._fabric = None
        #: Optional interconnect topology (PROTOCOL.md §15).  ``None``
        #: keeps the seed's ideal single switch bit for bit; a topology
        #: adds per-pair hop latency, an oversubscription transfer
        #: penalty and (optionally) serialized uplink contention on top
        #: of the Hockney NIC model — identical math in the Python send
        #: and the compiled fabric.
        self.topology = make_topology(topology, nnodes)
        if self.topology is not None:
            self._topo_pair = self.topology.pair
            self._topo_contention = self.topology.contention
            self._topo_link_free = [0.0] * self.topology.nlinks
            self._bandwidth = comm_model.bandwidth_mb_s
        else:
            self._topo_pair = None

    def register_fast_dispatch(
        self, node_id: int, dispatch: dict, bind_sender: Callable
    ) -> None:
        """Register one node's engine for delivery.

        ``dispatch`` is the engine's category -> handler dict (read live,
        so later handler swaps stay visible); ``bind_sender`` is called
        with a per-node ``(dst, category, size_bytes, payload)`` send
        callable once *every* node has registered.  No message can be
        sent before then.
        """
        if not 0 <= node_id < self.nnodes:
            raise ValueError(f"node {node_id} outside cluster")
        if node_id in self._dispatch:
            raise RuntimeError(f"node {node_id} already registered")
        self._dispatch[node_id] = dispatch
        self._bind[node_id] = bind_sender
        if len(self._dispatch) == self.nnodes:
            self._activate()

    def _activate(self) -> None:
        from repro import _kernel

        kernel_module = _kernel.kernel()
        sim = self.sim
        if kernel_module is not None and isinstance(sim, kernel_module.Engine):
            fabric = kernel_module.NetFabric(
                sim,
                self.stats.msg_count,
                self.stats.msg_bytes,
                self._startup_us,
                self.comm_model.bandwidth_mb_s,
                HEADER_BYTES,
                self._nic_free,
            )
            if self.topology is not None:
                # Per-pair cost tables precomputed from the same pair()
                # the Python path calls — the kernel branch reads the
                # identical float64 values.
                hop, pen, link = self.topology.tables()
                fabric.set_topology(
                    hop,
                    pen,
                    link,
                    self.topology.nlinks,
                    1 if self.topology.contention else 0,
                )
            for i in range(self.nnodes):
                fabric.add_port(self._dispatch[i], self.service_us)
            senders = [fabric.sender(i) for i in range(self.nnodes)]
            self._fabric = fabric
            self._send = fabric.send
        else:
            self._ports = [
                _PyDeliveryPort(sim, self._dispatch[i], self.service_us)
                for i in range(self.nnodes)
            ]
            senders = [partial(self._py_send, i) for i in range(self.nnodes)]
            self._send = self._py_send
        for i in range(self.nnodes):
            self._bind[i](senders[i])

    def _py_send(
        self,
        src: int,
        dst: int,
        category: MsgCategory,
        size_bytes: int,
        payload: Any = None,
    ) -> None:
        """Pure-Python twin of the kernel ``NetFabric.send`` body."""
        if src == dst:
            raise ValueError(
                f"local message {category.value} on node {src}; node-local "
                "operations must bypass the network"
            )
        nnodes = self.nnodes
        if not (0 <= src < nnodes and 0 <= dst < nnodes):
            raise ValueError(f"endpoints {src}->{dst} outside cluster")
        total = size_bytes + HEADER_BYTES
        if total < HEADER_BYTES:
            raise ValueError(
                f"message size {total} smaller than header "
                f"({HEADER_BYTES} bytes)"
            )
        stats = self.stats
        stats.msg_count[category] += 1
        stats.msg_bytes[category] += total

        now = self.sim._now
        nic_free = self._nic_free[src]
        injection_start = now if now >= nic_free else nic_free
        injection_end = injection_start + self._transfer_us(total)
        self._nic_free[src] = injection_end
        if self._topo_pair is None:
            arrival = injection_end + self._startup_us
        else:
            arrival = self._topo_arrival(src, dst, total, injection_end)
        self._sim_at(
            arrival,
            self._ports[dst].arrive,
            category,
            payload,
        )

    def _topo_arrival(
        self, src: int, dst: int, total: int, injection_end: float
    ) -> float:
        """Arrival time under the attached topology (PROTOCOL.md §15).

        Bit-for-bit the same IEEE-754 sequence as the compiled fabric's
        topology branch.  Without contention the oversubscription
        penalty is pure latency; with it the source leaf's uplink is a
        serialized store-and-forward resource, queued like the NIC.
        """
        hop, pen, link = self._topo_pair(src, dst)
        if self._topo_contention and link >= 0:
            occupancy = total * (1.0 + pen) / self._bandwidth
            link_free = self._topo_link_free[link]
            start = injection_end if injection_end >= link_free else link_free
            link_end = start + occupancy
            self._topo_link_free[link] = link_end
            return link_end + self._startup_us + hop
        return injection_end + self._startup_us + hop + total * pen / self._bandwidth

    def send(
        self,
        src: int,
        dst: int,
        category: MsgCategory,
        size_bytes: int,
        payload: Any = None,
    ) -> None:
        """Inject a message from ``src``; schedules its delivery.

        ``size_bytes`` is the payload size; the fixed header is added
        here.  Engines normally call the per-node sender bound at
        registration; this entry point serves callers that send on a
        node's behalf (e.g. the homeless GC's accounting traffic).
        """
        send = self._send
        if send is None:
            raise RuntimeError(
                f"network send before every node registered its dispatch "
                f"({len(self._dispatch)} of {self.nnodes} registered)"
            )
        send(src, dst, category, size_bytes, payload)

    def broadcast(
        self,
        src: int,
        category: MsgCategory,
        size_bytes: int,
        payload: Any = None,
    ) -> None:
        """Send one copy to every other node (switch has no multicast here)."""
        for dst in range(self.nnodes):
            if dst != src:
                self.send(src, dst, category, size_bytes, payload)

    def publish_metrics(self) -> None:
        """Add this run's per-category traffic to the attached registry.

        Called once, at run end: ``net_messages_total`` and
        ``net_bytes_total`` (labelled by category) receive the
        :class:`ClusterStats` totals both send paths fill, so attaching
        a registry never changes which send path runs.
        """
        metrics = self.metrics
        if metrics is None:
            return
        msg_bytes = self.stats.msg_bytes
        for category, count in self.stats.msg_count.items():
            label = category.value
            metrics.counter("net_messages_total", category=label).inc(count)
            metrics.counter("net_bytes_total", category=label).inc(
                msg_bytes[category]
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Network {self.nnodes} nodes, {self.comm_model.name}>"
