"""Homeless (TreadMarks-style) LRC baseline.

The paper's §1 motivates home-based protocols by the weaknesses of the
homeless multiple-writer protocol: to serve a fault, the faulting process
must fetch diffs *from every process that updated the unit* (multiple
round trips), every diff is applied once per fetching process, and diffs
accumulate in memory until a global garbage collection.

:class:`HomelessEngine` implements that protocol on the same simulator,
locks, and barriers:

* there are no homes — every node lazily materialises the initial image
  (as TreadMarks processes do at startup) and keeps it coherent by
  fetching *diffs*, not objects;
* a writer's diffs stay local at flush time (no diff propagation
  messages); the write notice ``(oid, writer, seq)`` travels with the
  synchronization operation;
* on an access fault, the faulting node requests the unseen diff ranges
  from each writer named by its notices — one round trip per writer —
  and applies them in causal (flush-timestamp) order;
* the cumulative bytes of diffs retained at writers is tracked in the
  ``homeless_diff_bytes`` statistic: the memory-consumption cost the
  paper cites (we never garbage-collect, as TreadMarks between GCs).

Invalidation is notice-driven (true TreadMarks behaviour): a cached copy
stays valid across synchronizations until a write notice names it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator

import numpy as np

from repro.cluster.message import MsgCategory
from repro.cluster.network import Network
from repro.cluster.stats import ClusterStats
from repro.dsm.barrier import BarrierHandle, BarrierState
from repro.dsm.cache import AccessMode
from repro.dsm.locks import LockHandle, LockTable
from repro.memory.arena import Arena, new_arena
from repro.memory.diff import Diff, apply_diff, compute_diff
from repro.memory.heap import ObjectHeap
from repro.memory.twin import make_twin
from repro.sim.engine import Simulator
from repro.sim.future import Future, future_class

REQUEST_BYTES = 8
SYNC_BASE_BYTES = 8
#: One homeless write notice: oid + writer + seq.
NOTICE_BYTES = 16


@dataclass(slots=True)
class _StampedDiff:
    seq: int
    stamp: float  # flush simulated time: causal order for serialized writes
    diff: Diff


@dataclass(slots=True)
class _Replica:
    payload: np.ndarray
    mode: AccessMode = AccessMode.READ
    twin: np.ndarray | None = None
    #: writer -> highest seq applied into payload.
    applied: dict[int, int] = field(default_factory=dict)


@dataclass(slots=True)
class DiffRequest:
    oid: int
    writer_seq_from: int
    requester: int
    request_id: tuple[int, int]


@dataclass(slots=True)
class DiffReply:
    request_id: tuple[int, int]
    diffs: list[_StampedDiff]


@dataclass(slots=True)
class _LockAcquire:
    lock_id: int
    requester: int
    request_id: tuple[int, int]
    notices: dict


@dataclass(slots=True)
class _LockGrant:
    lock_id: int
    request_id: tuple[int, int]
    notices: dict


@dataclass(slots=True)
class _LockRelease:
    lock_id: int
    releaser: int
    notices: dict


@dataclass(slots=True)
class _BarrierArrive:
    barrier_id: int
    node: int
    round_no: int
    notices: dict


@dataclass(slots=True)
class _BarrierRelease:
    barrier_id: int
    round_no: int
    notices: dict


@dataclass(slots=True)
class _GcTraffic:
    """Inert accounting message: the bytes a global diff GC moves.

    The GC's state changes happen at the barrier safe point (see
    HomelessObjectSpace.gc); these messages charge its communication cost
    to the network model."""

    phase: str  # "contribute" or "rebase"


def _ignore_gc_traffic(_msg: _GcTraffic) -> None:
    """Receive GC accounting traffic: the state change already happened
    at the barrier safe point."""


class HomelessEngine:
    """TreadMarks-style LRC protocol instance on one node.

    Notices are ``(oid, writer) -> seq`` maps; ``required`` accumulates
    the highest seq this node must have applied before reading an object.
    """

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        network: Network,
        heap: ObjectHeap,
        stats: ClusterStats,
        arena: Arena | None = None,
    ):
        self.node_id = node_id
        self.sim = sim
        self.network = network
        self.heap = heap
        self.stats = stats
        #: Pooled payload/twin storage (same discipline as DsmEngine;
        #: replica payloads and twins are strictly node-local here, so
        #: no cross-arena traffic exists at all).
        self.arena: Arena = arena if arena is not None else new_arena()
        #: Hot-path Future class (the kernel's C twin when compiled).
        self._Future = future_class()
        self.replicas: dict[int, _Replica] = {}
        #: Our own diff history per object (retained for remote fetches).
        self.history: dict[int, list[_StampedDiff]] = {}
        #: Bytes of diffs currently retained (zeroed by a global GC).
        self.retained_bytes: int = 0
        #: Space-installed hook run by the barrier manager at round
        #: completion — the global GC's safe point.
        self.on_barrier_complete = None
        self._own_seq: dict[int, int] = {}
        self.dirty: set[int] = set()
        #: (oid, writer) -> seq this node must reach before reading.
        self.required: dict[tuple[int, int], int] = {}
        self.lock_table = LockTable()
        self.barriers: dict[int, BarrierState] = {}
        self._reply_waiters: dict[tuple[int, int], Future] = {}
        self._lock_waiters: dict[tuple[int, tuple[int, int]], Future] = {}
        self._barrier_waiters: dict[tuple[int, int], list[Future]] = {}
        self._req_counter = 0
        network.register_fast_dispatch(
            node_id, self._build_dispatch(), self._bind_sender
        )

    # -- helpers -----------------------------------------------------------

    def _send(
        self, dst: int, category: MsgCategory, size_bytes: int, payload: Any
    ) -> None:
        self.network.send(self.node_id, dst, category, size_bytes, payload)

    def _bind_sender(self, sender: Any) -> None:
        """Install the network's per-node send callable as ``_send``."""
        self._send = sender

    def _next_request_id(self) -> tuple[int, int]:
        self._req_counter += 1
        return (self.node_id, self._req_counter)

    def _replica(self, oid: int) -> _Replica:
        replica = self.replicas.get(oid)
        if replica is None:
            # materialise the initial image locally, as TreadMarks
            # processes share identical initial pages
            payload = self.heap.get(oid).new_payload(self.arena)
            initial = getattr(self.heap, "initial_values", {}).get(oid)
            if initial is not None:
                payload[:] = initial
            replica = _Replica(payload=payload)
            self.replicas[oid] = replica
        return replica

    def _notice_size(self, notices: dict) -> int:
        return SYNC_BASE_BYTES + NOTICE_BYTES * len(notices)

    # -- thread-facing operations -------------------------------------------

    def try_read_local(self, oid: int) -> np.ndarray | None:
        """Readable payload if up to date locally, else ``None``.

        Same contract as the home-based protocol's ``try_read_local``:
        lets :class:`~repro.gos.thread.ThreadContext` skip generator
        construction on local hits.  Materialising the initial replica
        is a local operation, so it happens here exactly as in
        :meth:`read`.
        """
        replica = self._replica(oid)
        if replica.mode is AccessMode.INVALID or self._missing_writers(
            oid, replica
        ):
            return None
        return replica.payload

    def try_write_local(self, oid: int) -> np.ndarray | None:
        """Writable payload if up to date locally, else ``None``."""
        replica = self._replica(oid)
        if replica.mode is AccessMode.INVALID or self._missing_writers(
            oid, replica
        ):
            return None
        if replica.twin is None:
            replica.twin = make_twin(replica.payload, self.arena)
            replica.mode = AccessMode.WRITE
        self.dirty.add(oid)
        return replica.payload

    def read(self, oid: int) -> Generator[Any, Any, np.ndarray]:
        replica = self._replica(oid)
        missing = self._missing_writers(oid, replica)
        if missing or replica.mode is AccessMode.INVALID:
            yield from self._fetch_diffs(oid, replica, missing)
            if replica.mode is AccessMode.INVALID:
                replica.mode = AccessMode.READ
        return replica.payload

    def write(self, oid: int) -> Generator[Any, Any, np.ndarray]:
        replica = self._replica(oid)
        missing = self._missing_writers(oid, replica)
        if missing or replica.mode is AccessMode.INVALID:
            yield from self._fetch_diffs(oid, replica, missing)
            if replica.mode is AccessMode.INVALID:
                replica.mode = AccessMode.READ
        if replica.twin is None:
            replica.twin = make_twin(replica.payload, self.arena)
            replica.mode = AccessMode.WRITE
        self.dirty.add(oid)
        return replica.payload

    def _missing_writers(
        self, oid: int, replica: _Replica
    ) -> list[tuple[int, int, int]]:
        """(writer, have_seq, need_seq) for every writer we lag behind."""
        missing = []
        for (roid, writer), need in self.required.items():
            if roid != oid or writer == self.node_id:
                continue
            have = replica.applied.get(writer, 0)
            if have < need:
                missing.append((writer, have, need))
        return missing

    def _fetch_diffs(
        self, oid: int, replica: _Replica, missing: list[tuple[int, int, int]]
    ) -> Generator[Any, Any, None]:
        """One round trip per lagging writer (the §1 pathology), then apply
        all fetched diffs in causal order."""
        pending: list[Future] = []
        for writer, have, _need in sorted(missing):
            request_id = self._next_request_id()
            fut = self._Future(label="diffreq")
            self._reply_waiters[request_id] = fut
            self._send(
                writer,
                MsgCategory.OBJ_REQUEST,
                REQUEST_BYTES,
                DiffRequest(
                    oid=oid,
                    writer_seq_from=have + 1,
                    requester=self.node_id,
                    request_id=request_id,
                ),
            )
            self.stats.incr("homeless_fetch")
            pending.append(fut)
        fetched: list[tuple[int, _StampedDiff]] = []
        for (writer, _have, _need), fut in zip(sorted(missing), pending):
            reply: DiffReply = yield fut
            fetched.extend((writer, stamped) for stamped in reply.diffs)
        fetched.sort(key=lambda item: (item[1].stamp, item[0], item[1].seq))
        for writer, stamped in fetched:
            apply_diff(replica.payload, stamped.diff)
            self.stats.incr("homeless_diff_applied")
            have = replica.applied.get(writer, 0)
            if stamped.seq > have:
                replica.applied[writer] = stamped.seq

    def read_many(self, oids: list[int]) -> Generator[Any, Any, None]:
        """The homeless protocol has no home to batch against: fetches
        happen per lagging writer anyway, so this is a sequential walk."""
        for oid in oids:
            yield from self.read(oid)

    def ship(self, oid: int, fn, compute_us: float = 0.0, args_bytes: int = 8):
        """Unsupported: method shipping needs a home to ship to."""
        raise NotImplementedError(
            "synchronized method shipping requires the home-based protocol; "
            "the homeless protocol has no authoritative copy to execute at"
        )

    def flush_local(self) -> dict:
        """Close the interval: diff dirty replicas into local history.

        Returns this interval's notices ``{(oid, writer): seq}``.  No
        messages are sent — the homeless protocol moves diffs on demand.
        """
        notices: dict[tuple[int, int], int] = {}
        for oid in sorted(self.dirty):
            replica = self.replicas.get(oid)
            if replica is None or replica.twin is None:
                continue
            diff = compute_diff(
                oid,
                replica.twin,
                replica.payload,
                scratch=self.arena.bool_scratch(replica.payload.size),
            )
            self.arena.free(replica.twin)
            replica.twin = None
            replica.mode = AccessMode.READ
            if diff is None:
                continue
            seq = self._own_seq.get(oid, 0) + 1
            self._own_seq[oid] = seq
            stamped = _StampedDiff(seq=seq, stamp=self.sim.now, diff=diff)
            self.history.setdefault(oid, []).append(stamped)
            self.retained_bytes += diff.size_bytes
            self.stats.incr("homeless_diff_bytes", diff.size_bytes)
            self.stats.incr("diff")  # interval produced one diff
            replica.applied[self.node_id] = seq
            notices[(oid, self.node_id)] = seq
        self.dirty.clear()
        return notices

    def apply_notices(self, notices: dict) -> None:
        for key, seq in notices.items():
            if self.required.get(key, 0) < seq:
                self.required[key] = seq

    # -- locks (manager logic mirrors the home-based engine) -----------------

    def _gossip_notices(self) -> dict:
        """Close the interval and return this node's full known-notice map.

        TreadMarks achieves happens-before transitivity with vector
        timestamps on intervals; we achieve the same causal propagation by
        gossiping the cumulative map on every synchronization message —
        correct, at the cost of message sizes that grow with the number of
        written objects (part of the homeless protocol's overhead story).
        """
        own = self.flush_local()
        self.apply_notices(own)
        return dict(self.required)

    def acquire(self, handle: LockHandle) -> Generator[Any, Any, None]:
        self.stats.incr("lock_acquire")
        own = self._gossip_notices()
        request_id = self._next_request_id()
        if handle.home == self.node_id:
            self.lock_table.add_notices(handle.lock_id, own)
            if self.lock_table.try_acquire(handle.lock_id, self.node_id, request_id):
                notices = self.lock_table.grant_notices(
                    handle.lock_id, self.node_id
                )
            else:
                fut = self._Future(label="hl-lock")
                self._lock_waiters[(handle.lock_id, request_id)] = fut
                notices = yield fut
        else:
            fut = self._Future(label="hl-lock")
            self._lock_waiters[(handle.lock_id, request_id)] = fut
            self._send(
                handle.home,
                MsgCategory.LOCK_ACQUIRE,
                self._notice_size(own),
                _LockAcquire(
                    lock_id=handle.lock_id,
                    requester=self.node_id,
                    request_id=request_id,
                    notices=own,
                ),
            )
            notices = yield fut
        self.apply_notices(notices)

    def release(self, handle: LockHandle) -> Generator[Any, Any, None]:
        notices = self._gossip_notices()
        if handle.home == self.node_id:
            self._manager_release(handle.lock_id, self.node_id, notices)
        else:
            self._send(
                handle.home,
                MsgCategory.LOCK_RELEASE,
                self._notice_size(notices),
                _LockRelease(
                    lock_id=handle.lock_id,
                    releaser=self.node_id,
                    notices=notices,
                ),
            )
        return
        yield  # pragma: no cover - keeps this a generator

    def _manager_release(self, lock_id, releaser, notices) -> None:
        waiter = self.lock_table.release(lock_id, releaser, notices)
        if waiter is None:
            return
        grant = self.lock_table.grant_notices(lock_id, waiter.node)
        if waiter.node == self.node_id:
            self._lock_waiters.pop((lock_id, waiter.request_id)).resolve(grant)
        else:
            self._send(
                waiter.node,
                MsgCategory.LOCK_GRANT,
                self._notice_size(grant),
                _LockGrant(
                    lock_id=lock_id, request_id=waiter.request_id, notices=grant
                ),
            )

    # -- barriers -------------------------------------------------------------

    def register_barrier(self, handle: BarrierHandle) -> None:
        if handle.home != self.node_id:
            raise ValueError("barrier registered on the wrong node")
        self.barriers[handle.barrier_id] = BarrierState(handle)

    def barrier(
        self, handle: BarrierHandle, round_no: int
    ) -> Generator[Any, Any, None]:
        notices = self._gossip_notices()
        fut = self._Future(label="hl-barrier")
        self._barrier_waiters.setdefault(
            (handle.barrier_id, round_no), []
        ).append(fut)
        arrive = _BarrierArrive(
            barrier_id=handle.barrier_id,
            node=self.node_id,
            round_no=round_no,
            notices=notices,
        )
        if handle.home == self.node_id:
            self._manager_barrier_arrive(arrive)
        else:
            self._send(
                handle.home,
                MsgCategory.BARRIER_ARRIVE,
                self._notice_size(notices),
                arrive,
            )
        release: _BarrierRelease = yield fut
        self.apply_notices(release.notices)

    def _manager_barrier_arrive(self, msg: _BarrierArrive) -> None:
        state = self.barriers[msg.barrier_id]
        if state.arrive(msg.node, msg.notices, msg.round_no):
            round_no, merged, _writers = state.complete_round()
            self.stats.incr("barrier_round")
            if self.on_barrier_complete is not None:
                # global-GC safe point: every party has flushed
                self.on_barrier_complete()
            release = _BarrierRelease(
                barrier_id=msg.barrier_id, round_no=round_no, notices=merged
            )
            size = self._notice_size(merged)
            for dst in range(self.network.nnodes):
                if dst != self.node_id:
                    self._send(dst, MsgCategory.BARRIER_RELEASE, size, release)
            self._deliver_barrier_release(release)

    def _deliver_barrier_release(self, release: _BarrierRelease) -> None:
        for fut in self._barrier_waiters.pop(
            (release.barrier_id, release.round_no), []
        ):
            fut.resolve(release)

    # -- message handling -------------------------------------------------------

    def _build_dispatch(self) -> dict[MsgCategory, Any]:
        """Category -> payload handler (registered with the network)."""
        return {
            MsgCategory.OBJ_REQUEST: self._handle_diff_request,
            MsgCategory.OBJ_REPLY: self._handle_diff_reply,
            MsgCategory.LOCK_ACQUIRE: self._handle_lock_acquire,
            MsgCategory.LOCK_GRANT: self._handle_lock_grant,
            MsgCategory.LOCK_RELEASE: self._handle_lock_release,
            MsgCategory.BARRIER_ARRIVE: self._manager_barrier_arrive,
            MsgCategory.BARRIER_RELEASE: self._deliver_barrier_release,
            MsgCategory.CONTROL: _ignore_gc_traffic,
        }

    def _handle_diff_reply(self, reply: DiffReply) -> None:
        self._reply_waiters.pop(reply.request_id).resolve(reply)

    def _handle_lock_acquire(self, msg: _LockAcquire) -> None:
        self.lock_table.add_notices(msg.lock_id, msg.notices)
        if self.lock_table.try_acquire(msg.lock_id, msg.requester, msg.request_id):
            grant = self.lock_table.grant_notices(msg.lock_id, msg.requester)
            self._send(
                msg.requester,
                MsgCategory.LOCK_GRANT,
                self._notice_size(grant),
                _LockGrant(
                    lock_id=msg.lock_id, request_id=msg.request_id, notices=grant
                ),
            )

    def _handle_lock_grant(self, grant: _LockGrant) -> None:
        self._lock_waiters.pop((grant.lock_id, grant.request_id)).resolve(
            grant.notices
        )

    def _handle_lock_release(self, msg: _LockRelease) -> None:
        self._manager_release(msg.lock_id, msg.releaser, msg.notices)

    def _handle_diff_request(self, request: DiffRequest) -> None:
        diffs = [
            stamped
            for stamped in self.history.get(request.oid, [])
            if stamped.seq >= request.writer_seq_from
        ]
        size = REQUEST_BYTES + sum(s.diff.size_bytes for s in diffs)
        self.stats.incr("obj")  # a fault-in service, for comparability
        self._send(
            request.requester,
            MsgCategory.OBJ_REPLY,
            size,
            DiffReply(request_id=request.request_id, diffs=diffs),
        )
