"""Cluster interconnect topology models (opt-in; PROTOCOL.md §15).

The base :class:`~repro.cluster.network.Network` models one ideal
non-blocking switch: every (src, dst) pair pays the same Hockney cost.
Real 256–1024-node clusters are built from *hierarchies* of switches —
leaf switches wired into spines (2-tier) or edge/aggregation/core tiers
(3-tier folded-Clos, "fat-tree") — whose uplinks are usually
*oversubscribed*: the bandwidth leaving a leaf is a fraction of the
bandwidth below it.

A topology assigns every ordered pair a **per-pair cost triple**::

    (hop_us, bw_penalty, link)

* ``hop_us`` — fixed extra latency for the additional switch hops the
  path crosses beyond the ideal single switch (``extra_hops * hop_us``);
* ``bw_penalty`` — extra transfer time as a multiple of the base wire
  time: crossing an ``S:1`` oversubscribed uplink stretches the
  transfer by ``S``, so the *extra* time is ``total * (S-1) / r_inf``;
* ``link`` — the id of the shared uplink the path ascends through
  (``-1`` when the path stays under one switch).  With ``contention``
  enabled the uplink is a serialized resource like the per-node NIC:
  messages from the same leaf queue behind each other (store-and-
  forward at the oversubscribed tier); without it, oversubscription is
  charged as latency only.

The triple is a pure function of the (src, dst) *equivalence class*
(same leaf / same pod / cross pod), so per-message cost is O(1): the
Python path does two small-list lookups, and the compiled kernel reads
precomputed N×N float tables (:meth:`ClusterTopology.tables`) built
from the same ``pair`` function — bit-identical by construction.

Everything here is strictly opt-in: a ``Network`` built without a
topology (or with :class:`FlatTopology`) keeps the seed's single-switch
behaviour bit for bit.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

__all__ = [
    "ClusterTopology",
    "FlatTopology",
    "HierarchicalTopology",
    "FatTreeTopology",
    "make_topology",
]


def _check_finite_at_least(name: str, value: float, floor: float) -> None:
    """Reject NaN, infinities and values below ``floor`` (NaN would pass
    a bare ``value < floor`` test)."""
    if not (math.isfinite(value) and value >= floor):
        raise ValueError(f"{name} must be finite and >= {floor:g}, got {value}")


class ClusterTopology:
    """Base class: per-pair cost model over a fixed node count."""

    #: Report name of the topology family.
    kind: str = "topology"

    def __init__(self, nnodes: int, contention: bool = False):
        if nnodes < 1:
            raise ValueError(f"need at least one node, got {nnodes}")
        self.nnodes = nnodes
        #: Number of distinct shared uplinks (contention resources).
        self.nlinks = 0
        self.contention = bool(contention)
        self._tables: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def pair(self, src: int, dst: int) -> tuple[float, float, int]:
        """``(hop_us, bw_penalty, link)`` for one ordered pair."""
        raise NotImplementedError

    def tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Precomputed N×N per-pair tables ``(hop_us, bw_penalty, link)``.

        Built once (lazily — only the compiled fast path needs the dense
        form) from :meth:`pair`, so both backends read the same values.
        ``hop_us``/``bw_penalty`` are float64, ``link`` is int64.
        """
        if self._tables is None:
            n = self.nnodes
            hop = np.zeros((n, n), dtype=np.float64)
            pen = np.zeros((n, n), dtype=np.float64)
            link = np.full((n, n), -1, dtype=np.int64)
            for src in range(n):
                for dst in range(n):
                    if src == dst:
                        continue
                    h, p, l = self.pair(src, dst)
                    hop[src, dst] = h
                    pen[src, dst] = p
                    link[src, dst] = l
            self._tables = (hop, pen, link)
        return self._tables

    def describe(self) -> dict[str, Any]:
        """JSON-friendly parameter summary for bench/report metadata."""
        return {
            "kind": self.kind,
            "nnodes": self.nnodes,
            "nlinks": self.nlinks,
            "contention": self.contention,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.describe()}>"


class FlatTopology(ClusterTopology):
    """The ideal single switch: zero extra cost for every pair.

    Exists so sweeps can treat "no topology" uniformly; a ``Network``
    built with it is bit-identical to one built with ``topology=None``
    (the extra terms are exactly ``+0.0``).
    """

    kind = "flat"

    def pair(self, src: int, dst: int) -> tuple[float, float, int]:
        return (0.0, 0.0, -1)


class HierarchicalTopology(ClusterTopology):
    """Two-tier hierarchy: leaf switches under one non-blocking spine.

    Nodes ``[i*leaf_size, (i+1)*leaf_size)`` share leaf switch ``i``.
    Pairs under one leaf pay nothing extra; pairs crossing the spine pay
    two extra switch hops (up + down) and the leaf-uplink
    oversubscription penalty.  The shared uplink of the *source* leaf is
    the contention resource.
    """

    kind = "hier"

    def __init__(
        self,
        nnodes: int,
        leaf_size: int = 16,
        hop_us: float = 5.0,
        oversubscription: float = 1.0,
        contention: bool = False,
    ):
        super().__init__(nnodes, contention)
        if leaf_size < 1:
            raise ValueError(f"leaf_size must be >= 1, got {leaf_size}")
        _check_finite_at_least("hop_us", hop_us, 0.0)
        _check_finite_at_least("oversubscription", oversubscription, 1.0)
        self.leaf_size = leaf_size
        self.hop_us = float(hop_us)
        self.oversubscription = float(oversubscription)
        self._leaf = [node // leaf_size for node in range(nnodes)]
        self.nlinks = self._leaf[-1] + 1 if nnodes else 0
        self._cross_hop = 2.0 * self.hop_us
        self._cross_pen = self.oversubscription - 1.0

    def pair(self, src: int, dst: int) -> tuple[float, float, int]:
        leaf = self._leaf
        src_leaf = leaf[src]
        if src_leaf == leaf[dst]:
            return (0.0, 0.0, -1)
        return (self._cross_hop, self._cross_pen, src_leaf)

    def describe(self) -> dict[str, Any]:
        out = super().describe()
        out.update(
            leaf_size=self.leaf_size,
            hop_us=self.hop_us,
            oversubscription=self.oversubscription,
        )
        return out


class FatTreeTopology(ClusterTopology):
    """Three-tier folded Clos (edge / aggregation / core).

    ``edge_size`` hosts share an edge switch; ``pod_size`` edge switches
    form a pod under shared aggregation switches; pods meet at the core.
    Extra switch hops beyond the ideal single switch:

    * same edge switch — 0;
    * same pod (edge → agg → edge) — 2;
    * cross pod (edge → agg → core → agg → edge) — 4.

    ``oversubscription`` is the edge-uplink ratio (paid by every
    inter-edge pair); ``core_oversubscription`` compounds on top for
    cross-pod pairs (aggregate ratio ``edge * core``).  The contention
    resource is the source's edge uplink — the first (and with the edge
    tier oversubscribed, the thinnest) shared ascent of the path.
    """

    kind = "fat-tree"

    def __init__(
        self,
        nnodes: int,
        edge_size: int = 16,
        pod_size: int = 4,
        hop_us: float = 5.0,
        oversubscription: float = 1.0,
        core_oversubscription: float = 1.0,
        contention: bool = False,
    ):
        super().__init__(nnodes, contention)
        if edge_size < 1:
            raise ValueError(f"edge_size must be >= 1, got {edge_size}")
        if pod_size < 1:
            raise ValueError(f"pod_size must be >= 1, got {pod_size}")
        _check_finite_at_least("hop_us", hop_us, 0.0)
        _check_finite_at_least("oversubscription", oversubscription, 1.0)
        _check_finite_at_least(
            "core_oversubscription", core_oversubscription, 1.0
        )
        self.edge_size = edge_size
        self.pod_size = pod_size
        self.hop_us = float(hop_us)
        self.oversubscription = float(oversubscription)
        self.core_oversubscription = float(core_oversubscription)
        self._edge = [node // edge_size for node in range(nnodes)]
        self._pod = [edge // pod_size for edge in self._edge]
        self.nlinks = self._edge[-1] + 1 if nnodes else 0
        self._pod_hop = 2.0 * self.hop_us
        self._core_hop = 4.0 * self.hop_us
        self._pod_pen = self.oversubscription - 1.0
        self._core_pen = (
            self.oversubscription * self.core_oversubscription - 1.0
        )

    def pair(self, src: int, dst: int) -> tuple[float, float, int]:
        src_edge = self._edge[src]
        if src_edge == self._edge[dst]:
            return (0.0, 0.0, -1)
        if self._pod[src] == self._pod[dst]:
            return (self._pod_hop, self._pod_pen, src_edge)
        return (self._core_hop, self._core_pen, src_edge)

    def describe(self) -> dict[str, Any]:
        out = super().describe()
        out.update(
            edge_size=self.edge_size,
            pod_size=self.pod_size,
            hop_us=self.hop_us,
            oversubscription=self.oversubscription,
            core_oversubscription=self.core_oversubscription,
        )
        return out


#: Spec-string parameter names -> (constructor kwarg, converter).
_PARAM_KEYS = {
    "leaf": ("leaf_size", int),
    "edge": ("edge_size", int),
    "pod": ("pod_size", int),
    "hop": ("hop_us", float),
    "oversub": ("oversubscription", float),
    "core-oversub": ("core_oversubscription", float),
    "contention": ("contention", lambda v: bool(int(v))),
}

_TOPOLOGY_KINDS = {
    "flat": FlatTopology,
    "hier": HierarchicalTopology,
    "fat-tree": FatTreeTopology,
}


def make_topology(
    spec: "str | dict | ClusterTopology | None", nnodes: int
) -> ClusterTopology | None:
    """Build a topology from a picklable spec.

    Accepts ``None`` (no topology — the seed's flat switch), an already
    constructed :class:`ClusterTopology` (whose ``nnodes`` must match),
    a dict ``{"kind": ..., **kwargs}``, or a compact colon string usable
    in :class:`~repro.bench.executor.RunSpec` fields and CLI flags::

        "flat"
        "hier:leaf=16:oversub=4:hop=2.5"
        "fat-tree:edge=8:pod=4:oversub=2:contention=1"
    """
    if spec is None:
        return None
    if isinstance(spec, ClusterTopology):
        if spec.nnodes != nnodes:
            raise ValueError(
                f"topology built for {spec.nnodes} nodes used on a "
                f"{nnodes}-node cluster"
            )
        return spec
    if isinstance(spec, dict):
        params = dict(spec)
        kind = params.pop("kind", "flat")
        cls = _TOPOLOGY_KINDS.get(kind)
        if cls is None:
            raise ValueError(
                f"unknown topology kind {kind!r}; "
                f"choose from {sorted(_TOPOLOGY_KINDS)}"
            )
        return cls(nnodes, **params)
    kind, _, rest = spec.partition(":")
    cls = _TOPOLOGY_KINDS.get(kind)
    if cls is None:
        raise ValueError(
            f"unknown topology kind {kind!r}; "
            f"choose from {sorted(_TOPOLOGY_KINDS)}"
        )
    kwargs: dict[str, Any] = {}
    if rest:
        for item in rest.split(":"):
            key, sep, value = item.partition("=")
            if not sep:
                raise ValueError(
                    f"malformed topology parameter {item!r} in {spec!r}"
                )
            try:
                kwarg, convert = _PARAM_KEYS[key]
            except KeyError:
                raise ValueError(
                    f"unknown topology parameter {key!r}; "
                    f"choose from {sorted(_PARAM_KEYS)}"
                ) from None
            if kwarg in kwargs:
                raise ValueError(
                    f"topology parameter {key!r} given twice in {spec!r}"
                )
            try:
                kwargs[kwarg] = convert(value)
            except ValueError:
                raise ValueError(
                    f"topology parameter {key!r} has invalid value {value!r}"
                ) from None
    return cls(nnodes, **kwargs)
