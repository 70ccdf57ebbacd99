"""Tests for the interconnect topology models (PROTOCOL.md §15).

Covers the per-pair cost triples of the hierarchical and fat-tree
models, the colon-spec/dict/instance forms of :func:`make_topology`,
and the Network integration: hop latency, oversubscription penalty,
and serialized uplink contention on every delivery path.
"""

import pytest

from repro.cluster.hockney import HockneyModel
from repro.cluster.message import MsgCategory
from repro.cluster.network import Network
from repro.cluster.stats import ClusterStats
from repro.cluster.topology import (
    FatTreeTopology,
    FlatTopology,
    HierarchicalTopology,
    make_topology,
)
from repro.sim.engine import Simulator

from tests.conftest import wired_networks

#: startup 100 us, 10 MB/s == 10 bytes/us — round numbers for hand math.
MODEL = HockneyModel(startup_us=100.0, bandwidth_mb_s=10.0)
CONTENDED = "hier:leaf=4:hop=5:oversub=4:contention=1"


def _runs(nnodes, topology, sends):
    """Send ``(src, dst)`` 460-byte messages on every delivery path;
    yield each path's ``(dst, arrival_time)`` list."""
    for sim, net, _stats, inbox in wired_networks(
        nnodes, MODEL, service_us=0.0, topology=topology
    ):
        for src, dst in sends:
            net.send(src, dst, MsgCategory.CONTROL, size_bytes=460)
        sim.run()
        yield [(nid, t) for nid, _category, _payload, t in inbox]


# -- per-pair cost triples -------------------------------------------------


def test_flat_topology_is_free():
    topo = FlatTopology(8)
    for src in range(8):
        for dst in range(8):
            assert topo.pair(src, dst) == (0.0, 0.0, -1)


def test_hierarchical_pair_classes():
    # leaves: {0..3} {4..7} {8..11}
    topo = HierarchicalTopology(
        12, leaf_size=4, hop_us=5.0, oversubscription=4.0
    )
    assert topo.nlinks == 3
    # same leaf: free, no shared uplink
    assert topo.pair(0, 3) == (0.0, 0.0, -1)
    # cross leaf: 2 extra hops, (S-1) penalty, source leaf's uplink
    assert topo.pair(0, 4) == (10.0, 3.0, 0)
    assert topo.pair(11, 2) == (10.0, 3.0, 2)


def test_fat_tree_pair_classes():
    # edges of 2 nodes, pods of 2 edges: pods {0..3} {4..7}
    topo = FatTreeTopology(
        8,
        edge_size=2,
        pod_size=2,
        hop_us=5.0,
        oversubscription=2.0,
        core_oversubscription=3.0,
    )
    assert topo.nlinks == 4
    assert topo.pair(0, 1) == (0.0, 0.0, -1)  # same edge
    # same pod: edge->agg->edge = 2 extra hops, edge oversub only
    assert topo.pair(0, 2) == (10.0, 1.0, 0)
    # cross pod: 4 extra hops, compounded ratio 2*3 -> penalty 5
    assert topo.pair(0, 4) == (20.0, 5.0, 0)
    # the contention link is always the *source* edge uplink
    assert topo.pair(5, 0) == (20.0, 5.0, 2)


def test_tables_match_pair_function():
    topo = FatTreeTopology(12, edge_size=2, pod_size=2, oversubscription=2.0)
    hop, pen, link = topo.tables()
    for src in range(12):
        for dst in range(12):
            expect = (
                (0.0, 0.0, -1) if src == dst else topo.pair(src, dst)
            )
            assert (hop[src, dst], pen[src, dst], link[src, dst]) == expect


# -- constructor validation ------------------------------------------------


def test_parameter_validation():
    with pytest.raises(ValueError, match="at least one node"):
        FlatTopology(0)
    with pytest.raises(ValueError, match="leaf_size"):
        HierarchicalTopology(8, leaf_size=0)
    with pytest.raises(ValueError, match="hop_us"):
        HierarchicalTopology(8, hop_us=-1.0)
    with pytest.raises(ValueError, match="oversubscription"):
        HierarchicalTopology(8, oversubscription=0.5)
    with pytest.raises(ValueError, match="edge_size"):
        FatTreeTopology(8, edge_size=0)
    with pytest.raises(ValueError, match="pod_size"):
        FatTreeTopology(8, pod_size=0)
    with pytest.raises(ValueError, match="core_oversubscription"):
        FatTreeTopology(8, core_oversubscription=0.9)


# -- make_topology spec forms ----------------------------------------------


def test_make_topology_none_and_instance():
    assert make_topology(None, 8) is None
    topo = HierarchicalTopology(8, leaf_size=4)
    assert make_topology(topo, 8) is topo
    with pytest.raises(ValueError, match="built for 8 nodes"):
        make_topology(topo, 16)


def test_make_topology_from_string():
    topo = make_topology("hier:leaf=4:oversub=4:hop=2.5:contention=1", 12)
    assert isinstance(topo, HierarchicalTopology)
    assert topo.leaf_size == 4
    assert topo.oversubscription == 4.0
    assert topo.hop_us == 2.5
    assert topo.contention is True

    topo = make_topology("fat-tree:edge=2:pod=2:core-oversub=3", 8)
    assert isinstance(topo, FatTreeTopology)
    assert topo.core_oversubscription == 3.0
    assert topo.contention is False

    assert isinstance(make_topology("flat", 4), FlatTopology)


def test_make_topology_from_dict():
    topo = make_topology(
        {"kind": "fat-tree", "edge_size": 2, "pod_size": 2}, 8
    )
    assert isinstance(topo, FatTreeTopology)
    assert topo.edge_size == 2


def test_make_topology_rejects_bad_specs():
    with pytest.raises(ValueError, match="unknown topology kind"):
        make_topology("torus", 8)
    with pytest.raises(ValueError, match="unknown topology kind"):
        make_topology({"kind": "torus"}, 8)
    with pytest.raises(ValueError, match="unknown topology parameter"):
        make_topology("hier:leaves=4", 8)
    with pytest.raises(ValueError, match="malformed topology parameter"):
        make_topology("hier:leaf", 8)
    # non-finite floats would reach the simulation as NaN/inf arrivals
    with pytest.raises(ValueError, match="hop_us must be finite"):
        make_topology("fat-tree:edge=4:hop=nan", 8)
    with pytest.raises(ValueError, match="oversubscription must be finite"):
        make_topology("fat-tree:edge=4:oversub=nan", 8)
    with pytest.raises(ValueError, match="oversubscription must be finite"):
        make_topology("fat-tree:edge=4:oversub=inf", 8)
    with pytest.raises(ValueError, match="'edge' given twice"):
        make_topology("fat-tree:edge=16:edge=4", 8)
    with pytest.raises(ValueError, match="'edge' has invalid value 'x'"):
        make_topology("fat-tree:edge=x", 8)


# -- Network integration ---------------------------------------------------


def test_flat_topology_matches_no_topology():
    """A flat topology charges exactly the seed's single-switch cost."""
    for topology in (None, "flat"):
        for (_, t), in _runs(4, topology, [(0, 3)]):
            # 500B total / 10 B/us = 50 us wire + 100 us startup
            assert t == pytest.approx(150.0)


def test_cross_leaf_pays_hops_and_penalty():
    for (_, t), in _runs(8, "hier:leaf=4:hop=5:oversub=4", [(0, 4)]):
        # 50 wire + 100 startup + 2*5 hops + 50*(4-1) oversub stretch
        assert t == pytest.approx(310.0)


def test_same_leaf_stays_at_hockney_cost():
    for (_, t), in _runs(8, "hier:leaf=4:hop=5:oversub=4", [(0, 3)]):
        assert t == pytest.approx(150.0)


def test_contention_serializes_same_leaf_uplink():
    """Two same-leaf senders crossing the spine queue on the shared
    uplink: the second message's occupancy starts when the first ends."""
    for arrivals in _runs(8, CONTENDED, [(0, 4), (1, 5)]):
        times = dict(arrivals)
        # first: NIC 0..50, uplink occupancy 500*4/10 = 200 -> ends 250,
        # + startup 100 + hops 10 = 360
        assert times[4] == pytest.approx(360.0)
        # second: own NIC free (different node) -> injection ends 50, but
        # the leaf uplink is busy until 250 -> ends 450, arrives 560
        assert times[5] == pytest.approx(560.0)


def test_contention_leaves_other_leaves_alone():
    """Senders on different leaves use different uplinks: no queueing."""
    for arrivals in _runs(8, CONTENDED, [(0, 4), (4, 0)]):
        times = dict(arrivals)
        assert times[4] == pytest.approx(360.0)
        assert times[0] == pytest.approx(360.0)


def test_contention_intra_leaf_traffic_skips_uplink():
    """Same-leaf messages never occupy the uplink even with contention
    on — a later cross-leaf message sees a free link."""
    for arrivals in _runs(8, CONTENDED, [(0, 3), (1, 4)]):
        times = dict(arrivals)
        assert times[3] == pytest.approx(150.0)
        # uplink was idle: occupancy 50..250, + 100 startup + 10 hops
        assert times[4] == pytest.approx(360.0)


def test_network_rejects_mismatched_topology():
    topo = HierarchicalTopology(16, leaf_size=4)
    with pytest.raises(ValueError, match="built for 16 nodes"):
        Network(Simulator(), MODEL, 8, ClusterStats(), topology=topo)


def test_describe_is_json_friendly():
    import json

    topo = make_topology("fat-tree:edge=2:pod=2:oversub=2:contention=1", 8)
    desc = json.loads(json.dumps(topo.describe()))
    assert desc["kind"] == "fat-tree"
    assert desc["nnodes"] == 8
    assert desc["contention"] is True
