"""Tests for the network model: latency, serialization, ordering.

Each test runs on every delivery path (the Python ports and, where the
kernel builds, the compiled ``NetFabric``) via ``wired_networks``.
"""

import pytest

from repro.cluster.hockney import HockneyModel
from repro.cluster.message import HEADER_BYTES, MsgCategory
from repro.cluster.network import Network
from repro.cluster.stats import ClusterStats
from repro.sim.engine import Simulator

from tests.conftest import delivery_simulators, wired_networks

MODEL = HockneyModel(startup_us=100.0, bandwidth_mb_s=10.0)


def _wired(nnodes=3, service_us=0.0):
    return wired_networks(nnodes, MODEL, service_us=service_us)


def test_point_to_point_latency_matches_hockney():
    for sim, net, stats, inbox in _wired():
        net.send(0, 1, MsgCategory.CONTROL, size_bytes=460)
        sim.run()
        (nid, _category, _payload, t), = inbox
        assert nid == 1
        # 460B payload + 40B header = 500B -> 100 + 50 us
        assert stats.msg_bytes[MsgCategory.CONTROL] == 500
        assert t == pytest.approx(150.0)


def test_receiver_service_time_charged():
    for sim, net, _stats, inbox in _wired(service_us=7.0):
        net.send(0, 1, MsgCategory.CONTROL, size_bytes=460)
        sim.run()
        (_nid, _category, _payload, t), = inbox
        assert t == pytest.approx(157.0)


def test_nic_serialization_backpressures_sender():
    for sim, net, _stats, inbox in _wired():
        # two 960B+40B = 1000B messages back to back: injections serialize
        net.send(0, 1, MsgCategory.CONTROL, size_bytes=960)
        net.send(0, 2, MsgCategory.CONTROL, size_bytes=960)
        sim.run()
        t1 = inbox[0][3]
        t2 = inbox[1][3]
        assert t1 == pytest.approx(100.0 + 100.0)
        # second injection waits for the first (100us each), then +startup
        assert t2 == pytest.approx(100.0 + 100.0 + 100.0)


def test_fifo_per_src_dst_pair():
    for sim, net, _stats, inbox in _wired():
        for i in range(5):
            net.send(0, 1, MsgCategory.CONTROL, 100 * (5 - i), payload=i)
        sim.run()
        assert [payload for _nid, _c, payload, _t in inbox] == list(range(5))


def test_distinct_senders_do_not_serialize():
    for sim, net, _stats, inbox in _wired():
        net.send(0, 2, MsgCategory.CONTROL, size_bytes=960)
        net.send(1, 2, MsgCategory.CONTROL, size_bytes=960)
        sim.run()
        times = [t for _nid, _c, _payload, t in inbox]
        assert times == [pytest.approx(200.0), pytest.approx(200.0)]


def test_local_send_rejected():
    for _sim, net, _stats, _inbox in _wired():
        with pytest.raises(ValueError, match="local message"):
            net.send(1, 1, MsgCategory.CONTROL, size_bytes=10)


def test_out_of_range_endpoint_rejected():
    for _sim, net, _stats, _inbox in _wired():
        with pytest.raises(ValueError, match="outside cluster"):
            net.send(0, 99, MsgCategory.CONTROL, size_bytes=10)


def test_stats_recorded_on_send():
    for sim, net, stats, _inbox in _wired():
        net.send(0, 1, MsgCategory.DIFF, size_bytes=60)
        assert stats.msg_count[MsgCategory.DIFF] == 1
        assert stats.msg_bytes[MsgCategory.DIFF] == 60 + HEADER_BYTES
        sim.run()


def test_broadcast_reaches_everyone_but_sender():
    for sim, net, stats, inbox in _wired(nnodes=5):
        assert net.broadcast(2, MsgCategory.HOME_BCAST, size_bytes=8) is None
        sim.run()
        receivers = sorted(nid for nid, _c, _payload, _t in inbox)
        assert receivers == [0, 1, 3, 4]
        assert stats.msg_count[MsgCategory.HOME_BCAST] == 4


def test_single_node_network_allowed():
    sim = Simulator()
    net = Network(sim, MODEL, 1, ClusterStats())
    assert net.nnodes == 1


def test_zero_nodes_rejected():
    with pytest.raises(ValueError):
        Network(Simulator(), MODEL, 0, ClusterStats())


def test_node_without_handler_raises():
    """A category missing from the receiver's dispatch dict fails at
    delivery, naming the category."""
    for sim_cls in delivery_simulators():
        sim = sim_cls()
        net = Network(sim, MODEL, 2, ClusterStats())
        for node in range(2):
            net.register_fast_dispatch(node, {}, lambda sender: None)
        net.send(0, 1, MsgCategory.CONTROL, size_bytes=10)
        with pytest.raises(RuntimeError, match="unhandled message category"):
            sim.run()


def test_node_registered_twice_rejected():
    sim = Simulator()
    net = Network(sim, MODEL, 2, ClusterStats())
    net.register_fast_dispatch(0, {}, lambda sender: None)
    with pytest.raises(RuntimeError, match="node 0 already registered"):
        net.register_fast_dispatch(0, {}, lambda sender: None)


def test_send_before_every_node_registered_raises():
    sim = Simulator()
    net = Network(sim, MODEL, 3, ClusterStats())
    net.register_fast_dispatch(0, {}, lambda sender: None)
    with pytest.raises(
        RuntimeError, match=r"before every node registered .*1 of 3"
    ):
        net.send(0, 1, MsgCategory.CONTROL, size_bytes=10)


def test_register_outside_cluster_rejected():
    net = Network(Simulator(), MODEL, 2, ClusterStats())
    with pytest.raises(ValueError, match="outside cluster"):
        net.register_fast_dispatch(2, {}, lambda sender: None)
