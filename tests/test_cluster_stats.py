"""Tests for cluster statistics accounting.

Traffic is produced by real sends on every delivery path (see
``wired_networks``); sizes below are total wire bytes, header included.
"""

import pytest

from repro.cluster.message import HEADER_BYTES, MsgCategory
from repro.cluster.stats import BREAKDOWN_EVENTS, ClusterStats

from tests.conftest import wired_networks


def _sent(*traffic):
    """Stats after sending ``(category, wire_bytes)`` messages 0 -> 1,
    once per delivery path."""
    for sim, net, stats, _inbox in wired_networks(2):
        for category, wire_bytes in traffic:
            net.send(0, 1, category, wire_bytes - HEADER_BYTES)
        sim.run()
        yield stats


def test_send_counts_messages_and_bytes():
    sent = _sent(
        (MsgCategory.DIFF, 100),
        (MsgCategory.DIFF, 150),
        (MsgCategory.OBJ_REPLY, 1000),
    )
    for stats in sent:
        assert stats.msg_count[MsgCategory.DIFF] == 2
        assert stats.msg_bytes[MsgCategory.DIFF] == 250
        assert stats.total_messages() == 3
        assert stats.total_bytes() == 1250


def test_exclusion_filters():
    for stats in _sent((MsgCategory.DIFF, 64), (MsgCategory.LOCK_GRANT, 64)):
        assert stats.total_messages(exclude=[MsgCategory.LOCK_GRANT]) == 1
        assert stats.data_messages() == 1


def test_data_bytes_excludes_sync():
    sent = _sent((MsgCategory.BARRIER_ARRIVE, 500), (MsgCategory.OBJ_REPLY, 800))
    for stats in sent:
        assert stats.data_bytes() == 800
        assert stats.total_bytes() == 1300


def test_event_counters(stats):
    stats.incr("obj")
    stats.incr("obj")
    stats.incr("redir", 3)
    assert stats.events["obj"] == 2
    assert stats.events["redir"] == 3


def test_negative_increment_rejected(stats):
    with pytest.raises(ValueError):
        stats.incr("obj", -1)


def test_breakdown_has_all_figure5_categories(stats):
    stats.incr("diff", 5)
    breakdown = stats.breakdown()
    assert set(breakdown) == set(BREAKDOWN_EVENTS)
    assert breakdown["diff"] == 5
    assert breakdown["mig"] == 0


def test_merge_accumulates_all_counters():
    stats = next(_sent((MsgCategory.DIFF, 100)))
    stats.incr("migration", 2)
    other = next(_sent((MsgCategory.DIFF, 50), (MsgCategory.OBJ_REPLY, 500)))
    other.incr("migration")
    other.incr("redir", 4)
    returned = stats.merge(other)
    assert returned is stats
    assert stats.msg_count[MsgCategory.DIFF] == 2
    assert stats.msg_bytes[MsgCategory.DIFF] == 150
    assert stats.msg_count[MsgCategory.OBJ_REPLY] == 1
    assert stats.events["migration"] == 3
    assert stats.events["redir"] == 4
    # other is untouched
    assert other.msg_count[MsgCategory.DIFF] == 1
    assert other.events["migration"] == 1


def test_from_snapshot_round_trips():
    stats = next(_sent((MsgCategory.DIFF, 100), (MsgCategory.LOCK_GRANT, 60)))
    stats.incr("obj", 7)
    rebuilt = ClusterStats.from_snapshot(stats.snapshot())
    assert rebuilt.snapshot() == stats.snapshot()
    assert rebuilt.msg_count[MsgCategory.DIFF] == 1
    assert rebuilt.data_messages() == stats.data_messages()


def test_merge_of_snapshots_across_boundary():
    """Snapshots shipped across processes aggregate via from_snapshot."""
    stats = next(_sent((MsgCategory.DIFF, 100)))
    stats.incr("migration")
    wire = stats.snapshot()  # what crosses the process boundary
    total = ClusterStats()
    total.merge(ClusterStats.from_snapshot(wire))
    total.merge(ClusterStats.from_snapshot(wire))
    assert total.msg_count[MsgCategory.DIFF] == 2
    assert total.msg_bytes[MsgCategory.DIFF] == 200
    assert total.events["migration"] == 2


def test_snapshot_is_plain_and_stable():
    stats = next(_sent((MsgCategory.DIFF, 100)))
    stats.incr("migration")
    snap = stats.snapshot()
    assert snap["msg_count"] == {"diff": 1}
    assert snap["msg_bytes"] == {"diff": 100}
    assert snap["events"] == {"migration": 1}
    # mutating the snapshot does not touch the stats
    snap["events"]["migration"] = 99
    assert stats.events["migration"] == 1
