"""Tests for the message taxonomy and the wire model of one send.

A message is no object of its own: these checks run through
``Network.send`` on every delivery path (see ``wired_networks``).
"""

import pytest

from repro.cluster.message import HEADER_BYTES, MsgCategory, SYNC_CATEGORIES

from tests.conftest import wired_networks


def test_message_size_includes_header():
    for sim, net, stats, _inbox in wired_networks(2):
        net.send(0, 1, MsgCategory.DIFF, size_bytes=100)
        sim.run()
        assert stats.msg_bytes[MsgCategory.DIFF] == 100 + HEADER_BYTES


def test_size_below_header_rejected():
    for _sim, net, stats, _inbox in wired_networks(2):
        with pytest.raises(ValueError, match="smaller than header"):
            net.send(0, 1, MsgCategory.DIFF, size_bytes=-1)
        assert stats.total_messages() == 0


def test_negative_endpoints_rejected():
    for _sim, net, _stats, _inbox in wired_networks(2):
        with pytest.raises(ValueError, match="outside cluster"):
            net.send(-1, 0, MsgCategory.DIFF, size_bytes=24)


def test_sequence_numbers_increase():
    """Messages reaching one node at the same instant (coalesced into one
    delivery batch) are handled in send order."""
    for sim, net, _stats, inbox in wired_networks(5):
        for src in range(4):
            net.send(src, 4, MsgCategory.CONTROL, size_bytes=24, payload=src)
        sim.run()
        assert [payload for _n, _c, payload, _t in inbox] == [0, 1, 2, 3]
        assert len({t for _n, _c, _p, t in inbox}) == 1


def test_sync_categories_cover_locks_and_barriers():
    assert MsgCategory.LOCK_ACQUIRE in SYNC_CATEGORIES
    assert MsgCategory.LOCK_GRANT in SYNC_CATEGORIES
    assert MsgCategory.LOCK_RELEASE in SYNC_CATEGORIES
    assert MsgCategory.BARRIER_ARRIVE in SYNC_CATEGORIES
    assert MsgCategory.BARRIER_RELEASE in SYNC_CATEGORIES


def test_data_categories_not_sync():
    for category in (
        MsgCategory.OBJ_REQUEST,
        MsgCategory.OBJ_REPLY,
        MsgCategory.OBJ_REPLY_MIG,
        MsgCategory.DIFF,
        MsgCategory.REDIRECT,
    ):
        assert category not in SYNC_CATEGORIES


def test_category_values_unique():
    values = [c.value for c in MsgCategory]
    assert len(values) == len(set(values))
