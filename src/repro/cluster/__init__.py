"""Cluster substrate: the network, its statistics, and the Hockney model.

This package models the physical platform of the paper's evaluation — a
PC cluster connected by a Fast-Ethernet switch — at the level the home
migration protocol actually observes: *messages*, their *sizes*, their
*latencies* (Hockney point-to-point model) and per-NIC serialization.
Messages have no object of their own: a send is ``(src, dst, category,
size_bytes, payload)`` and is accounted in :class:`ClusterStats`.
"""

from repro.cluster.hockney import FAST_ETHERNET, GIGABIT, MYRINET, HockneyModel
from repro.cluster.message import MsgCategory
from repro.cluster.network import Network
from repro.cluster.stats import ClusterStats

__all__ = [
    "ClusterStats",
    "FAST_ETHERNET",
    "GIGABIT",
    "HockneyModel",
    "MsgCategory",
    "MYRINET",
    "Network",
]
