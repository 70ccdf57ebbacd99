"""Message taxonomy of the DSM protocol.

Sizes follow a simple wire model: every message pays a fixed
:data:`HEADER_BYTES` header; payload sizes are supplied by the protocol
layer (object image bytes, encoded diff bytes, write-notice entries, ...).

The categories matter because the paper's evaluation reports *message
breakdowns* (Figure 5b: ``obj`` / ``mig`` / ``diff`` / ``redir``) and
excludes synchronization messages from them; :mod:`repro.cluster.stats`
keeps per-category counters so the harness can reproduce exactly that
accounting.
"""

from __future__ import annotations

import enum

#: Fixed per-message header (source, destination, category, object id,
#: version stamp) — also the size of the paper's "unit-sized message".
HEADER_BYTES = 40

#: Wire cost of one write-notice entry (object id + version).
NOTICE_ENTRY_BYTES = 12


class MsgCategory(enum.Enum):
    """Protocol-level category of a message (for statistics)."""

    # Identity hash instead of Enum's Python-level ``hash(self._name_)``:
    # members are singletons compared by identity, so hashing by id is
    # consistent — and it turns the per-message stats-counter and
    # dispatch lookups into C-speed slot calls.
    __hash__ = object.__hash__

    OBJ_REQUEST = "obj_request"  # fault-in request to a (presumed) home
    OBJ_REPLY = "obj_reply"  # object image reply, no migration
    OBJ_REPLY_MIG = "obj_reply_mig"  # object image reply carrying home migration
    REDIRECT = "redirect"  # obsolete home replies with current home hint
    DIFF = "diff"  # diff propagation to the home
    DIFF_ACK = "diff_ack"  # home's ack carrying the post-apply version
    LOCK_ACQUIRE = "lock_acquire"
    LOCK_GRANT = "lock_grant"
    LOCK_RELEASE = "lock_release"
    BARRIER_ARRIVE = "barrier_arrive"
    BARRIER_RELEASE = "barrier_release"
    HOME_UPDATE = "home_update"  # home-manager mechanism: post new home
    HOME_QUERY = "home_query"  # home-manager mechanism: where is the home?
    HOME_ANSWER = "home_answer"
    HOME_BCAST = "home_bcast"  # broadcast mechanism: new home announcement
    SHIP_REQUEST = "ship_request"  # synchronized method shipping: run at home
    SHIP_REPLY = "ship_reply"
    CONTROL = "control"  # anything else (thread start/finish, ...)


#: Categories the paper counts as synchronization traffic; Figure 5 excludes
#: them ("we do not consider synchronization messages because they are
#: invariable in all cases").
SYNC_CATEGORIES = frozenset(
    {
        MsgCategory.LOCK_ACQUIRE,
        MsgCategory.LOCK_GRANT,
        MsgCategory.LOCK_RELEASE,
        MsgCategory.BARRIER_ARRIVE,
        MsgCategory.BARRIER_RELEASE,
    }
)
