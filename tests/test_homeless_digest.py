"""Golden digest of the homeless (TreadMarks-style) baseline.

Small homeless ASP and SOR runs, plus a barrier workload that triggers
the global diff GC, are hashed the same way as
``tests/test_determinism_digest.py``: the full :class:`ClusterStats`
snapshot and the final simulated time.  The digest was recorded while
the homeless engines still delivered through per-node handlers and was
unchanged when they moved onto the batched fast-dispatch path, so it
pins that the delivery path carries no homeless outcome.
"""

import hashlib
import json

from repro.apps import Asp, Sor
from repro.cluster.hockney import FAST_ETHERNET
from repro.gos.homeless import HomelessObjectSpace
from repro.gos.jvm import DistributedJVM
from repro.gos.thread import ThreadContext

from tests.conftest import run_threads

EXPECTED_DIGEST = (
    "daf6ed8585378bb55a66ab500067909299f643fd762eefc1361819ef6e8e830a"
)


def _jvm_payload(app) -> dict:
    jvm = DistributedJVM(nodes=4, comm_model=FAST_ETHERNET, protocol="homeless")
    result = jvm.run(app)
    return {
        "stats": result.stats.snapshot(),
        "time_us": result.execution_time_us,
    }


def _gc_payload() -> dict:
    gos = HomelessObjectSpace(3, FAST_ETHERNET, gc_threshold_bytes=1)
    obj = gos.alloc_array(16)
    barrier = gos.alloc_barrier(parties=3, home=0)

    def body(tid):
        ctx = ThreadContext(gos, tid, tid)
        for phase in range(3):
            payload = yield from ctx.write(obj)
            payload[tid] = float(phase * 10 + tid)
            yield from ctx.barrier(barrier)

    end = run_threads(gos, *(body(tid) for tid in range(3)))
    return {"stats": gos.stats.snapshot(), "time_us": end}


def _payload() -> dict:
    return {
        "asp": _jvm_payload(Asp(size=32)),
        "sor": _jvm_payload(Sor(size=32, iterations=3)),
        "gc": _gc_payload(),
    }


def test_homeless_digest_unchanged():
    payload = _payload()
    assert payload["gc"]["stats"]["events"]["homeless_gc"] >= 1
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()
    assert digest == EXPECTED_DIGEST, (
        "deterministic outputs of the pinned homeless runs changed"
    )
