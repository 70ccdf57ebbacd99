"""Charge the host self-time of a cProfile run to the program's layers.

A layer is a package under ``src/repro``.  Python functions belong to
the package their file lives in.  Methods and functions of the C kernel
(``repro._kernel._kernelc``) are charged to the layer of their Python
twin.  Everything else -- numpy, the standard library, builtins,
dataclass-generated ``__init__`` methods, the benchmark's own hooks --
is charged to the program function that called it: its self-time is
split over its callers by the time each caller spent in it, walking up
through foreign frames until a program frame is reached.  Program code
outside every layer, and time that reaches no program frame, is
``other``.

C code that calls other C code directly (for example the event loop
invoking a C delivery port) is invisible to the profiler; that time
stays with the calling C function.
"""

from __future__ import annotations

import pstats
import re

#: Program layers, in report order.  ``kernel`` is the Python side of
#: ``repro._kernel`` (backend selection); its C methods are charged to
#: the layers below.
LAYERS = (
    "sim", "cluster", "dsm", "core", "memory", "gos", "apps",
    "obs", "trace", "bench", "kernel",
)

_PACKAGE_LAYER = {name: name for name in LAYERS if name != "kernel"}
_PACKAGE_LAYER["_kernel"] = "kernel"

#: C kernel types and functions -> the layer of their Python twin.
_KERNEL_OWNER = {
    "Engine": "sim",
    "Future": "sim",
    "NetFabric": "cluster",
    "FabricSender": "cluster",
    "DeliveryPort": "cluster",
    "Dispatcher": "cluster",
    "LocalAccess": "dsm",
    "Accessor": "dsm",
    "Ready": "dsm",
    "ReplyRouter": "dsm",
    "VersionIndexedQueue": "dsm",
    "KeyedFifo": "dsm",
    "merge_notices": "dsm",
    "record_request": "dsm",
    "cache_sweep_invalid": "dsm",
    "cache_invalidate_read": "dsm",
    "prune_floors": "dsm",
    "Arena": "memory",
    "diff_arrays": "memory",
    "adaptive_threshold": "core",
}

_KERNEL_MODULE = "repro._kernel._kernelc"
_C_METHOD = re.compile(r"<method '\w+' of '([\w.]+)' objects>")
_C_FUNCTION = re.compile(r"<built-in method ([\w.]+)>")


class LayerMap:
    """Maps profiler function keys to layers for one program tree."""

    def __init__(self, package_dir: str):
        self._prefix = package_dir.rstrip("/") + "/"

    def layer(self, func: tuple) -> str | None:
        """The layer owning ``func``, or ``None`` for foreign code."""
        filename, _, name = func
        if filename == "~":
            match = _C_METHOD.fullmatch(name) or _C_FUNCTION.fullmatch(name)
            if match is None:
                return None
            module, _, owner = match.group(1).rpartition(".")
            if module != _KERNEL_MODULE:
                return None
            return _KERNEL_OWNER.get(owner, "kernel")
        if not filename.startswith(self._prefix):
            return None
        package = filename[len(self._prefix):].partition("/")[0]
        # Modules at the package root and packages that are not layers
        # (check, analysis) are program code outside every layer.
        return _PACKAGE_LAYER.get(package, "other")


def layer_self_times(stats: pstats.Stats, layers: LayerMap) -> dict[str, float]:
    """Self-time in seconds per layer, plus ``other``.

    The values sum to the profiler's total self-time.
    """
    table = stats.stats  # func -> (cc, nc, tt, ct, callers)
    shares: dict[tuple, dict[str, float]] = {}
    walking: set[tuple] = set()

    def share_of(func: tuple) -> dict[str, float]:
        """Fractions of ``func``'s time owed to each layer."""
        owner = layers.layer(func)
        if owner is not None:
            return {owner: 1.0}
        cached = shares.get(func)
        if cached is not None:
            return cached
        callers = table[func][4] if func in table else {}
        total = sum(edge[3] for edge in callers.values())
        if func in walking or total <= 0.0:
            return {"other": 1.0}
        walking.add(func)
        mix: dict[str, float] = {}
        for caller, edge in callers.items():
            for name, frac in share_of(caller).items():
                mix[name] = mix.get(name, 0.0) + frac * edge[3] / total
        walking.discard(func)
        shares[func] = mix
        return mix

    out = {name: 0.0 for name in LAYERS}
    out["other"] = 0.0
    for func, (_, _, tt, _, callers) in table.items():
        owner = layers.layer(func)
        if owner is not None:
            out[owner] += tt
            continue
        # Split this frame's own time over its callers exactly, by the
        # self-time the profiler recorded on each caller edge.
        if not callers:
            out["other"] += tt
            continue
        for caller, edge in callers.items():
            for name, frac in share_of(caller).items():
                out[name] += frac * edge[2]
        leftover = tt - sum(edge[2] for edge in callers.values())
        if leftover > 0.0:
            out["other"] += leftover
    return out
