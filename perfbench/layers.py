"""Host self time and call counts by layer, from cProfile statistics.

A layer is a ``repro.<package>``; ``repro.core`` counts as ``moves``
(the partitioning schemes drive the mover).  The profiler does not time
builtins such as ``repr`` and ``zlib.crc32`` on their own, so their
time is self time of the function that called them.  Time in standard
library Python code is charged to the layers that called it, in
proportion to the time each caller spent in it.  What no ``repro``
frame called (the benchmark itself) is ``other``.
"""

from __future__ import annotations

import re

#: The layers reported, in order; every ``repro`` package maps to one.
LAYERS = ("sim", "storage", "hardware", "index", "txn", "cluster", "moves",
          "ha", "reads", "traffic", "workload", "engine", "audit",
          "metrics", "experiments", "other")

_PACKAGE = re.compile(r"[/\\]repro[/\\](\w+)[/\\]")
_FOLDED = {"core": "moves"}

#: Per-layer call counts of single public functions:
#: metric name -> (file suffix, function name).
CALL_COUNTS = {
    "storage.checksum_calls_per_txn": ("storage/checksum.py", "checksum_of"),
    "index.locate_calls_per_txn": ("index/global_table.py", "locate"),
}


def layer_of(filename: str) -> str | None:
    """The layer of a source file, or ``None`` outside ``repro``."""
    match = _PACKAGE.search(filename.replace("\\", "/"))
    if match is None:
        return None
    package = _FOLDED.get(match.group(1), match.group(1))
    return package if package in LAYERS else "other"


def attribute(stats: dict) -> tuple[dict[str, float], dict[str, int]]:
    """Self seconds and call counts per layer from a raw ``pstats``
    table: (file, line, function) -> (primitive calls, calls, self
    time, cumulative time, callers)."""
    shares: dict = {}

    def share(key, visiting: frozenset) -> dict[str, float]:
        if key in shares:
            return shares[key]
        if key not in stats:
            return {"other": 1.0}
        layer = layer_of(key[0])
        if layer is not None:
            result = {layer: 1.0}
        elif key in visiting:
            return {"other": 1.0}
        else:
            callers = stats[key][4]
            weights = {caller: entry[2] for caller, entry in callers.items()}
            total = sum(weights.values())
            if total <= 0:
                weights = {caller: entry[1]
                           for caller, entry in callers.items()}
                total = sum(weights.values())
            result = {}
            for caller, weight in weights.items():
                for name, part in share(caller, visiting | {key}).items():
                    result[name] = result.get(name, 0.0) + part * weight / total
            result = result or {"other": 1.0}
        shares[key] = result
        return result

    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for key, (_primitive, count, tottime, _cumtime, _callers) in stats.items():
        for name, part in share(key, frozenset()).items():
            self_s[name] += tottime * part
        layer = layer_of(key[0])
        if layer is not None:
            calls[layer] += count
    return self_s, calls


def call_count(stats: dict, suffix: str, function: str) -> int:
    """Calls of one function, named by its file's path suffix."""
    return sum(entry[1] for key, entry in stats.items()
               if key[2] == function and key[0].replace("\\", "/")
               .endswith(suffix))
