"""Roll host time up to the ``src/repro/`` packages ("layers").

Two sources:

* ``rollup`` takes a finished ``cProfile.Profile`` and sums self time
  and calls per layer.  A function defined in a layer's package is
  charged to that layer, except ``system/batch_kernel._tick_bank``,
  the bank's flattened tick, which is charged to ``cache``.  Built-ins
  and standard-library functions have no layer of their own; their
  self time is split among their callers in proportion to the time
  each caller's calls took, repeatedly, until it reaches a layer.
  Whatever reaches none (the benchmark's own code, packages outside
  ``LAYERS``) goes to ``other``, so the layers' self time sums to the
  profile's total.

  Bias: cProfile adds a fixed cost to every Python call and none to
  work inside a built-in, so layers that make many small calls
  (``cache``, ``core``, ``workloads``) look larger than they are in an
  untraced run; ``trace.overhead`` states how much the whole run grew.
  ``calls`` counts calls of Python functions defined in the layer.

* ``import_times`` parses ``python -X importtime`` output and charges
  each module's own import time to the nearest ``repro`` package above
  it in the import tree, so ``numpy`` imported by ``repro.system.soa``
  is charged to ``system``.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, Optional, Tuple

from workloads import LAYERS

ALL = LAYERS + ("other",)

Key = Tuple[str, int, str]


def _package_dir() -> str:
    import repro
    return os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def _own_layer(key: Key, package: str) -> Optional[str]:
    """The layer a function is defined in; None outside ``repro``."""
    filename, _, name = key
    if not filename.startswith(package):
        return None
    parts = filename[len(package):].split(os.sep)
    if parts[0] == "system" and parts[-1] == "batch_kernel.py" \
            and name == "_tick_bank":
        return "cache"
    return parts[0] if len(parts) > 1 and parts[0] in LAYERS else "other"


def rollup(profiler) -> Dict[str, Dict[str, float]]:
    """Per-layer ``self_s``, ``share`` and ``calls`` of a profile."""
    import pstats

    raw = pstats.Stats(profiler).stats
    package = _package_dir()
    memo: Dict[Key, Dict[str, float]] = {}

    def weights(key: Key, visiting: frozenset) -> Dict[str, float]:
        layer = _own_layer(key, package)
        if layer is not None:
            return {layer: 1.0}
        if key in memo:
            return memo[key]
        callers = raw[key][4]
        if key in visiting or not callers:
            return {"other": 1.0}
        # Caller entries are (cc, nc, tt, ct); split by tt, or by call
        # count where every caller's share rounds to zero time.
        basis = 2 if sum(v[2] for v in callers.values()) > 0 else 1
        total = sum(v[basis] for v in callers.values())
        mixed: Dict[str, float] = {}
        for caller, stats in callers.items():
            part = stats[basis] / total
            for layer, weight in weights(caller, visiting | {key}).items():
                mixed[layer] = mixed.get(layer, 0.0) + part * weight
        memo[key] = mixed
        return mixed

    self_s = dict.fromkeys(ALL, 0.0)
    calls = dict.fromkeys(ALL, 0)
    for key, (_, nc, tt, _, _) in raw.items():
        for layer, weight in weights(key, frozenset()).items():
            self_s[layer] += tt * weight
        own = _own_layer(key, package)
        if own is not None:
            calls[own] += nc
    total = sum(self_s.values())
    return {
        layer: {
            "self_s": self_s[layer],
            "share": self_s[layer] / total if total else 0.0,
            "calls": calls[layer],
        }
        for layer in ALL
    }


def import_times(lines: Iterable[str]) -> Dict[str, float]:
    """Seconds of import time per layer from ``-X importtime`` lines."""
    entries = []
    for line in lines:
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header line
        name = fields[2].rstrip()
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(fields[0])))
    seconds = dict.fromkeys(ALL, 0.0)
    # Lines come children-first; walking backwards meets every parent
    # before its children, so a stack holds the current ancestry.
    stack = []
    for depth, name, self_us in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        stack.append((depth, name))
        owner = next((module for _, module in reversed(stack)
                      if module == "repro" or module.startswith("repro.")),
                     None)
        if owner is None:
            continue
        package = owner.split(".")[1] if "." in owner else ""
        layer = package if package in LAYERS else "other"
        seconds[layer] += self_us / 1e6
    return seconds
