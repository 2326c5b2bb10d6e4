"""One unit of a workload in a fresh process; prints one JSON line.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/child.py '{"workload": "mix-vpc", "seed": 1,
        "mode": "timed", "stamp": <time.time() at spawn>}'

``mode`` is ``timed`` (the default kernel, untraced), ``profile``
(the same under cProfile, rolled up to layers), ``oracle`` (the cycle
kernel, for the correctness check) or ``setup`` (imports and build
only, run under ``-X importtime`` for per-package import time).
``setup_s`` runs from ``stamp`` to the moment the timed work starts:
interpreter start, imports and building the system.
"""

import json
import resource
import sys
import time


def main() -> int:
    spec = json.loads(sys.argv[1])
    from workloads import WORKLOADS

    mode = spec["mode"]
    go = WORKLOADS[spec["workload"]](spec["seed"], mode == "oracle")
    setup_s = time.time() - spec["stamp"]
    if mode == "setup":
        return 0
    if mode == "profile":
        import cProfile

        from layers import rollup
        profiler = cProfile.Profile()
        profiler.enable()
        measurement = go()
        profiler.disable()
        measurement["layers"] = rollup(profiler)
    else:
        measurement = go()
    measurement["setup_s"] = setup_s
    # ru_maxrss is in KiB on Linux.
    measurement["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    sys.stdout.write(json.dumps(measurement, default=repr) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
