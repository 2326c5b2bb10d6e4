"""The benchmark's four workloads, each one unit of simulated work.

A unit runs in a fresh child process (see ``child.py``).  ``prepare``
does the unit's imports and builds its system; that is set-up.  The
callable it returns does the timed work and returns a plain-dict
measurement.  Only public entry points are used: ``CMPSystem``,
``run_simulation``, the ``attach_*`` methods, ``spec_trace(...,
seed=)``, ``run_point`` and ``run_experiment`` with
``parallel.configure``.  The timed path never names a simulation
kernel, so it measures the default users get; ``oracle=True`` pins
the cycle kernel, the repository's reference, for the correctness
check.

Horizons are sized so one unit takes about 4-7 host seconds on a
2-vCPU VM: long enough that a host-speed swing of a few seconds moves
one unit by a few percent, not tens.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List

#: The ``src/repro/`` packages the per-layer metrics roll up to.
LAYERS = ("workloads", "cpu", "interconnect", "cache", "core", "fairqueue",
          "memory", "common", "system", "experiments", "telemetry")

#: fig10 ``mix1``: two bandwidth-hungry threads (art, mesa) beside two
#: latency-sensitive low-MLP ones (mcf, ammp).
MIX1 = ("art", "mesa", "mcf", "ammp")

#: Metrics-collector window of ``mix-observed`` (the CLIs' default).
WINDOW = 2_000

clock = time.perf_counter


@dataclass(frozen=True)
class Horizon:
    """Simulated cycles of one unit: warmup, then ``measure`` cycles in
    ``chunk``-cycle steps whose host seconds are recorded."""

    warmup: int
    measure: int
    chunk: int


HORIZONS: Dict[str, Horizon] = {
    "mix-vpc": Horizon(warmup=20_000, measure=60_000, chunk=10_000),
    "mix-observed": Horizon(warmup=20_000, measure=40_000, chunk=10_000),
    "solo-stall": Horizon(warmup=100_000, measure=350_000, chunk=50_000),
}


def _kernel(oracle: bool) -> Dict[str, str]:
    return {"kernel": "cycle"} if oracle else {}


def _counted(trace, tally: List[int]):
    """Pass ``trace`` through, counting the items consumed."""
    for item in trace:
        tally[0] += 1
        yield item


def _traces(names, seed: int, tally):
    from repro.workloads import spec_trace
    traces = [spec_trace(name, tid, seed=seed) for tid, name in enumerate(names)]
    if tally is not None:
        traces = [_counted(trace, tally) for trace in traces]
    return traces


def _mix_system(seed: int, oracle: bool, tally):
    from repro.common.config import VPCAllocation, baseline_config
    from repro.system.cmp import CMPSystem
    config = baseline_config(n_threads=4, arbiter="vpc",
                             vpc=VPCAllocation.equal(4))
    return CMPSystem(config, _traces(MIX1, seed, tally),
                     capacity_policy="vpc", **_kernel(oracle))


def _solo_system(seed: int, oracle: bool, tally):
    # The private-equivalent target every QoS experiment runs once per
    # benchmark (fig10's ``_target_point`` for mcf).
    from repro.common.config import baseline_config, private_equivalent
    from repro.system.cmp import CMPSystem
    config = private_equivalent(baseline_config(n_threads=4),
                                phi=0.25, beta=0.25)
    return CMPSystem(config, _traces(("mcf",), seed, tally),
                     **_kernel(oracle))


def system_counts(system) -> Dict[str, int]:
    """Whole-run counters read from a finished system's public state."""
    grants = 0
    for bank in system.banks:
        for name in ("tag", "data", "bus"):
            arbiter = getattr(getattr(bank, name, None), "arbiter", None)
            grants += getattr(arbiter, "grants", 0)
    return {
        "cycles": system.cycle,
        "grants": grants,
        "skipped_cycles": system.skipped_cycles,
        "skip_attempts": system.skip_attempts,
        "skips_taken": system.skips_taken,
    }


def result_counts(results) -> Dict[str, float]:
    """L2 and IPC counts over the measured intervals of ``results``."""
    def total(field: str) -> int:
        return sum(getattr(r, field) for r in results)

    accesses = (total("read_hits") + total("read_misses")
                + total("write_hits") + total("write_misses"))
    counts = {
        "l2_reads": total("l2_reads"),
        "l2_writes": total("l2_writes"),
        "l2_miss_rate": ((total("read_misses") + total("write_misses"))
                         / accesses if accesses else 0.0),
        "gathering_rate": (total("stores_gathered") / total("stores_received")
                           if total("stores_received") else 0.0),
    }
    for resource in ("tag", "data", "bus"):
        counts[f"util_{resource}"] = (
            sum(r.utilizations[resource] for r in results) / len(results))
    return counts


def _sum_counts(parts: List[Dict[str, int]]) -> Dict[str, int]:
    return {key: sum(part[key] for part in parts) for key in parts[0]}


def _measurement(*, wall_s, measured_s, measured_cycles, results, chunk_s,
                 inside_s, ops, system_parts, kernel, ipc_sum, tally):
    return {
        "wall_s": wall_s,
        "measured_s": measured_s,
        "measured_cycles": measured_cycles,
        "measured_insts": sum(sum(r.instructions) for r in results),
        "chunk_s": chunk_s,
        # Host time outside the simulation calls (run_point for
        # fig10-fast, run()/run_simulation otherwise).
        "orchestration_s": wall_s - inside_s,
        "kernel": kernel,
        "ops": ops,
        "counts": {
            **result_counts(results),
            **_sum_counts(system_parts),
            "ipc_sum": ipc_sum,
            "points": len(system_parts),
            "items": tally[0] if tally is not None else None,
        },
    }


def _chunked(build, horizon: Horizon, seed: int, oracle: bool):
    """Warm up, then measure in chunks of ``run_simulation`` calls.

    Chunked runs are bit-identical to one call (the kernels' exactness
    contract), so chunking only adds a per-chunk host-time sample.
    """
    from repro.system.simulator import run_simulation
    tally = [0] if oracle else None
    system = build(seed, oracle, tally)

    def go():
        results, chunk_s = [], []
        start = clock()
        system.run(horizon.warmup)
        warmed = clock()
        for _ in range(horizon.measure // horizon.chunk):
            began = clock()
            results.append(run_simulation(system, warmup=0,
                                          measure=horizon.chunk))
            chunk_s.append(clock() - began)
        end = clock()
        return _measurement(
            wall_s=end - start, measured_s=end - warmed,
            measured_cycles=horizon.measure, results=results,
            chunk_s=chunk_s, inside_s=(warmed - start) + sum(chunk_s),
            ops={"point": [asdict(r) for r in results]},
            system_parts=[system_counts(system)], kernel=system.kernel,
            ipc_sum=sum(sum(r.instructions) for r in results)
            / horizon.measure,
            tally=tally)

    return go


def _observed(seed: int, oracle: bool):
    """``mix-vpc``'s point under the observers ``run_point`` attaches for
    ``metrics_window``, ``cpi_stacks=True`` and ``requests=True``."""
    from repro.system.simulator import run_simulation
    from repro.telemetry import (
        InterferenceAttributor,
        MetricsCollector,
        TelemetryBus,
    )
    horizon = HORIZONS["mix-observed"]
    tally = [0] if oracle else None
    system = _mix_system(seed, oracle, tally)
    system.attach_cycle_accounting()
    system.attach_request_tracing()
    bus = system.attach_telemetry(TelemetryBus())
    metrics = bus.attach(MetricsCollector(len(MIX1), window=WINDOW))
    attributor = bus.attach(InterferenceAttributor(len(MIX1)))

    def go():
        marks = []
        start = clock()
        system.run(horizon.warmup)
        warmed = clock()
        result = run_simulation(system, warmup=0, measure=horizon.measure,
                                metrics=metrics,
                                on_window=lambda cycle: marks.append(clock()))
        finished = clock()
        attributor.finish(system.cycle)
        result.metrics["attribution"] = attributor.snapshot()
        end = clock()
        # One host-time sample per ``chunk`` cycles of windows.
        step = horizon.chunk // WINDOW
        edges = [warmed] + marks[step - 1::step]
        chunk_s = [b - a for a, b in zip(edges, edges[1:])]
        return _measurement(
            wall_s=end - start, measured_s=end - warmed,
            measured_cycles=horizon.measure, results=[result],
            chunk_s=chunk_s, inside_s=finished - start,
            ops={"point": asdict(result)},
            system_parts=[system_counts(system)], kernel=system.kernel,
            ipc_sum=sum(result.ipcs), tally=tally)

    return go


def _fig10(seed: int, oracle: bool):
    """``run_experiment("fig10", fast=True)`` through the point pipeline.

    ``seed`` is unused: ``SimPoint`` carries no seed field, so the
    program fixes every trace seed.  ``run_point`` is wrapped from
    outside to time each point and keep its result for the oracle
    check; ``CMPSystem.__init__`` is wrapped to read each point's
    system counters once the point finishes.  Both wrappers run once
    per point, never per cycle.
    """
    from repro.experiments import parallel, run_experiment
    from repro.system.cmp import CMPSystem

    parallel.configure(jobs=1, **_kernel(oracle))
    tally = None
    if oracle:
        from repro.workloads import profiles
        tally = [0]
        spec_trace = profiles.spec_trace
        profiles.spec_trace = (
            lambda *args, **kwargs: _counted(spec_trace(*args, **kwargs),
                                             tally))

    built: List = []
    init = CMPSystem.__init__

    def capturing_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    CMPSystem.__init__ = capturing_init
    point_s: List[float] = []
    results: List = []
    system_parts: List[Dict[str, int]] = []
    kernels = set()
    run_point = parallel.run_point

    def timed_run_point(*args, **kwargs):
        began = clock()
        result = run_point(*args, **kwargs)
        point_s.append(clock() - began)
        results.append(result)
        for system in built:
            system_parts.append(system_counts(system))
            kernels.add(system.kernel)
        built.clear()
        return result

    parallel.run_point = timed_run_point

    def go():
        start = clock()
        table = run_experiment("fig10", fast=True)
        end = clock()
        ops = {f"point{index:02d}": asdict(result)
               for index, result in enumerate(results)}
        ops["table"] = [list(row) for row in table.rows]
        measurement = _measurement(
            wall_s=end - start, measured_s=end - start,
            measured_cycles=sum(r.cycles + r.warmup_cycles for r in results),
            results=results, chunk_s=point_s, inside_s=sum(point_s), ops=ops,
            system_parts=system_parts, kernel="+".join(sorted(kernels)),
            ipc_sum=sum(sum(r.ipcs) for r in results), tally=tally)
        average = table.row_by("mix", "average")
        measurement["fig10"] = {
            "hmean_gain_pct": average[table.headers.index("hmean_gain_%")],
            "min_gain_pct": average[table.headers.index("min_gain_%")],
            "rows": ops["table"],
        }
        return measurement

    return go


#: Workloads whose traces the program seeds itself; --seed is unused.
UNSEEDED = frozenset({"fig10-fast"})

#: name -> prepare(seed, oracle) returning the timed callable.
WORKLOADS: Dict[str, Callable[[int, bool], Callable[[], Dict]]] = {
    "mix-vpc": lambda seed, oracle: _chunked(
        _mix_system, HORIZONS["mix-vpc"], seed, oracle),
    "solo-stall": lambda seed, oracle: _chunked(
        _solo_system, HORIZONS["solo-stall"], seed, oracle),
    "fig10-fast": _fig10,
    "mix-observed": _observed,
}
