"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

They run small horizons in-process, so they take seconds; never run
them while the benchmark is timing.
"""

import cProfile
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from layers import ALL, import_times, rollup  # noqa: E402

TINY = workloads.Horizon(warmup=2_000, measure=3_000, chunk=1_000)


def tiny_unit(oracle: bool):
    return workloads._chunked(workloads._mix_system, TINY, 7, oracle)()


@pytest.fixture(scope="module")
def units():
    return tiny_unit(oracle=False), tiny_unit(oracle=True)


def test_default_kernel_matches_oracle(units):
    timed, oracle = units
    assert oracle["kernel"] == "cycle"
    assert run.compare(timed["ops"], oracle["ops"]) == []
    assert run.check([timed, timed], oracle) == (2, [])


@pytest.mark.parametrize("perturb", [
    lambda point: point[1].__setitem__("l2_reads", point[1]["l2_reads"] + 1),
    lambda point: point[0]["ipcs"].__setitem__(
        2, math.nextafter(point[0]["ipcs"][2], 1.0)),
    lambda point: point[2]["utilizations"].__setitem__("bus", 0.0),
    lambda point: point.pop(),
])
def test_perturbed_statistics_count_as_failed(units, perturb):
    timed, oracle = units
    bad = json.loads(json.dumps(timed))
    perturb(bad["ops"]["point"])
    assert run.compare(bad["ops"], oracle["ops"]) == ["point"]
    attempted, failures = run.check([timed, bad, timed], oracle)
    assert attempted == 3
    assert failures == ["unit1:point"]


def test_missing_or_extra_operation_is_failed(units):
    timed, oracle = units
    extra = dict(timed["ops"], table=[["average", 1.0]])
    assert run.compare(extra, oracle["ops"]) == ["table"]
    assert run.compare({}, oracle["ops"]) == ["point"]


def test_counts_and_trace_items(units):
    timed, oracle = units
    assert timed["counts"]["items"] is None
    assert oracle["counts"]["items"] > 0
    assert timed["counts"]["cycles"] == TINY.warmup + TINY.measure
    assert timed["counts"]["grants"] > 0
    assert len(timed["chunk_s"]) == TINY.measure // TINY.chunk


def test_rollup_charges_all_self_time():
    profiler = cProfile.Profile()
    profiler.enable()
    tiny_unit(oracle=False)
    profiler.disable()
    import pstats
    total = pstats.Stats(profiler).total_tt
    layers = rollup(profiler)
    assert set(layers) == set(ALL)
    assert math.isclose(sum(v["self_s"] for v in layers.values()), total,
                        rel_tol=1e-9)
    assert math.isclose(sum(v["share"] for v in layers.values()), 1.0,
                        rel_tol=1e-9)
    assert layers["cache"]["share"] > 0.1
    assert layers["workloads"]["calls"] > 0
    assert layers["telemetry"]["self_s"] == 0.0


def test_import_times_charge_the_nearest_repro_package():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | site",
        "import time:      5000 |       5000 |         numpy.core",
        "import time:      2000 |       7000 |       numpy",
        "import time:       300 |       7300 |     repro.system.soa",
        "import time:       400 |       7700 |   repro.system",
        "import time:        50 |         50 |     repro.qos",
        "import time:        10 |       7760 | repro",
    ])
    seconds = import_times(text.splitlines())
    assert math.isclose(seconds["system"], 7700e-6)
    assert math.isclose(seconds["other"], 60e-6)
    assert seconds["cache"] == 0.0


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == run.per_layer_spec()


def test_refuses_to_run_without_the_simulator_source(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "mix-vpc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_oracle_cache_key_follows_the_code(tmp_path):
    package = tmp_path / "repro"
    package.mkdir()
    (package / "bank.py").write_text("LATENCY = 4\n")
    before = run.digest([package])
    (package / "bank.py").write_text("LATENCY = 5\n")
    assert run.digest([package]) != before
