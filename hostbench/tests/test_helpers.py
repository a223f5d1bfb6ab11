"""Tests of the benchmark's pure helpers.

Run from the repository root:  python3 -m pytest hostbench/tests -q
"""

import json
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

from hbench import layers  # noqa: E402
from hbench.measure import (  # noqa: E402
    MIN_TAIL_SAMPLES,
    fig10_gain_err_pp,
    fig11_traffic_err_pp,
    percentile,
    proc_cpu_s,
    quartile_spread,
    samples_needed,
    tree_cpu_s,
)


# -- percentiles ---------------------------------------------------------------
def test_samples_needed_leaves_ten_beyond():
    assert samples_needed(50) == 2 * MIN_TAIL_SAMPLES
    assert samples_needed(90) == 10 * MIN_TAIL_SAMPLES
    assert samples_needed(99) == 100 * MIN_TAIL_SAMPLES


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 90) == 90
    assert percentile(list(reversed(values)), 50) == 50


@pytest.mark.parametrize("q", [50, 90, 99])
def test_percentile_refuses_thin_tails(q):
    n = samples_needed(q)
    percentile([1.0] * n, q)
    with pytest.raises(ValueError, match="beyond it"):
        percentile([1.0] * (n - 1), q)


# -- CPU accounting --------------------------------------------------------------
BURN = "import time\nend = time.process_time() + {s}\nwhile time.process_time() < end: pass\n"


def test_cpu_accounting_includes_live_then_reaped_child():
    before = tree_cpu_s()
    child = subprocess.Popen([sys.executable, "-c", BURN.format(s=0.6)])
    try:
        deadline = time.monotonic() + 30
        while proc_cpu_s(child.pid) < 0.2:
            assert time.monotonic() < deadline, "child never burned CPU"
            time.sleep(0.01)
        live = tree_cpu_s([child.pid]) - before
        assert live >= 0.2
    finally:
        child.wait(timeout=30)
    reaped = tree_cpu_s() - before
    # The reaped child's whole burn now counts, without naming its pid.
    assert reaped >= 0.55
    assert reaped >= live


# -- self time ---------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds


def test_self_time_is_span_minus_child_spans():
    clock = FakeClock()
    tracer = layers.LayerTracer(clock=clock)

    def inner():
        clock.tick(3.0)

    inner = tracer.wrap("outer.inner", inner)

    def outer():
        clock.tick(1.0)
        inner()
        clock.tick(2.0)
        inner()

    outer = tracer.wrap("outer", outer)
    outer()

    snap = tracer.snapshot()
    assert snap["outer"][:2] == [1, 3.0]
    assert snap["outer.inner"][:2] == [2, 6.0]
    # A layer total covers its own key and every key under it.
    assert layers.span_metric(snap, "outer.self_s") == 9.0
    assert layers.span_metric(snap, "outer.inner.calls") == 2
    # CPU of the phase that no span claims.
    metrics = layers.layer_metrics(snap, 10.0)
    assert metrics["unattributed.self_s"] == 1.0
    assert metrics["unattributed.share"] == 0.1


def test_waiting_key_records_wall_time_beside_cpu():
    cpu, wall = FakeClock(), FakeClock()
    tracer = layers.LayerTracer(clock=cpu, wall_clock=wall)
    (key,) = layers.WAIT_KEYS

    def wait():
        cpu.tick(0.25)
        wall.tick(4.0)

    tracer.wrap(key, wait)()
    snap = tracer.snapshot()
    assert snap[key] == [1, 0.25, 0, 4.0]
    metrics = layers.layer_metrics(snap, 1.0)
    assert metrics["harness.client.result_wait.s"] == 4.0
    assert metrics["unattributed.self_s"] == 0.75


def test_install_wraps_methods_classmethods_and_imported_functions():
    module = types.ModuleType("repro_hbench_fake")
    importer = types.ModuleType("repro_hbench_fake_importer")

    def build(x):
        return x + 1

    class Store:
        def get(self, key):
            return None if key < 0 else key

        @classmethod
        def make(cls):
            return cls()

    module.build = build
    module.Store = Store
    importer.build = build
    sys.modules[module.__name__] = module
    sys.modules[importer.__name__] = importer
    tracer = layers.LayerTracer()
    try:
        tracer.install([
            ("fake.build", "repro_hbench_fake:build", True),
            (layers.CACHE_GET_KEY, "repro_hbench_fake:Store.get", True),
            ("fake", "repro_hbench_fake:Store.*", False),
        ])
        assert importer.build(1) == 2
        store = module.Store.make()
        store.get(1)
        store.get(-1)
        snap = tracer.snapshot()
        assert snap["fake.build"][0] == 1
        assert layers.cache_hit_ratio(snap) == 0.5
        assert snap["fake"][0] == 0 and "fake" in snap
    finally:
        tracer.uninstall()
        del sys.modules[module.__name__], sys.modules[importer.__name__]
    assert module.build is build and importer.build is build
    assert Store.__dict__["get"].__name__ == "get"
    assert not hasattr(Store.__dict__["get"], "__wrapped__")


def test_install_skips_missing_targets():
    module = types.ModuleType("repro_hbench_present")

    def build(x):
        return x + 1

    module.build = build
    sys.modules[module.__name__] = module
    tracer = layers.LayerTracer()
    try:
        absent = tracer.install([
            ("gone", "repro_hbench_no_such_module:run", False),
            ("gone", "repro_hbench_present:NoSuchClass.*", False),
            ("gone", "repro_hbench_present:no_such_function", False),
            ("fake.build", "repro_hbench_present:build", True),
        ])
        assert absent == [
            "repro_hbench_no_such_module:run",
            "repro_hbench_present:NoSuchClass.*",
            "repro_hbench_present:no_such_function",
        ]
        assert module.build(1) == 2
        metrics_snap = tracer.snapshot()
        assert metrics_snap["fake.build"][0] == 1
        assert layers.span_metric(metrics_snap, "gone.self_s") == 0
    finally:
        tracer.uninstall()
        del sys.modules[module.__name__]
    assert module.build is build


def test_merge_sums_process_snapshots():
    merged = layers.merge({"a": [1, 0.5, 0, 0.0]},
                          {"a": [2, 0.25, 1, 0.0], "b": [1, 1.0, 0, 2.0]})
    assert merged == {"a": [3, 0.75, 1, 0.0], "b": [1, 1.0, 0, 2.0]}


# -- paper error and spread --------------------------------------------------------
def test_paper_error_is_distance_in_percentage_points():
    assert fig10_gain_err_pp(1.2994) == pytest.approx(0.0, abs=1e-9)
    assert fig10_gain_err_pp(1.39238) == pytest.approx(9.298)
    assert fig10_gain_err_pp(1.20) == pytest.approx(9.94)
    assert fig11_traffic_err_pp(0.4797) == pytest.approx(0.0, abs=1e-9)
    assert fig11_traffic_err_pp(0.72788) == pytest.approx(24.818)
    assert fig11_traffic_err_pp(0.40) == pytest.approx(7.97)


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    # quantiles(n=4) gives 11.75 and 17.25; the median is 14.5.
    assert quartile_spread(values) == pytest.approx(5.5 / 14.5)


# -- BENCHMARK.json --------------------------------------------------------------------
def test_benchmark_json_names_every_reported_metric():
    from hbench.workloads import END_TO_END_UNITS, PER_LAYER_UNITS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == ["fig10-cold", "serve-mixed"]


def test_rescaled_passes_sum_to_the_given_total():
    from hbench.workloads import _rescaled

    # Two passes of the same two jobs, the second twice as slow throughout.
    assert _rescaled([[1.0, 3.0], [2.0, 6.0]], 2.0) == [0.5, 1.5, 0.5, 1.5]


def test_request_stream_depends_only_on_seed():
    from hbench.workloads import RequestStream, SystemConfig

    def first(seed, n=200):
        stream = RequestStream(seed, SystemConfig.bench(), pool=[])
        return [stream.take().fingerprint() for _ in range(n)]

    assert first(3) == first(3)
    assert first(3) != first(4)
