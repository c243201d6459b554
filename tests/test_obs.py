"""Unit tests for the observability layer (repro.obs.metrics)."""

import json
import time

import pytest

from repro.obs import (
    OBS,
    MetricsRegistry,
    get_registry,
    snapshot_from_json,
)
from repro.obs.metrics import MAX_HISTOGRAM_SAMPLES, _NULL_TIMER


@pytest.fixture(autouse=True)
def _keep_global_registry_clean():
    """The process-wide OBS must leave every test disabled and empty."""
    yield
    OBS.disable()
    OBS.reset()


# ----------------------------------------------------------------------
# counters
# ----------------------------------------------------------------------
def test_counter_accumulates():
    reg = MetricsRegistry(enabled=True)
    reg.add("a")
    reg.add("a")
    reg.add("a", 5)
    reg.add("b", 2.5)
    assert reg.counter_value("a") == 7
    assert reg.counter_value("b") == 2.5
    assert reg.counter_value("missing") == 0


def test_counter_int_values_stay_int():
    reg = MetricsRegistry(enabled=True)
    reg.add("n", 3)
    assert isinstance(reg.snapshot()["counters"]["n"], int)


# ----------------------------------------------------------------------
# timers
# ----------------------------------------------------------------------
def test_timer_records_elapsed():
    reg = MetricsRegistry(enabled=True)
    with reg.timer("work"):
        time.sleep(0.002)
    stat = reg.timer_stats("work")
    assert stat.count == 1
    assert stat.total >= 0.002
    assert stat.min <= stat.max
    assert stat.min == pytest.approx(stat.total)


def test_timer_nesting_same_name():
    reg = MetricsRegistry(enabled=True)
    with reg.timer("outer"):
        with reg.timer("outer"):
            time.sleep(0.001)
    stat = reg.timer_stats("outer")
    assert stat.count == 2
    # the outer timing encloses the inner one
    assert stat.max >= stat.min
    assert stat.total >= 2 * stat.min


def test_timer_nesting_different_names():
    reg = MetricsRegistry(enabled=True)
    with reg.timer("outer"):
        with reg.timer("inner"):
            time.sleep(0.001)
    assert reg.timer_stats("outer").total >= \
        reg.timer_stats("inner").total


def test_timed_decorator():
    reg = MetricsRegistry(enabled=True)

    @reg.timed("f")
    def double(x):
        return 2 * x

    assert double(21) == 42
    assert reg.timer_stats("f").count == 1
    reg.disable()
    assert double(1) == 2  # still works, but records nothing
    assert reg.timer_stats("f").count == 1


def test_timer_survives_exceptions():
    reg = MetricsRegistry(enabled=True)
    with pytest.raises(RuntimeError):
        with reg.timer("boom"):
            raise RuntimeError("kaput")
    assert reg.timer_stats("boom").count == 1


# ----------------------------------------------------------------------
# histograms
# ----------------------------------------------------------------------
def test_histogram_summary():
    reg = MetricsRegistry(enabled=True)
    for v in range(1, 101):
        reg.observe("h", v)
    h = reg.snapshot()["histograms"]["h"]
    assert h["count"] == 100
    assert h["min"] == 1.0
    assert h["max"] == 100.0
    assert h["mean"] == pytest.approx(50.5)
    assert 40 <= h["p50"] <= 60
    assert 90 <= h["p95"] <= 100


def test_histogram_sample_cap_keeps_exact_moments():
    reg = MetricsRegistry(enabled=True)
    n = MAX_HISTOGRAM_SAMPLES + 100
    for v in range(n):
        reg.observe("big", v)
    h = reg.snapshot()["histograms"]["big"]
    assert h["count"] == n
    assert h["max"] == float(n - 1)
    assert h["total"] == pytest.approx(n * (n - 1) / 2)


# ----------------------------------------------------------------------
# disabled-mode no-op behaviour
# ----------------------------------------------------------------------
def test_disabled_registry_records_nothing():
    reg = MetricsRegistry()
    reg.add("a")
    reg.observe("h", 1.0)
    with reg.timer("t"):
        pass
    assert reg.snapshot() == {
        "counters": {}, "timers": {}, "histograms": {}
    }


def test_disabled_timer_is_shared_noop_object():
    reg = MetricsRegistry()
    assert reg.timer("a") is reg.timer("b")
    assert reg.timer("a") is _NULL_TIMER


def test_scope_enables_and_restores():
    reg = MetricsRegistry()
    with reg.scope():
        assert reg.enabled
        reg.add("inside")
    assert not reg.enabled
    reg.add("outside")
    assert reg.counter_value("inside") == 1
    assert reg.counter_value("outside") == 0


def test_scope_restores_on_exception():
    reg = MetricsRegistry()
    with pytest.raises(ValueError):
        with reg.scope():
            raise ValueError("boom")
    assert not reg.enabled


def test_scope_nested_restores_enabled_state():
    reg = MetricsRegistry(enabled=True)
    with reg.scope(False):
        assert not reg.enabled
    assert reg.enabled


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------
def test_json_round_trip():
    reg = MetricsRegistry(enabled=True)
    reg.add("count", 3)
    reg.add("weight", 1.5)
    with reg.timer("t"):
        pass
    reg.observe("h", 2.0)
    reg.observe("h", 4.0)
    text = reg.to_json()
    assert snapshot_from_json(text) == reg.snapshot()
    # and the snapshot itself survives a json round trip exactly
    assert json.loads(json.dumps(reg.snapshot())) == reg.snapshot()


def test_snapshot_from_json_rejects_malformed_documents():
    with pytest.raises(ValueError):
        snapshot_from_json("[1, 2, 3]")
    with pytest.raises(ValueError):
        snapshot_from_json('{"counters": {}}')


def test_reset_clears_but_keeps_switch():
    reg = MetricsRegistry(enabled=True)
    reg.add("a")
    reg.reset()
    assert reg.enabled
    assert reg.snapshot() == {
        "counters": {}, "timers": {}, "histograms": {}
    }


# ----------------------------------------------------------------------
# the process-wide registry
# ----------------------------------------------------------------------
def test_global_registry_identity():
    assert get_registry() is OBS
    assert isinstance(OBS, MetricsRegistry)
    assert not OBS.enabled  # dormant by default


def test_instrumented_build_populates_global_registry(small_charminar):
    from repro.eval import build_estimator
    from repro.workload import range_queries

    with OBS.scope():
        est = build_estimator(
            "Min-Skew", small_charminar, 20, n_regions=400
        )
        queries = range_queries(small_charminar, 0.05, 50, seed=1)
        est.estimate_many(queries)
        snap = OBS.snapshot()

    assert snap["counters"]["minskew.splits"] == 19
    assert snap["counters"]["minskew.heap_pops"] >= 19
    assert snap["counters"]["minskew.cells_scanned"] > 0
    assert snap["counters"]["estimator.batch_queries"] == 50
    assert snap["timers"]["minskew.partition"]["count"] == 1
    assert snap["timers"]["estimate.Min-Skew"]["count"] == 1
    # stage timers nest inside the whole-partition timer
    stages = (
        snap["timers"]["minskew.initial_grid"]["total_s"]
        + snap["timers"]["minskew.greedy_split"]["total_s"]
        + snap["timers"]["minskew.materialise"]["total_s"]
    )
    assert stages <= snap["timers"]["minskew.partition"]["total_s"]


def test_instrumentation_silent_when_disabled(small_charminar):
    from repro.eval import build_estimator

    assert not OBS.enabled
    build_estimator("Min-Skew", small_charminar, 10, n_regions=256)
    assert OBS.snapshot() == {
        "counters": {}, "timers": {}, "histograms": {}
    }


@pytest.mark.parametrize("cell, failed", [
    ({"scalar_matches": True, "metrics": {"counters": {"a_matches": 0}}},
     []),
    ({"scalar_matches": False}, ["scalar_matches"]),
    ({"live": {"live_matches": False}}, ["live.live_matches"]),
    ({"tuned": {"tuned_matches": True, "count_conserved": False,
                "improvement": 0.0}},
     ["tuned.count_conserved", "tuned.improvement"]),
    ({"sharded": {"sharded_matches": True,
                  "owner_only_invalidation": False}},
     ["sharded.owner_only_invalidation"]),
    # a timing field is never a gate, however bad
    ({"server": {"server_matches": True, "requests": 600,
                 "speedup": 0.0}}, []),
])
def test_bench_gate_failures_name_each_false_gate(cell, failed):
    from repro.obs.bench import gate_failures

    assert gate_failures(cell) == failed

