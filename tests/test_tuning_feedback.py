"""The query-feedback self-tuning loop (``repro.tuning``).

Covers the collector's deterministic sampling, the tuner's three
invariants (bucket quota, exact count conservation, exactly one epoch
bump per applied pass), the monotone in-sample error guarantee of the
hill-climbing accept rule, and the differential gates: after a tuning
pass every serving stack — direct, sharded, pooled, and the TCP front
door — answers bit-identically to a freshly built estimator over
the tuned buckets.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bucket import assign_by_center
from repro.core.maintenance import MaintainedHistogram
from repro.core.minskew import MinSkewPartitioner
from repro.estimators import BucketEstimator, MaintainedEstimator
from repro.geometry import Rect, RectSet
from repro.tuning import FeedbackCollector, FeedbackTuner
from repro.workload import live_workload, range_queries


def random_dataset(seed: int, n_min: int = 30, n_max: int = 300):
    gen = np.random.default_rng(seed)
    n = int(gen.integers(n_min, n_max))
    k = int(gen.integers(1, 5))
    centers = gen.uniform(100, 900, (k, 2))
    pick = gen.integers(0, k, n)
    cx = np.clip(centers[pick, 0] + gen.normal(0, 60, n), 0, 1_000)
    cy = np.clip(centers[pick, 1] + gen.normal(0, 60, n), 0, 1_000)
    w = gen.uniform(0, 40, n)
    h = gen.uniform(0, 40, n)
    return RectSet.from_centers(cx, cy, w, h)


def build_hist(data, n_buckets=12):
    return MaintainedHistogram(
        MinSkewPartitioner(n_buckets, n_regions=64), data
    )


# ----------------------------------------------------------------------
# collector
# ----------------------------------------------------------------------
class TestFeedbackCollector:
    def test_records_everything_at_stride_one(self):
        coll = FeedbackCollector(sample_every=1)
        queries = RectSet(
            np.array([[0, 0, i + 1.0, i + 1.0] for i in range(5)])
        )
        served = np.arange(5, dtype=np.float64)
        coll.observe_batch(queries, served)
        got_q, got_v = coll.drain()
        assert np.array_equal(got_q.coords, queries.coords)
        assert np.array_equal(got_v, served)
        assert coll.seen == 5

    def test_drain_clears(self):
        coll = FeedbackCollector()
        coll.observe(Rect(0, 0, 1, 1), 2.0)
        assert len(coll.drain()[0]) == 1
        assert len(coll.drain()[0]) == 0
        assert coll.seen == 1  # seen survives drains

    def test_batch_observation_matches_scalar_stride(self):
        """observe_batch is the same modular sample as N observe
        calls — the scalar and batch serving paths feed one stream."""
        queries = RectSet(
            np.array([[0, 0, i + 1.0, i + 1.0] for i in range(17)])
        )
        served = np.arange(17, dtype=np.float64)
        scalar = FeedbackCollector(sample_every=3)
        for rect, value in zip(queries, served):
            scalar.observe(rect, float(value))
        batched = FeedbackCollector(sample_every=3)
        batched.observe_batch(queries, served)
        sq, sv = scalar.drain()
        bq, bv = batched.drain()
        assert np.array_equal(sq.coords, bq.coords)
        assert np.array_equal(sv, bv)

    def test_split_batches_match_one_batch(self):
        queries = RectSet(
            np.array([[0, 0, i + 1.0, i + 1.0] for i in range(20)])
        )
        served = np.arange(20, dtype=np.float64)
        whole = FeedbackCollector(sample_every=4)
        whole.observe_batch(queries, served)
        split = FeedbackCollector(sample_every=4)
        split.observe_batch(
            RectSet(queries.coords[:7]), served[:7]
        )
        split.observe_batch(
            RectSet(queries.coords[7:]), served[7:]
        )
        wq, wv = whole.drain()
        pq, pv = split.drain()
        assert np.array_equal(wq.coords, pq.coords)
        assert np.array_equal(wv, pv)

    def test_capacity_bounds_retention(self):
        coll = FeedbackCollector(capacity=3)
        for i in range(10):
            coll.observe(Rect(0, 0, i + 1.0, i + 1.0), float(i))
        queries, _ = coll.drain()
        assert len(queries) == 3
        assert coll.seen == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            FeedbackCollector(sample_every=0)
        with pytest.raises(ValueError):
            FeedbackCollector(capacity=0)


# ----------------------------------------------------------------------
# tuner invariants
# ----------------------------------------------------------------------
class TestTunerInvariants:
    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_quota_conservation_and_epoch(self, seed):
        """Any data/feedback: the bucket quota is unchanged, counts
        still sum to exactly the covered rows, and the pass is one
        atomic epoch bump."""
        data = random_dataset(seed)
        hist = build_hist(data)
        queries = range_queries(data, 0.15, 25, seed=seed + 1)
        n_before = len(hist.buckets)
        epoch_before = hist.epoch

        report = FeedbackTuner(hist).tune(queries)

        assert report.applied
        assert len(hist.buckets) == n_before
        assert hist.epoch == epoch_before + 1
        boxes = [b.bbox for b in hist.buckets]
        covered = int((assign_by_center(data, boxes) >= 0).sum())
        total = sum(b.count for b in hist.buckets)
        assert total == pytest.approx(covered, abs=1e-9)
        assert report.mean_abs_error_after <= \
            report.mean_abs_error_before + 1e-12

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_served_equals_fresh_rebuild(self, seed):
        """After a pass, the long-lived estimator answers
        bit-identically to a fresh one over the tuned buckets."""
        data = random_dataset(seed)
        hist = build_hist(data)
        est = MaintainedEstimator(hist, name="tuned")
        check = range_queries(data, 0.2, 30, seed=seed + 2)
        est.estimate_batch(check)  # warm pre-tune snapshot

        FeedbackTuner(hist).tune(
            range_queries(data, 0.15, 25, seed=seed + 1)
        )

        served = est.estimate_batch(check)
        fresh = BucketEstimator(
            list(hist.buckets), name="tuned"
        ).estimate_batch(check)
        assert np.array_equal(served, fresh)

    def test_empty_feedback_is_a_noop(self):
        data = random_dataset(3)
        hist = build_hist(data)
        epoch = hist.epoch
        report = FeedbackTuner(hist).tune(
            RectSet(np.empty((0, 4), dtype=np.float64))
        )
        assert not report.applied
        assert report.scored == 0
        assert hist.epoch == epoch

    def test_repeated_passes_reach_a_fixpoint(self):
        """Re-tuning on the same feedback converges instead of
        oscillating: once no pair improves, the layout is stable."""
        data = random_dataset(7, n_min=150, n_max=151)
        hist = build_hist(data)
        queries = range_queries(data, 0.15, 40, seed=8)
        tuner = FeedbackTuner(hist)
        for _ in range(6):
            before = [b.bbox for b in hist.buckets]
            report = tuner.tune(queries)
            if report.splits == 0:
                break
        report = tuner.tune(queries)
        assert report.splits == 0
        after = [b.bbox for b in hist.buckets]
        assert after == before

    def test_tuning_after_maintenance_stream(self):
        """The loop end to end: drift the data through maintenance,
        collect feedback off the served batch, tune, and serve
        bit-identically to a fresh rebuild."""
        data = random_dataset(11, n_min=200, n_max=201)
        hist = build_hist(data)
        coll = FeedbackCollector()
        est = MaintainedEstimator(hist, name="tuned")
        for op in live_workload(data, 0.1, 300, seed=13,
                                drift=(0.06, 0.05)):
            if op.kind == "query":
                coll.observe(op.rect, est.estimate(op.rect))
            elif op.kind == "insert":
                hist.insert(op.rect)
            else:
                hist.delete(op.rect)
        queries, _ = coll.drain()
        assert len(queries) > 0
        epoch = hist.epoch
        FeedbackTuner(hist).tune(queries)
        assert hist.epoch == epoch + 1

        check = range_queries(
            hist.current_data(), 0.2, 40, seed=14
        )
        served = est.estimate_batch(check)
        fresh = BucketEstimator(
            list(hist.buckets), name="tuned"
        ).estimate_batch(check)
        assert np.array_equal(served, fresh)


# ----------------------------------------------------------------------
# every serving stack picks up a tuned shard bit-for-bit
# ----------------------------------------------------------------------
def test_every_engine_serves_tuned_state(served_engine,
                                         serving_dataset,
                                         serving_queries):
    """Tune the shards underneath a live stack (direct, sharded,
    pooled, or the TCP front door) and the very next batch must match
    the union reference over the tuned buckets bit-for-bit — the
    tuning pass is just another epoch bump to every consumer."""
    before = served_engine.estimate_batch(serving_queries)
    assert np.array_equal(
        before, served_engine.reference(serving_queries)
    )

    for i in range(10):
        served_engine.insert(serving_dataset[i])
    reports = served_engine.tune(serving_queries)
    assert any(r is not None and r.applied for r in reports)

    after = served_engine.estimate_batch(serving_queries)
    assert np.array_equal(
        after, served_engine.reference(serving_queries)
    )
