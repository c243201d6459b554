"""Stale-serving differential suite: epoch invalidation end-to-end.

The live estimator's staleness contract: no matter what maintenance
sequence (inserts, deletes, refreshes) runs against a live histogram —
interleaved with serves on both query paths — a long-lived
:class:`MaintainedEstimator` answers bit-identically to a freshly
constructed :class:`BucketEstimator` over the same buckets.  The one
derived-state layer is the ``BucketArrays`` kernel snapshot; these are
exactly the tests that fail when it is frozen at construction time.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MaintainedHistogram, MinSkewPartitioner
from repro.data import charminar
from repro.estimators import BucketEstimator, MaintainedEstimator
from repro.workload import live_workload, range_queries

DATA = charminar(800, seed=31)


def _hist(drift_threshold=0.9):
    return MaintainedHistogram(
        MinSkewPartitioner(12, n_regions=144), DATA,
        drift_threshold=drift_threshold,
    )


def _fresh(hist):
    """A from-scratch estimator over the current buckets."""
    return BucketEstimator(list(hist.buckets), name="fresh")


class TestDifferentialProperty:
    @given(seed=st.integers(0, 10_000), n_ops=st.integers(5, 60))
    @settings(max_examples=15, deadline=None)
    def test_engine_equals_fresh_after_random_maintenance(
        self, seed, n_ops
    ):
        """Random insert/delete/refresh churn, with scalar and batch
        serves interleaved so the kernel snapshot goes stale
        mid-stream, ends bit-identical to a from-scratch estimator."""
        hist = _hist()
        est = MaintainedEstimator(hist)
        queries = range_queries(DATA, 0.1, 25, seed=seed + 1)
        rng = np.random.default_rng(seed)
        for op in live_workload(DATA, 0.1, n_ops, seed=seed):
            if op.kind == "query":
                est.estimate(op.rect)
            elif op.kind == "insert":
                hist.insert(op.rect)
            else:
                hist.delete(op.rect)
            if rng.random() < 0.05:
                hist.refresh()
            if rng.random() < 0.2:
                # snapshot the kernel mid-churn: it must not survive
                # the next mutation
                est.estimate_batch(queries)
        np.testing.assert_array_equal(
            est.estimate_batch(queries),
            _fresh(hist).estimate_batch(queries),
        )

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_scalar_path_equals_fresh_scalar_path(self, seed):
        """The scalar path agrees with a fresh estimator's scalar path
        after maintenance."""
        hist = _hist()
        est = MaintainedEstimator(hist)
        queries = range_queries(DATA, 0.08, 15, seed=seed + 2)
        for q in queries:
            est.estimate(q)
        for op in live_workload(DATA, 0.1, 20, seed=seed):
            if op.kind == "insert":
                hist.insert(op.rect)
            elif op.kind == "delete":
                hist.delete(op.rect)
        fresh = _fresh(hist)
        assert [est.estimate(q) for q in queries] == \
            [fresh.estimate(q) for q in queries]


class TestLayerInvalidation:
    def test_cached_answers_do_not_survive_an_insert(self):
        """Answers from the kernel snapshot taken before an insert do
        not survive it."""
        hist = _hist()
        est = MaintainedEstimator(hist)
        queries = range_queries(DATA, 0.15, 30, seed=3)
        before = est.estimate_batch(queries)
        # an insert into a covered bucket changes that bucket's count
        mbr = DATA.mbr()
        cx, cy = mbr.center
        from repro.geometry import Rect

        hist.insert(Rect.from_center(cx, cy, 1.0, 1.0))
        after = est.estimate_batch(queries)
        np.testing.assert_array_equal(
            after, _fresh(hist).estimate_batch(queries)
        )
        assert not np.array_equal(after, before)

    def test_kernel_snapshot_resyncs_without_engine(self):
        """A bare MaintainedEstimator never serves a stale
        BucketArrays snapshot."""
        hist = _hist()
        est = MaintainedEstimator(hist)
        queries = range_queries(DATA, 0.15, 20, seed=5)
        est.estimate_batch(queries)  # snapshot built
        for op in live_workload(DATA, 0.1, 30, seed=6):
            if op.kind == "insert":
                hist.insert(op.rect)
            elif op.kind == "delete":
                hist.delete(op.rect)
        reference = _fresh(hist).estimate_batch(queries)
        np.testing.assert_array_equal(
            est.estimate_batch(queries), reference
        )
        assert est.synced_epoch == hist.epoch

    def test_epoch_counters_are_reported(self, capture_counters):
        hist = _hist()
        est = MaintainedEstimator(hist)
        queries = range_queries(DATA, 0.1, 10, seed=9)

        def serve_refresh_serve():
            est.estimate_batch(queries)
            hist.refresh()
            est.estimate_batch(queries)

        _, counters = capture_counters(serve_refresh_serve)
        assert counters.get("serving.epoch.estimator_rebuilds") == 1
        assert counters.get("maintenance.refreshes") == 1

    def test_refresh_to_empty_serves_zero(self):
        """Deleting everything and refreshing leaves a bucketless
        summary; the estimator serves zeros instead of crashing."""
        from repro.geometry import Rect, RectSet

        data = RectSet(np.array([
            [0.0, 0.0, 1.0, 1.0],
            [5.0, 5.0, 6.0, 6.0],
        ]))
        hist = MaintainedHistogram(
            MinSkewPartitioner(2, n_regions=16), data
        )
        est = MaintainedEstimator(hist)
        assert est.estimate(Rect(0, 0, 10, 10)) > 0.0
        assert hist.delete(data[0]) and hist.delete(data[1])
        hist.refresh()
        assert hist.buckets == []
        assert est.estimate(Rect(0, 0, 10, 10)) == 0.0


class TestScalarBatchAgreementLive:
    @given(seed=st.integers(0, 5_000))
    @settings(max_examples=8, deadline=None)
    def test_batch_equals_scalar_loop_after_maintenance(self, seed):
        hist = _hist()
        est = MaintainedEstimator(hist)
        for op in live_workload(DATA, 0.1, 25, seed=seed):
            if op.kind == "insert":
                hist.insert(op.rect)
            elif op.kind == "delete":
                hist.delete(op.rect)
        queries = range_queries(DATA, 0.1, 20, seed=seed + 3)
        batch = est.estimate_batch(queries)
        scalar = np.array(
            [est.estimate(q) for q in queries], dtype=np.float64
        )
        np.testing.assert_array_equal(batch, scalar)


class TestShardedLiveMaintenance:
    """Live maintenance against the sharded tier: a mutation stream
    invalidates only the owning shard — the others keep their epochs
    and kernel snapshots — while answers stay bit-identical to a fresh
    single-engine rebuild over the current buckets."""

    def _sharded(self, **kwargs):
        from repro.serving import ShardedHistogram

        return ShardedHistogram.build(
            DATA, n_shards=4, n_buckets=24, n_regions=256,
            drift_threshold=0.9, **kwargs,
        )

    def _cluster_sharded(self):
        """Two well-separated clusters → two shards whose routing
        boxes cannot overlap, so per-shard kernel re-snapshots are
        observable in isolation."""
        from repro.geometry import RectSet
        from repro.serving import ShardedHistogram

        rng = np.random.default_rng(41)
        a = rng.uniform(0.0, 1.0, size=(60, 2))
        b = rng.uniform(100.0, 101.0, size=(60, 2))
        pts = np.vstack([a, b])
        coords = np.column_stack(
            [pts[:, 0], pts[:, 1],
             pts[:, 0] + 0.01, pts[:, 1] + 0.01]
        )
        return ShardedHistogram.build(
            RectSet(coords), n_shards=2, n_buckets=8,
            n_regions=64, drift_threshold=1.0,
        )

    @given(seed=st.integers(0, 10_000), n_ops=st.integers(10, 60))
    @settings(max_examples=10, deadline=None)
    def test_interleaved_stream_matches_fresh_rebuild(
        self, seed, n_ops
    ):
        from repro.serving import ShardRouter

        sharded = self._sharded()
        router = ShardRouter(sharded)
        queries = range_queries(DATA, 0.1, 25, seed=seed + 1)
        for op in live_workload(DATA, 0.1, n_ops, seed=seed):
            if op.kind == "query":
                router.estimate(op.rect)
            elif op.kind == "insert":
                router.insert(op.rect)
            else:
                router.delete(op.rect)
            # serve batches mid-stream so shard snapshots go stale
            if op.kind != "query":
                router.estimate_batch(queries)
        np.testing.assert_array_equal(
            router.estimate_batch(queries),
            sharded.union_estimator().estimate_batch(queries),
        )

    def test_mutation_stream_moves_owner_epochs_only(self):
        from repro.serving import ShardRouter

        sharded = self._sharded()
        router = ShardRouter(sharded)
        for op in live_workload(DATA, 0.1, 50, seed=43):
            if op.kind == "query":
                continue
            before = sharded.epochs()
            if op.kind == "insert":
                sid = router.insert(op.rect)
                moved = True
            else:
                sid, moved = router.delete(op.rect)
            after = sharded.epochs()
            assert sid == sharded.owner_of(op.rect)
            for i, (b, a) in enumerate(zip(before, after)):
                if i == sid and moved:
                    assert a > b
                else:
                    assert a == b

    def test_untouched_shards_keep_their_kernel_snapshots(
        self, capture_counters
    ):
        from repro.geometry import RectSet
        from repro.serving import ShardRouter

        sharded = self._cluster_sharded()
        boxes = [s.routing_box() for s in sharded.shards]
        assert not boxes[0].intersects(boxes[1])
        router = ShardRouter(sharded)
        # per-shard query sets: each batch row lands on one shard only
        mixed = RectSet(np.vstack([
            range_queries(
                sharded.shards[0].hist.current_data(), 0.3, 15,
                seed=44,
            ).coords,
            range_queries(
                sharded.shards[1].hist.current_data(), 0.3, 15,
                seed=45,
            ).coords,
        ]))
        router.estimate_batch(mixed)  # both shards serve
        cold = sharded.shards[0]
        warm = sharded.shards[1]
        cold_epoch = cold.epoch
        warm_synced = warm.estimator.synced_epoch
        # mutate shard 0 only
        rect = cold.hist.current_data()[0]
        assert sharded.owner_of(rect) == cold.shard_id
        router.insert(rect)
        assert cold.epoch > cold_epoch
        result, counters = capture_counters(
            lambda: router.estimate_batch(mixed)
        )
        # the next serve re-snapshots the touched shard's kernel only;
        # the untouched shard answers from the snapshot it already had
        assert counters.get("serving.epoch.estimator_rebuilds") == 1
        assert cold.estimator.synced_epoch == cold.epoch
        assert warm.estimator.synced_epoch == warm_synced
        assert counters.get(
            f"serving.shard.epoch_bumps.s{cold.shard_id}"
        ) == 1
        assert (
            f"serving.shard.epoch_bumps.s{warm.shard_id}"
            not in counters
        )
        np.testing.assert_array_equal(
            result,
            sharded.union_estimator().estimate_batch(mixed),
        )
