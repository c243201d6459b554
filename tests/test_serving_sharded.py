"""Differential suite for the sharded scatter-gather serving tier.

The sharded tier's contract is *exact*: for any shard count, query
batch, and bucket layout, the router's answer equals the single-engine
reference (:class:`ShardUnionEstimator` — every shard kernel over the
full batch, partials accumulated in shard order) bit-for-bit, and a
scalar query is a one-row batch held to the same reference.  The
suite also pins the routing behaviour itself: the inline tier-kernel
pass never consults a shard no row hits, the pooled router never
sends a shard a row its routing box misses, and the
``serving.shard.*`` fan-out counters match the intersection set
computed independently here.  A Hypothesis differential holds the
inline tier-kernel pass to the reference across shard counts,
kernel-chunk boundaries, lazily created and emptied shards, tuning,
and a quarantined shard.

The pickle regression rides along: a live estimator pickled after a
mutation but before its next sync must not carry its pre-mutation
kernel snapshot across the process (pickle) boundary.
"""

import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import MaintainedHistogram, MinSkewPartitioner
from repro.data import charminar
from repro.estimators import BucketEstimator, MaintainedEstimator
from repro.geometry import Rect, RectSet
from repro.serving import (
    ShardedHistogram,
    ShardPlan,
    ShardRouter,
    shard_quotas,
)
from repro.workload import live_workload, range_queries

DATA = charminar(1200, seed=17)


def _build(n_shards=4, n_buckets=24, **kwargs):
    return ShardedHistogram.build(
        DATA,
        n_shards=n_shards,
        n_buckets=n_buckets,
        n_regions=256,
        **kwargs,
    )


def _expected_dispatch(sharded, queries):
    """(dispatched shard ids, routed row count) computed from the
    routing boxes alone — the router must agree exactly."""
    coords = queries.coords
    dispatched = []
    routed = 0
    for shard in sharded.shards:
        box = shard.routing_box()
        if box is None:
            continue
        mask = (
            (coords[:, 0] <= box.x2)
            & (coords[:, 2] >= box.x1)
            & (coords[:, 1] <= box.y2)
            & (coords[:, 3] >= box.y1)
        )
        hits = int(mask.sum())
        if hits:
            dispatched.append(shard.shard_id)
            routed += hits
    return dispatched, routed


class TestShardPlan:
    def test_boxes_tile_the_data_mbr(self):
        plan = ShardPlan.build(DATA, 5)
        mbr = DATA.mbr()
        assert 1 <= plan.n_shards <= 5
        total = sum(b.area for b in plan.boxes)
        assert total == pytest.approx(mbr.area, rel=1e-9)
        for box in plan.boxes:
            assert box.x1 >= mbr.x1 - 1e-9
            assert box.x2 <= mbr.x2 + 1e-9

    def test_ownership_is_total_and_deterministic(self):
        plan = ShardPlan.build(DATA, 4)
        owners = plan.owners(DATA.centers())
        assert owners.shape == (len(DATA),)
        assert owners.min() >= 0
        assert owners.max() < plan.n_shards
        again = ShardPlan.build(DATA, 4)
        assert [b.as_tuple() for b in plan.boxes] == \
            [b.as_tuple() for b in again.boxes]
        np.testing.assert_array_equal(
            owners, again.owners(DATA.centers())
        )

    def test_out_of_bounds_points_are_clamped_to_a_shard(self):
        plan = ShardPlan.build(DATA, 3)
        mbr = DATA.mbr()
        assert 0 <= plan.owner(mbr.x2 + 10.0, mbr.y2 + 10.0) \
            < plan.n_shards

    def test_owner_matches_vectorised_owners(self):
        plan = ShardPlan.build(DATA, 4)
        centers = DATA.centers()[:50]
        owners = plan.owners(centers)
        for row, owner in zip(centers, owners):
            assert plan.owner(float(row[0]), float(row[1])) \
                == int(owner)


class TestShardQuotas:
    def test_budget_is_apportioned_exactly(self):
        assert sum(shard_quotas(40, [100, 200, 100])) == 40

    def test_empty_shards_get_zero_nonempty_at_least_one(self):
        quotas = shard_quotas(10, [1000, 0, 1])
        assert quotas[1] == 0
        assert quotas[2] >= 1
        assert quotas[0] > quotas[2]

    def test_tiny_budget_still_covers_every_nonempty_shard(self):
        quotas = shard_quotas(2, [10, 10, 10, 10])
        assert all(q >= 1 for q in quotas)


class TestShardedDifferentialProperty:
    @given(
        seed=st.integers(0, 10_000),
        n_shards=st.integers(1, 6),
        n_queries=st.integers(1, 40),
    )
    @settings(max_examples=12, deadline=None)
    def test_router_equals_union_bit_for_bit(
        self, seed, n_shards, n_queries
    ):
        sharded = _build(n_shards=n_shards)
        router = ShardRouter(sharded)
        queries = range_queries(
            DATA, 0.08, n_queries, seed=seed
        )
        np.testing.assert_array_equal(
            router.estimate_batch(queries),
            sharded.union_estimator().estimate_batch(queries),
        )

    @given(seed=st.integers(0, 10_000), n_ops=st.integers(5, 40))
    @settings(max_examples=10, deadline=None)
    def test_router_equals_union_after_random_maintenance(
        self, seed, n_ops
    ):
        """Interleaved mutations and serves leave stale kernel
        snapshots and routing boxes behind; the next batch must still
        equal the fresh single-engine reference bit-for-bit."""
        sharded = _build()
        router = ShardRouter(sharded)
        queries = range_queries(DATA, 0.1, 15, seed=seed + 1)
        for op in live_workload(DATA, 0.1, n_ops, seed=seed):
            if op.kind == "query":
                router.estimate(op.rect)
            elif op.kind == "insert":
                router.insert(op.rect)
            else:
                router.delete(op.rect)
        np.testing.assert_array_equal(
            router.estimate_batch(queries),
            sharded.union_estimator().estimate_batch(queries),
        )

    @given(seed=st.integers(0, 5_000))
    @settings(max_examples=8, deadline=None)
    def test_scalar_path_is_exact_without_index(self, seed):
        """The scalar path — a one-row batch — is bit-exact against
        the union reference, inline and pooled."""
        sharded = _build(n_shards=3)
        union = sharded.union_estimator()
        queries = range_queries(DATA, 0.08, 10, seed=seed)
        for workers in (1, 2):
            with ShardRouter(sharded, workers=workers) as router:
                for q in queries:
                    assert router.estimate(q) == union.estimate(q)


#: Batch sizes around the kernel's 1,024-row block boundary.
FUSED_BATCH_SIZES = (1, 64, 1_023, 1_024, 1_025, 3_000)


def _routed_rows(shard, coords):
    """Rows a shard's routing box hits, and those rows clipped to it."""
    box = shard.routing_box()
    mask = (
        (coords[:, 0] <= box.x2) & (coords[:, 2] >= box.x1)
        & (coords[:, 1] <= box.y2) & (coords[:, 3] >= box.y1)
    )
    idx = np.flatnonzero(mask)
    sub = coords[idx]
    clipped = np.column_stack([
        np.maximum(sub[:, 0], box.x1), np.maximum(sub[:, 1], box.y1),
        np.minimum(sub[:, 2], box.x2), np.minimum(sub[:, 3], box.y2),
    ])
    return idx, clipped


class TestFusedTierDifferential:
    """The inline router answers a batch with one pass of the tier
    kernel (every shard's snapshot concatenated in shard order); each
    case below must leave it bit-identical to the union reference,
    which builds its own per-shard kernels and sums each one's full
    rows."""

    @staticmethod
    def _prepare(case, n_shards, seed):
        if case == "lazy":
            # shards owning only odd-ranked rows start empty and are
            # created by the first routed insert
            plan = ShardPlan.build(DATA, n_shards, n_regions=256)
            owners = plan.owners(DATA.centers())
            kept = owners % 2 == 0
            sharded = ShardedHistogram.build(
                DATA.select(np.flatnonzero(kept)), plan=plan,
                n_buckets=24, n_regions=256,
            )
            router = ShardRouter(sharded)
            for row in np.flatnonzero(~kept)[::7][:12]:
                router.insert(DATA[int(row)])
            return sharded, router
        if case == "emptied":
            sharded = _build(n_shards=n_shards, drift_threshold=1.0)
            router = ShardRouter(sharded)
            victim = max(sharded.shards, key=len)
            for row in list(victim.hist.current_data()):
                assert router.delete(row)[1]
            victim.hist.refresh()
            assert victim.routing_box() is None
            return sharded, router
        sharded = _build(n_shards=n_shards)
        router = ShardRouter(sharded)
        for op in live_workload(DATA, 0.1, 30, seed=seed):
            if op.kind == "insert":
                router.insert(op.rect)
            elif op.kind == "delete":
                router.delete(op.rect)
        if case == "tuned":
            router.tune(range_queries(DATA, 0.05, 80, seed=seed + 2))
        return sharded, router

    @given(
        seed=st.integers(0, 10_000),
        n_shards=st.integers(1, 6),
        size=st.sampled_from(FUSED_BATCH_SIZES),
        case=st.sampled_from(["mutated", "lazy", "emptied", "tuned"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_inline_router_equals_union_bit_for_bit(
        self, seed, n_shards, size, case
    ):
        sharded, router = self._prepare(case, n_shards, seed)
        queries = range_queries(DATA, 0.05, size, seed=seed + 1)
        # twice: the second batch serves from the refreshed tier kernel
        for _ in range(2):
            np.testing.assert_array_equal(
                router.estimate_batch(queries),
                sharded.union_estimator().estimate_batch(queries),
            )
        assert router.degraded_shards == ()

    @given(
        seed=st.integers(0, 10_000),
        n_shards=st.integers(2, 6),
        size=st.sampled_from(FUSED_BATCH_SIZES),
    )
    @settings(max_examples=25, deadline=None)
    def test_quarantined_shard_rows_get_its_uniform_partial(
        self, seed, n_shards, size
    ):
        from repro.resilience import (
            FaultInjector,
            FaultPlan,
            FaultSpec,
            installed,
        )

        sharded = _build(n_shards=n_shards)
        router = ShardRouter(sharded, failure_threshold=1)
        queries = range_queries(DATA, 0.05, size, seed=seed)
        coords = queries.coords
        union = sharded.union_estimator().estimate_batch(queries)
        hit = [
            s for s in sharded.shards
            if _routed_rows(s, coords)[0].size > 0
        ]
        assume(hit)
        sick = hit[seed % len(hit)]
        idx, clipped = _routed_rows(sick, coords)
        # the reference sum in shard order, the sick shard's term
        # replaced by its Uniform partial over its clipped rows
        expected = np.zeros(len(queries), dtype=np.float64)
        for shard in sharded.shards:
            if shard is sick:
                expected[idx] += sick.degraded_estimator().estimate_batch(
                    RectSet(clipped, validate=False)
                )
            elif shard.buckets:
                expected += BucketEstimator(
                    shard.buckets
                ).estimate_batch(queries)
        healthy = np.ones(len(queries), dtype=bool)
        healthy[idx] = False
        plan = FaultPlan(seed, (FaultSpec(
            f"serving.worker.s{sick.shard_id}", kind="fail",
            probability=1.0,
        ),))
        with installed(FaultInjector(plan)):
            # first serve fails the dispatch; the second finds the
            # shard quarantined and never dispatches it
            for _ in range(2):
                served = router.estimate_batch(queries)
                assert router.degraded_shards == (sick.shard_id,)
                assert router.health()[sick.shard_id] == "quarantined"
                np.testing.assert_array_equal(
                    served[healthy], union[healthy]
                )
                np.testing.assert_array_equal(served, expected)


def _assert_rows_hit_their_shard(sharded, received):
    """Every sub-batch a shard received intersects its routing box."""
    assert received  # something was dispatched
    for sid, batches in received.items():
        box = sharded.shards[sid].routing_box()
        assert box is not None
        for coords in batches:
            assert (
                (coords[:, 0] <= box.x2)
                & (coords[:, 2] >= box.x1)
                & (coords[:, 1] <= box.y2)
                & (coords[:, 3] >= box.y1)
            ).all()


class TestRoutingBehaviour:
    """The router consults only the shards a batch's routing boxes
    hit: inline, the tier-kernel pass never announces a missed shard's
    fault site; pooled, it never sends a shard a row that shard's
    routing box misses."""

    def test_router_never_queries_a_missed_shard(self):
        """Inline tier: a batch confined to shard 0's routing box is
        served untouched while every shard it misses fails its site."""
        from repro.resilience import (
            FaultInjector,
            FaultPlan,
            FaultSpec,
            installed,
        )

        sharded = _build()
        box = sharded.shards[0].routing_box()
        cx, cy = box.center
        w, h = box.width * 1e-6, box.height * 1e-6
        queries = RectSet(np.array([
            Rect.from_center(cx + dx * w, cy + dy * h, w, h).as_tuple()
            for dx in (-2, 0, 2) for dy in (-2, 0, 2)
        ], dtype=np.float64))
        hit, _ = _expected_dispatch(sharded, queries)
        missed = [
            s.shard_id for s in sharded.shards if s.shard_id not in hit
        ]
        assert 0 in hit and missed
        router = ShardRouter(sharded)
        plan = FaultPlan(0, tuple(
            FaultSpec(
                f"serving.worker.s{sid}", kind="fail", probability=1.0
            )
            for sid in missed
        ))
        with installed(FaultInjector(plan)):
            served = router.estimate_batch(queries)
        assert router.degraded_shards == ()
        np.testing.assert_array_equal(
            served, sharded.union_estimator().estimate_batch(queries)
        )

    def test_pooled_router_never_queries_a_missed_shard(
        self, monkeypatch
    ):
        """Pooled tier: spied on the requests the router hands the
        worker pool."""
        from repro.serving.parallel import ShardWorkerPool

        sharded = _build()
        received = {}
        original = ShardWorkerPool.try_call_many

        def spy(pool, requests):
            for sid, _epoch, (rows, _kernel) in requests:
                received.setdefault(sid, []).append(rows)
            return original(pool, requests)

        monkeypatch.setattr(ShardWorkerPool, "try_call_many", spy)
        with ShardRouter(sharded, workers=2) as router:
            router.estimate_batch(range_queries(DATA, 0.05, 200, seed=21))
        _assert_rows_hit_their_shard(sharded, received)

    def test_fanout_counters_match_intersection_set(
        self, capture_counters
    ):
        sharded = _build()
        router = ShardRouter(sharded)
        queries = range_queries(DATA, 0.05, 300, seed=22)
        dispatched, routed = _expected_dispatch(sharded, queries)
        _, counters = capture_counters(
            lambda: router.estimate_batch(queries)
        )
        assert counters.get("serving.shard.requests") == 1
        assert counters.get("serving.shard.queries") == 300
        assert counters.get("serving.shard.fanout") \
            == len(dispatched)
        assert counters.get("serving.shard.subqueries") == routed
        assert counters.get("serving.shard.skipped", 0) \
            == sharded.n_shards - len(dispatched)

    def test_narrow_query_skips_far_shards(self, capture_counters):
        """A query inside one shard's box (and clear of every other
        routing box) fans out to exactly one shard."""
        sharded = _build()
        shard = sharded.shards[0]
        box = shard.routing_box()
        cx, cy = box.center
        tiny = Rect.from_center(
            cx, cy, box.width * 1e-6, box.height * 1e-6
        )
        others = [
            s for s in sharded.shards
            if s.shard_id != 0 and s.routing_box() is not None
            and s.routing_box().intersects(tiny)
        ]
        if others:
            pytest.skip("routing boxes overlap at this center")
        router = ShardRouter(sharded)
        queries = RectSet(np.array(
            [list(tiny.as_tuple())], dtype=np.float64
        ))
        # the batch path, then the scalar path on the same one-row query
        for serve in (
            lambda: router.estimate_batch(queries),
            lambda: router.estimate(tiny),
        ):
            _, counters = capture_counters(serve)
            assert counters.get("serving.shard.requests") == 1
            assert counters.get("serving.shard.queries") == 1
            assert counters.get("serving.shard.fanout") == 1
            assert counters.get("serving.shard.skipped") \
                == sharded.n_shards - 1

    def test_mutation_bumps_only_owning_shard_epoch(
        self, capture_counters
    ):
        sharded = _build()
        router = ShardRouter(sharded)
        queries = range_queries(DATA, 0.05, 20, seed=23)
        router.estimate_batch(queries)  # observe initial epochs
        rect = DATA[0]
        sid = sharded.owner_of(rect)
        before = sharded.epochs()

        def mutate_and_serve():
            router.insert(rect)
            router.estimate_batch(queries)

        _, counters = capture_counters(mutate_and_serve)
        after = sharded.epochs()
        for i, (b, a) in enumerate(zip(before, after)):
            assert (a != b) == (i == sid)
        assert counters.get("serving.shard.epoch_bumps") == 1
        assert counters.get(
            f"serving.shard.epoch_bumps.s{sid}"
        ) == 1
        for i in range(sharded.n_shards):
            if i != sid:
                assert (
                    f"serving.shard.epoch_bumps.s{i}"
                    not in counters
                )


class TestShardWorkerPool:
    def test_pooled_router_matches_inline_bit_for_bit(self):
        queries = range_queries(DATA, 0.05, 400, seed=31)
        inline = ShardRouter(_build())
        with ShardRouter(_build(), workers=2) as pooled:
            np.testing.assert_array_equal(
                pooled.estimate_batch(queries),
                inline.estimate_batch(queries),
            )

    def test_pooled_router_matches_inline_after_mutations(self):
        queries = range_queries(DATA, 0.05, 150, seed=32)
        inline = ShardRouter(_build())
        with ShardRouter(_build(), workers=2) as pooled:
            for op in live_workload(DATA, 0.08, 80, seed=33):
                if op.kind == "insert":
                    inline.insert(op.rect)
                    pooled.insert(op.rect)
                elif op.kind == "delete":
                    inline.delete(op.rect)
                    pooled.delete(op.rect)
            np.testing.assert_array_equal(
                pooled.estimate_batch(queries),
                inline.estimate_batch(queries),
            )

    def test_pooled_counter_totals_match_inline(
        self, capture_counters
    ):
        queries = range_queries(DATA, 0.05, 100, seed=34)

        def serve(router):
            _, counters = capture_counters(
                lambda: router.estimate_batch(queries)
            )
            return counters

        def routing(counters):
            return {
                name: value for name, value in counters.items()
                if name.startswith("serving.shard.")
            }

        inline_counters = serve(ShardRouter(_build()))
        with ShardRouter(_build(), workers=2) as pooled:
            pooled_counters = serve(pooled)
        # inline, no shard estimator runs (the router evaluates the
        # tier kernel itself), so only the routing counters can match
        assert routing(inline_counters)
        assert routing(inline_counters) == routing(pooled_counters)

    def test_closed_pooled_router_serves_inline(self):
        """Closing the pool leaves a router that keeps answering,
        inline, exactly like the union reference."""
        queries = range_queries(DATA, 0.05, 120, seed=35)
        sharded = _build()
        union = sharded.union_estimator()
        reference = union.estimate_batch(queries)
        router = ShardRouter(sharded, workers=2)
        np.testing.assert_array_equal(
            router.estimate_batch(queries), reference
        )
        router.close()
        np.testing.assert_array_equal(
            router.estimate_batch(queries), reference
        )
        assert router.estimate(queries[0]) == union.estimate(queries[0])


class TestShardServesFromItsKernel:
    """Inline, the router answers a batch with one pass of the tier
    kernel; pooled, a worker answers each dispatched sub-batch with one
    pass of the shard's kernel snapshot: no query cache, no bucket
    index, and no per-request engine accounting on the sharded path."""

    ENGINE_PREFIXES = ("serving.cache.", "serving.index.")
    ENGINE_COUNTERS = ("serving.epoch.index_rebuilds", "serving.requests")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sub_batches_run_the_kernel_directly(
        self, workers, capture_counters, monkeypatch
    ):
        from repro.core.bucket import BucketArrays

        kernel_calls = []
        block = BucketArrays.term_block

        def counted(arrays, qcoords):
            kernel_calls.append(len(qcoords))
            return block(arrays, qcoords)

        monkeypatch.setattr(BucketArrays, "term_block", counted)
        # under the kernel's 1,024-row chunk: one block per batch
        queries = range_queries(DATA, 0.05, 200, seed=51)
        sharded = _build()
        rect = DATA[0]

        def serve():
            kernel_calls.clear()
            values = router.estimate_batch(queries)
            return values, len(kernel_calls)

        with ShardRouter(sharded, workers=workers) as router:
            (first, first_calls), before = capture_counters(serve)
            router.insert(rect)
            (second, second_calls), after = capture_counters(serve)
        for counters in (before, after):
            leaked = sorted(
                name for name in counters
                if name.startswith(self.ENGINE_PREFIXES)
                or name in self.ENGINE_COUNTERS
            )
            assert leaked == []
        assert after.get("serving.epoch.estimator_rebuilds", 0) \
            == before.get("serving.epoch.estimator_rebuilds", 0) + 1
        if workers == 1:
            assert before["serving.shard.fanout"] > 1
            assert first_calls == 1
            assert second_calls == 1
        np.testing.assert_array_equal(
            second, sharded.union_estimator().estimate_batch(queries)
        )
        assert not np.array_equal(first, second)


class TestPickleRevalidation:
    """Epoch bookkeeping must survive pickling: the kernel snapshot
    crosses a process boundary together with the epoch it was built
    from, so the first serve after unpickling re-syncs it."""

    def test_unpickled_estimator_is_not_stale(self):
        data = charminar(500, seed=3)
        hist = MaintainedHistogram(
            MinSkewPartitioner(10, n_regions=144), data,
            drift_threshold=0.9,
        )
        est = MaintainedEstimator(hist)
        queries = range_queries(data, 0.15, 20, seed=4)
        stale = est.estimate_batch(queries)  # snapshot built
        cx, cy = data.mbr().center
        for _ in range(5):
            hist.insert(Rect.from_center(cx, cy, 1.0, 1.0))
        # pickle *after* the mutation, *before* any sync: exactly the
        # worker-pool handoff window
        clone = pickle.loads(pickle.dumps(est))
        fresh = BucketEstimator(
            list(clone.histogram.buckets), name="fresh"
        ).estimate_batch(queries)
        got = clone.estimate_batch(queries)
        np.testing.assert_array_equal(got, fresh)
        assert not np.array_equal(got, stale)


class TestEmptyAndDegenerateShards:
    def _cluster_data(self):
        rng = np.random.default_rng(11)
        a = rng.uniform(0.0, 1.0, size=(80, 2))
        b = rng.uniform(100.0, 101.0, size=(80, 2))
        pts = np.vstack([a, b])
        coords = np.column_stack(
            [pts[:, 0], pts[:, 1], pts[:, 0] + 0.01,
             pts[:, 1] + 0.01]
        )
        return RectSet(coords)

    def test_shard_emptied_by_deletes_serves_zero_and_is_skipped(
        self
    ):
        data = self._cluster_data()
        sharded = ShardedHistogram.build(
            data, n_shards=2, n_buckets=8, n_regions=64,
            drift_threshold=1.0,
        )
        victim = sharded.shards[0]
        assert len(victim) > 0
        for row in list(victim.hist.current_data()):
            assert sharded.delete(row)[1]
        victim.hist.refresh()
        assert victim.buckets == []
        assert victim.routing_box() is None
        router = ShardRouter(sharded)
        queries = range_queries(data, 0.2, 30, seed=12)
        np.testing.assert_array_equal(
            router.estimate_batch(queries),
            sharded.union_estimator().estimate_batch(queries),
        )

    def test_lazy_shard_creation_on_first_insert(self):
        data = self._cluster_data()
        plan = ShardPlan.build(data, 2, n_regions=64)
        owners = plan.owners(data.centers())
        keep = owners == 0
        sharded = ShardedHistogram.build(
            data.select(np.flatnonzero(keep)),
            plan=plan, n_buckets=8, n_regions=64,
        )
        empty = next(s for s in sharded.shards if len(s) == 0)
        assert empty.routing_box() is None
        epoch_before = empty.epoch
        rect = data[int(np.flatnonzero(~keep)[0])]
        sid = sharded.insert(rect)
        assert sid == empty.shard_id
        assert empty.epoch > epoch_before
        assert empty.routing_box() is not None
        router = ShardRouter(sharded)
        queries = range_queries(data, 0.2, 20, seed=13)
        np.testing.assert_array_equal(
            router.estimate_batch(queries),
            sharded.union_estimator().estimate_batch(queries),
        )
