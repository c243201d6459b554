"""Chaos tests for the vectorised serving path.

The batch engine must inherit the resilience chain's degradation
semantics unchanged: an injected fault in the Min-Skew path makes the
*whole batch* fall through to the next healthy link, the resilience
counters account for every query in the batch, and the engine's cache
stays consistent with whatever the degraded chain answered.
"""

import numpy as np
import pytest

from repro.data import uniform_rects
from repro.errors import FallbackExhaustedError
from repro.estimators import BucketEstimator
from repro.resilience import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    build_fallback_chain,
    installed,
)
from repro.serving import BatchServingEngine
from repro.workload import range_queries

N_QUERIES = 60


@pytest.fixture()
def data():
    return uniform_rects(300, seed=5)


@pytest.fixture()
def queries(data):
    return range_queries(data, 0.1, N_QUERIES, seed=6)


def _chain(data, **kwargs):
    return build_fallback_chain(data, 10, n_regions=256, **kwargs)


def _run(chain, queries, plan, capture):
    """Serve a batch through the engine under an installed fault plan;
    ``capture`` is the ``capture_counters`` fixture; returns
    (values, counters, engine)."""
    engine = BatchServingEngine(chain, auto_index=False)

    def serve():
        with installed(FaultInjector(plan, clock=chain.clock)):
            return engine.estimate_batch(queries)

    values, counters = capture(serve)
    return values, counters, engine


class TestDegradedBatchServing:
    def test_corrupt_minskew_build_served_by_sample(
        self, data, queries, capture_counters
    ):
        chain = _chain(data)
        plan = FaultPlan(
            0, (FaultSpec("estimator.build.Min-Skew", kind="corrupt"),)
        )
        values, counters, _ = _run(chain, queries, plan, capture_counters)
        assert values.shape == (N_QUERIES,)
        assert np.isfinite(values).all() and (values >= 0.0).all()
        assert counters.get("resilience.link_failures.Min-Skew") == 1
        assert counters.get("resilience.served.Sample") == N_QUERIES
        assert counters.get("resilience.degraded") == N_QUERIES
        # the serving layer accounted for the batch too
        assert counters.get("serving.requests") == 1
        assert counters.get("serving.queries") == N_QUERIES

    def test_degraded_answers_match_fallback_link(
        self, data, queries, capture_counters
    ):
        # what the degraded chain serves is exactly the Sample link's
        # own batch answer — degradation, not distortion
        chain = _chain(data)
        plan = FaultPlan(
            0, (FaultSpec("estimator.build.Min-Skew", kind="corrupt"),)
        )
        values, _, _ = _run(chain, queries, plan, capture_counters)
        sample_link = next(
            link for link in chain.links if link.name == "Sample"
        )
        reference = sample_link.built_estimator.estimate_batch(queries)
        np.testing.assert_array_equal(values, reference)

    def test_runtime_fault_in_built_minskew(
        self, data, queries, capture_counters
    ):
        chain = _chain(data)
        # build succeeds; the *serve* site fails
        plan = FaultPlan(0, (FaultSpec("estimator.Min-Skew",
                                       kind="fail"),))
        values, counters, _ = _run(chain, queries, plan, capture_counters)
        assert np.isfinite(values).all()
        assert counters.get("resilience.link_failures.Min-Skew") == 1
        assert counters.get("resilience.served.Sample") == N_QUERIES

    def test_transient_fault_retried_without_degrading(
        self, data, queries, capture_counters
    ):
        chain = _chain(data)
        plan = FaultPlan(
            0,
            (FaultSpec("estimator.Min-Skew", kind="io",
                       recover_after=1),),
        )
        values, counters, _ = _run(chain, queries, plan, capture_counters)
        assert counters.get("resilience.retries") == 1
        assert counters.get("resilience.served.Min-Skew") == N_QUERIES
        assert "resilience.degraded" not in counters
        # after the retry the values are the healthy chain's values
        clean = _chain(data)
        np.testing.assert_array_equal(
            values, clean.estimate_batch(queries)
        )

    def test_all_links_failing_fills_last_resort(
        self, data, queries, capture_counters
    ):
        chain = _chain(data)
        plan = FaultPlan(0, (FaultSpec("estimator.build.*",
                                       kind="corrupt"),))
        values, counters, _ = _run(chain, queries, plan, capture_counters)
        np.testing.assert_array_equal(
            values, np.zeros(N_QUERIES, dtype=np.float64)
        )
        assert counters.get("resilience.last_resort") == N_QUERIES
        for name in ("Min-Skew", "Sample", "Uniform"):
            assert counters.get(
                f"resilience.link_failures.{name}"
            ) == 1

    def test_exhausted_chain_propagates_through_engine(
        self, data, queries
    ):
        chain = _chain(data)
        chain.last_resort = None
        plan = FaultPlan(0, (FaultSpec("estimator.build.*",
                                       kind="corrupt"),))
        engine = BatchServingEngine(chain, auto_index=False)
        with installed(FaultInjector(plan, clock=chain.clock)):
            with pytest.raises(FallbackExhaustedError):
                engine.estimate_batch(queries)


class TestCacheUnderDegradation:
    def test_degraded_values_are_never_cached(
        self, data, queries, capture_counters
    ):
        """A batch served by a fallback link must not populate the
        cache — otherwise popular queries keep getting Sample-quality
        answers long after the chain recovers."""
        chain = _chain(data)
        plan = FaultPlan(
            0, (FaultSpec("estimator.build.Min-Skew", kind="corrupt"),)
        )
        first, counters, engine = _run(chain, queries, plan, capture_counters)
        assert counters.get("resilience.degraded") == N_QUERIES
        assert len(engine.cache) == 0

    def test_post_recovery_answers_match_healthy_estimator(
        self, data, queries, capture_counters
    ):
        """Once the injected fault clears, the very next serve answers
        with the healthy (Min-Skew) link's values — bit-identical to a
        chain that never failed — and only those get cached."""
        chain = _chain(data)
        plan = FaultPlan(
            0, (FaultSpec("estimator.build.Min-Skew", kind="corrupt"),)
        )
        first, _, engine = _run(chain, queries, plan, capture_counters)
        # injector gone; one build failure leaves the breaker closed
        # (threshold 3), so the chain rebuilds Min-Skew and recovers
        second = engine.estimate_batch(queries)
        healthy = _chain(data)
        np.testing.assert_array_equal(
            second, healthy.estimate_batch(queries)
        )
        assert not np.array_equal(second, first)
        # the recovery was a serving-link transition: the engine
        # flushed the cache before repopulating it with healthy values
        assert engine.cache.flushes == 1
        hits_before = engine.cache.hits
        third = engine.estimate_batch(queries)
        np.testing.assert_array_equal(third, second)
        assert engine.cache.hits == hits_before + N_QUERIES


class TestShardedChaos:
    """Faults in one shard's estimator stay inside that shard.

    Every shard of a ``guarded=True`` sharded tier runs its own
    fallback chain whose link names carry the shard id
    (``Min-Skew@s0`` → ``Uniform@s0``), so fault sites and
    ``resilience.*`` counters are naturally per-shard.  A fault
    injected into shard 0's estimator degrades shard 0's *partial*
    down its chain; every other shard's contribution is bit-identical
    to a fault-free run.
    """

    def _sharded(self, data):
        from repro.serving import ShardedHistogram

        return ShardedHistogram.build(
            data, n_shards=3, n_buckets=12, n_regions=256,
            guarded=True,
        )

    def _faulted_serve(self, data, queries, capture):
        """Serve through a router while shard 0's primary link fails
        to build; ``capture`` is the ``capture_counters`` fixture;
        returns (values, counters, router)."""
        from repro.serving import ShardRouter

        sharded = self._sharded(data)
        router = ShardRouter(sharded)
        name = sharded.shards[0].estimator.name
        plan = FaultPlan(
            0,
            (FaultSpec(f"estimator.build.{name}@s0",
                       kind="corrupt"),),
        )
        clock = sharded.shards[0].chain.clock

        def serve():
            with installed(FaultInjector(plan, clock=clock)):
                return router.estimate_batch(queries)

        values, counters = capture(serve)
        return values, counters, router

    def _subbatch(self, sharded, queries, sid):
        """(positions, clipped coords) shard ``sid`` receives — the
        same intersection/clip rule the router applies."""
        box = sharded.shards[sid].routing_box()
        coords = queries.coords
        mask = (
            (coords[:, 0] <= box.x2)
            & (coords[:, 2] >= box.x1)
            & (coords[:, 1] <= box.y2)
            & (coords[:, 3] >= box.y1)
        )
        idx = np.flatnonzero(mask)
        sub = coords[idx]
        clipped = np.column_stack([
            np.maximum(sub[:, 0], box.x1),
            np.maximum(sub[:, 1], box.y1),
            np.minimum(sub[:, 2], box.x2),
            np.minimum(sub[:, 3], box.y2),
        ])
        return idx, clipped

    def test_fault_degrades_only_the_faulted_shards_partial(
        self, data, queries, capture_counters
    ):
        from repro.geometry import RectSet
        from repro.serving import ShardRouter

        values, counters, router = self._faulted_serve(
            data, queries, capture_counters
        )
        sharded = router.sharded
        name = sharded.shards[0].estimator.name
        idx0, clipped0 = self._subbatch(sharded, queries, 0)
        n0 = len(idx0)
        assert n0 > 0  # the fault was actually exercised
        assert np.isfinite(values).all() and (values >= 0.0).all()
        # the chain degraded exactly once, in shard 0's links only
        assert counters.get(
            f"resilience.link_failures.{name}@s0"
        ) == 1
        assert counters.get("resilience.served.Uniform@s0") == n0
        assert counters.get("resilience.degraded") == n0
        for sid in (1, 2):
            assert (
                f"resilience.link_failures.{name}@s{sid}"
                not in counters
            )
            idx, _ = self._subbatch(sharded, queries, sid)
            if len(idx):
                assert counters.get(
                    f"resilience.served.{name}@s{sid}"
                ) == len(idx)
        # shard 0's partial is exactly its Uniform link's answer
        uniform = next(
            link for link in sharded.shards[0].chain.links
            if link.name == "Uniform@s0"
        ).built_estimator
        healthy = ShardRouter(self._sharded(data))
        expected = healthy.estimate_batch(queries).copy()
        kernel = np.zeros(len(queries), dtype=np.float64)
        kernel[idx0] = sharded.shards[0].estimator.estimate_batch(
            RectSet(clipped0, copy=False, validate=False)
        )
        uniform_part = np.zeros(len(queries), dtype=np.float64)
        uniform_part[idx0] = uniform.estimate_batch(
            RectSet(clipped0, copy=False, validate=False)
        )
        np.testing.assert_allclose(
            values, expected - kernel + uniform_part, rtol=1e-12
        )
        # queries that never touch shard 0 are *bit-identical* to
        # the fault-free run: healthy shards did not notice
        untouched = np.setdiff1d(
            np.arange(len(queries)), idx0
        )
        np.testing.assert_array_equal(
            values[untouched], expected[untouched]
        )

    def test_recovery_is_bit_identical_to_never_faulted(
        self, data, queries, capture_counters
    ):
        from repro.serving import ShardRouter

        first, _, router = self._faulted_serve(
            data, queries, capture_counters
        )
        # injector gone, breaker still closed after one failure: the
        # next serve rebuilds shard 0's primary link and recovers
        second = router.estimate_batch(queries)
        healthy = ShardRouter(self._sharded(data))
        np.testing.assert_array_equal(
            second, healthy.estimate_batch(queries)
        )
        assert not np.array_equal(second, first)


class TestLazyLinkIndexing:
    def test_lazily_built_link_is_indexed_on_discovery(
        self, data, queries
    ):
        """Engine construction finds no built links (the chain is
        fully lazy); the Min-Skew link built during the first serve
        must still receive a BucketIndex on the next revalidation
        instead of scanning every bucket forever."""
        chain = _chain(data)
        engine = BatchServingEngine(chain)
        assert engine.indexed == []
        engine.estimate_batch(queries)  # builds the Min-Skew link
        engine.estimate(queries[0])  # revalidation discovers it
        minskew = next(
            link for link in chain.links if link.name == "Min-Skew"
        ).built_estimator
        assert isinstance(minskew, BucketEstimator)
        assert minskew.index is not None
        assert minskew in engine.indexed

    def test_link_built_after_degradation_is_indexed(
        self, data, queries
    ):
        """The satellite scenario: the chain degrades first (Min-Skew
        unbuilt, Sample serving), then recovers — the late-built
        Min-Skew link still gets its index, and the indexed scalar
        path answers exactly like a healthy chain's."""
        chain = _chain(data)
        plan = FaultPlan(
            0, (FaultSpec("estimator.build.Min-Skew", kind="corrupt"),)
        )
        engine = BatchServingEngine(chain)
        with installed(FaultInjector(plan, clock=chain.clock)):
            engine.estimate_batch(queries)
        assert engine.indexed == []  # only Sample built; no buckets
        engine.estimate_batch(queries)  # recovery: Min-Skew builds
        engine.estimate(queries[0])  # discovery + index attach
        minskew = next(
            link for link in chain.links if link.name == "Min-Skew"
        ).built_estimator
        assert minskew is not None and minskew.index is not None
        healthy = _chain(data)
        for q in list(queries)[:10]:
            assert engine.estimate(q) == healthy.estimate(q)


class TestFrontDoorWorkerKillChaos:
    """SIGKILLed workers with front-door clients in flight.

    The kill decisions fire on a separate thread while concurrent
    pipelined TCP clients are mid-request, so workers genuinely die
    under load.  The SLO contract: every client gets a correct answer
    or a typed degraded/overload response, and none hangs past its
    deadline (``report.timeouts`` counts deadline breaches and any
    breach fails the run).
    """

    def test_kills_in_flight_keep_the_slo(self):
        from repro.resilience.chaos import (
            WorkerKillConfig,
            run_worker_kill_chaos,
        )

        report = run_worker_kill_chaos(WorkerKillConfig(
            n=600, n_batches=5, batch_size=15,
            n_buckets=16, n_regions=144,
            through_server=True, server_concurrency=4,
        ))
        assert report.through_server
        assert report.kills > 0, (
            "the seeded plan never killed a worker; the run proves "
            "nothing — adjust kill_rate/plan_seed"
        )
        assert report.timeouts == 0  # no client hung past its deadline
        assert report.survival == 1.0
        assert report.recovered_matches  # over-the-wire, bit-identical
        assert report.digests_match
        assert report.passed
