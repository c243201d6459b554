"""Chaos tests for the vectorised serving path.

Serving a batch through the resilience chain keeps its degradation
semantics: an injected fault in the Min-Skew path makes the *whole
batch* fall through to the next healthy link, the resilience counters
account for every query in the batch, and once the fault clears the
chain answers exactly like one that never failed.  In the sharded
tier the same holds per shard: a fault at one shard's router site
degrades only that shard's partial, and the next clean serve is
bit-identical to a router that never failed.
"""

import numpy as np
import pytest

from repro.data import uniform_rects
from repro.errors import FallbackExhaustedError
from repro.resilience import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    build_fallback_chain,
    installed,
)
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
    """Serve a batch through the chain under an installed fault plan;
    ``capture`` is the ``capture_counters`` fixture; returns
    (values, counters)."""

    def serve():
        with installed(FaultInjector(plan, clock=chain.clock)):
            return chain.estimate_batch(queries)

    return capture(serve)


class TestDegradedBatchServing:
    def test_corrupt_minskew_build_served_by_sample(
        self, data, queries, capture_counters
    ):
        chain = _chain(data)
        plan = FaultPlan(
            0, (FaultSpec("estimator.build.Min-Skew", kind="corrupt"),)
        )
        values, counters = _run(chain, queries, plan, capture_counters)
        assert values.shape == (N_QUERIES,)
        assert np.isfinite(values).all() and (values >= 0.0).all()
        assert counters.get("resilience.link_failures.Min-Skew") == 1
        assert counters.get("resilience.served.Sample") == N_QUERIES
        assert counters.get("resilience.degraded") == N_QUERIES

    def test_degraded_answers_match_fallback_link(
        self, data, queries, capture_counters
    ):
        # what the degraded chain serves is exactly the Sample link's
        # own batch answer — degradation, not distortion
        chain = _chain(data)
        plan = FaultPlan(
            0, (FaultSpec("estimator.build.Min-Skew", kind="corrupt"),)
        )
        values, _ = _run(chain, queries, plan, capture_counters)
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
        values, counters = _run(chain, queries, plan, capture_counters)
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
        values, counters = _run(chain, queries, plan, capture_counters)
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
        values, counters = _run(chain, queries, plan, capture_counters)
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
        with installed(FaultInjector(plan, clock=chain.clock)):
            with pytest.raises(FallbackExhaustedError):
                chain.estimate_batch(queries)


class TestCacheUnderDegradation:
    def test_post_recovery_answers_match_healthy_estimator(
        self, data, queries, capture_counters
    ):
        """Once the injected fault clears, the very next serve answers
        with the healthy (Min-Skew) link's values — bit-identical to a
        chain that never failed — and keeps answering them."""
        chain = _chain(data)
        plan = FaultPlan(
            0, (FaultSpec("estimator.build.Min-Skew", kind="corrupt"),)
        )
        first, _ = _run(chain, queries, plan, capture_counters)
        # injector gone; one build failure leaves the breaker closed
        # (threshold 3), so the chain rebuilds Min-Skew and recovers
        second = chain.estimate_batch(queries)
        healthy = _chain(data)
        np.testing.assert_array_equal(
            second, healthy.estimate_batch(queries)
        )
        assert not np.array_equal(second, first)
        np.testing.assert_array_equal(
            chain.estimate_batch(queries), second
        )


class TestShardedChaos:
    """Faults in one shard stay inside that shard.

    The router announces one fault site per consulted shard
    (``serving.worker.s<id>``) and keeps per-shard failure and
    degraded counters.  A fault injected at shard 0's site degrades
    shard 0's *partial* to its ``Uniform@s0`` last resort over its
    clipped rows; every other shard's contribution is bit-identical to
    a fault-free run, and so is the first serve after the fault
    clears.
    """

    def _sharded(self, data):
        from repro.serving import ShardedHistogram

        return ShardedHistogram.build(
            data, n_shards=3, n_buckets=12, n_regions=256,
        )

    def _faulted_serve(self, data, queries, capture):
        """Serve through a router while shard 0's site fails once;
        ``capture`` is the ``capture_counters`` fixture; returns
        (values, counters, router)."""
        from repro.serving import ShardRouter

        router = ShardRouter(self._sharded(data))
        plan = FaultPlan(0, (FaultSpec("serving.worker.s0", kind="fail"),))

        def serve():
            with installed(FaultInjector(plan, clock=router._clock)):
                return router.estimate_batch(queries)

        values, counters = capture(serve)
        return values, counters, router

    def _subbatch(self, sharded, queries, sid):
        """(positions, clipped coords) of shard ``sid``'s rows — the
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
        from repro.estimators import BucketEstimator
        from repro.geometry import RectSet
        from repro.serving import ShardRouter

        values, counters, router = self._faulted_serve(
            data, queries, capture_counters
        )
        sharded = router.sharded
        idx0, clipped0 = self._subbatch(sharded, queries, 0)
        assert len(idx0) > 0  # the fault was actually exercised
        assert router.degraded_shards == (0,)
        # the router failed and degraded shard 0 once, no other shard
        assert counters.get("serving.shard.failures.s0") == 1
        assert counters.get("serving.shard.degraded.s0") == 1
        for sid in (1, 2):
            assert f"serving.shard.failures.s{sid}" not in counters
            assert f"serving.shard.degraded.s{sid}" not in counters
        # shard 0's partial is exactly its Uniform last resort over
        # its clipped rows, added in shard order
        expected = np.zeros(len(queries), dtype=np.float64)
        for shard in sharded.shards:
            if shard.shard_id == 0:
                expected[idx0] += shard.degraded_estimator().estimate_batch(
                    RectSet(clipped0, copy=False, validate=False)
                )
            elif shard.buckets:
                expected += BucketEstimator(
                    shard.buckets
                ).estimate_batch(queries)
        np.testing.assert_array_equal(values, expected)
        # queries that never touch shard 0 are *bit-identical* to
        # the fault-free run: healthy shards did not notice
        healthy = ShardRouter(self._sharded(data))
        reference = healthy.estimate_batch(queries)
        untouched = np.setdiff1d(np.arange(len(queries)), idx0)
        np.testing.assert_array_equal(
            values[untouched], reference[untouched]
        )

    def test_recovery_is_bit_identical_to_never_faulted(
        self, data, queries, capture_counters
    ):
        from repro.serving import ShardRouter

        first, _, router = self._faulted_serve(
            data, queries, capture_counters
        )
        # one failure leaves the shard suspect (threshold 3); the next
        # serve without the plan succeeds and heals it
        assert router.health()[0] == "suspect"
        second = router.estimate_batch(queries)
        assert router.health()[0] == "healthy"
        assert router.degraded_shards == ()
        healthy = ShardRouter(self._sharded(data))
        np.testing.assert_array_equal(
            second, healthy.estimate_batch(queries)
        )
        assert not np.array_equal(second, first)


class TestLazyLinkIndexing:
    def test_link_built_after_degradation_is_indexed(
        self, data, queries
    ):
        """The chain degrades first (Min-Skew unbuilt, Sample
        serving), then recovers — the late-built Min-Skew link's
        scalar path answers exactly like a healthy chain's."""
        chain = _chain(data)
        plan = FaultPlan(
            0, (FaultSpec("estimator.build.Min-Skew", kind="corrupt"),)
        )
        with installed(FaultInjector(plan, clock=chain.clock)):
            chain.estimate_batch(queries)
        chain.estimate_batch(queries)  # recovery: Min-Skew builds
        minskew = next(
            link for link in chain.links if link.name == "Min-Skew"
        ).built_estimator
        assert minskew is not None
        healthy = _chain(data)
        for q in list(queries)[:10]:
            assert chain.estimate(q) == healthy.estimate(q)


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
