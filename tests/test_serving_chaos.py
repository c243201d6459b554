"""Chaos tests for the sharded serving tier.

A fault at one shard's router site (``serving.worker.s<id>``) degrades
only that shard's partial to its ``Uniform@s<id>`` last resort, and
the next clean serve is bit-identical to a router that never failed.
The worker-kill experiment behind ``repro-spatial chaos`` SIGKILLs
pool workers with front-door clients in flight, and every client must
get a correct answer or a typed error — never a hang — while the
recovered tier answers bit-identically to the union reference.
"""

import numpy as np
import pytest

from repro.data import uniform_rects
from repro.resilience import FaultInjector, FaultPlan, FaultSpec, installed
from repro.workload import range_queries

N_QUERIES = 60


@pytest.fixture()
def data():
    return uniform_rects(300, seed=5)


@pytest.fixture()
def queries(data):
    return range_queries(data, 0.1, N_QUERIES, seed=6)


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
            with installed(FaultInjector(plan)):
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
        assert report.passed


class TestChaosCommand:
    """``repro-spatial chaos`` runs the worker-kill experiment."""

    def test_every_batch_survives_and_recovery_matches(self, capsys):
        import json

        from repro.cli import main

        code = main([
            "chaos", "--n", "600", "--queries", "75", "--buckets", "16",
            "--regions", "256", "--format", "json",
        ])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["requests"] == 3  # one batch per 25 queries
        assert report["survived"] == report["requests"]
        assert report["recovered_matches"] is True

    def test_regions_reach_the_experiment_unclamped(
        self, monkeypatch, capsys
    ):
        from repro.cli import main
        from repro.resilience import chaos

        seen = []

        def capture(config):
            seen.append(config)
            return chaos.WorkerKillReport(
                requests=1, survived=1, kills=0, respawns=0,
                degraded_dispatches=0, fanout=0,
                recovered_matches=True,
                estimates_sha256="", plan_seed=config.plan_seed,
            )

        monkeypatch.setattr(chaos, "run_worker_kill_chaos", capture)
        assert main(["chaos", "--n", "600", "--regions", "600"]) == 0
        assert main(["chaos", "--n", "600"]) == 0
        capsys.readouterr()
        assert [c.n_regions for c in seen] == [600, 512]
