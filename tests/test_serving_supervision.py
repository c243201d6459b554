"""Fault-tolerance suite for the sharded serving tier.

Covers the supervision stack end to end:

* **worker supervision** — a SIGKILLed worker surfaces as a typed
  :class:`ShardWorkerError` (never a hang) and is respawned; a
  SIGSTOPped (wedged) worker runs the reply deadline out the same
  way; a request naming an epoch its worker does not hold gets a
  typed error, never an answer; ``close()`` is idempotent and
  survives pre-killed workers;
* **respawn** — a respawned worker is sent its shards' kernels
  again, so after a mutation stream, a tuning pass, or no change at
  all, the pooled tier answers *bit-identically* to the union
  reference, for every bucket technique;
* **quarantine** — the :class:`ShardHealth` state machine walks
  healthy → suspect → quarantined → recovering → healthy on the
  logical clock, and the router serves quarantined shards by their
  degraded ``Uniform@s<id>`` partial with an explicit
  ``degraded_shards`` annotation;
* **partial-result integrity** (hypothesis) — for any fault plan
  failing at most K−1 shards, queries that touch none of the failed
  shards are answered bit-identically to the
  :class:`ShardUnionEstimator` reference, and the
  ``serving.shard.degraded.s<id>`` counters match the independently
  computed failed∩dispatched set;
* **worker-kill chaos harness** — the seeded SIGKILL stream loses no
  request and recovers to bit-identical answers (the CI gate).
"""

import os
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bucket import estimate_many_arrays
from repro.data import charminar
from repro.errors import ShardWorkerError
from repro.eval import BUCKET_TECHNIQUES, build_partitioner
from repro.geometry import RectSet
from repro.obs import OBS
from repro.resilience import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    StepClock,
    WorkerKillConfig,
    installed,
    run_worker_kill_chaos,
)
from repro.serving import (
    HEALTH_STATES,
    ShardedHistogram,
    ShardHealth,
    ShardRouter,
)
from repro.workload import live_workload, range_queries

DATA = charminar(900, seed=23)
QUERIES = range_queries(DATA, 0.1, 60, seed=9)
N_SHARDS = 3


def _build(technique="Min-Skew"):
    return ShardedHistogram.build(
        DATA, n_shards=N_SHARDS, n_buckets=18,
        partitioner_factory=lambda quota: build_partitioner(
            technique, quota, n_regions=256
        ),
    )


def _request(sharded, sid):
    """A pool request: every query row for shard ``sid``, with the
    shard's epoch and kernel."""
    shard = sharded.shards[sid]
    return (sid, shard.epoch, (QUERIES.coords, shard.kernel()))


def _answer(sharded, sid):
    """What the worker must reply to :func:`_request`."""
    return estimate_many_arrays(sharded.shards[sid].kernel(), QUERIES)


def _mutations(n):
    return [
        op for op in live_workload(
            DATA, 0.1, 4 * n, seed=31,
            query_frac=0.0, insert_frac=0.6,
        )
        if op.kind != "query"
    ][:n]


def _dispatched(sharded, queries):
    """Shard ids the router must fan out to, per the routing boxes."""
    coords = queries.coords
    hit = {}
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
        if mask.any():
            hit[shard.shard_id] = mask
    return hit


# ----------------------------------------------------------------------
# worker supervision
# ----------------------------------------------------------------------
class TestWorkerSupervision:
    def test_sigkilled_worker_raises_typed_error_and_respawns(self):
        sharded = _build()
        with ShardRouter(
            sharded, workers=2,
            budget_steps=100, poll_interval=0.005,
        ) as router:
            pool = router._pool
            victim = pool.worker_of(0)
            pid = pool.worker_pids()[victim]
            os.kill(pid, signal.SIGKILL)
            pool._procs[victim].join(timeout=10)
            [error] = pool.try_call_many([_request(sharded, 0)])
            assert isinstance(error, ShardWorkerError)
            assert "shard 0" in str(error)
            assert "pending" in error.hint
            assert error.retryable
            # the slot was respawned: the same request now succeeds
            assert pool.respawns == 1
            [answer] = pool.try_call_many([_request(sharded, 0)])
            np.testing.assert_array_equal(answer, _answer(sharded, 0))

    def test_wedged_worker_runs_out_the_reply_deadline(self):
        sharded = _build()
        with ShardRouter(
            sharded, workers=2,
            budget_steps=5, poll_interval=0.001,
        ) as router:
            pool = router._pool
            victim = pool.worker_of(0)
            pid = pool.worker_pids()[victim]
            os.kill(pid, signal.SIGSTOP)
            try:
                [error] = pool.try_call_many([_request(sharded, 0)])
            finally:
                try:
                    # usually gone already: respawn SIGKILLs the
                    # wedged process (SIGKILL acts on stopped procs)
                    os.kill(pid, signal.SIGCONT)
                except ProcessLookupError:
                    pass
            assert isinstance(error, ShardWorkerError)
            assert "wedged" in str(error)
            assert "budget" in str(error)
            assert "pending" in error.hint
            # the wedged process was killed and the slot respawned
            # (post-recovery service is proven by the SIGKILL test —
            # this budget is deliberately too tight for a fresh
            # worker's start-up)
            assert pool.respawns == 1
            assert pool._procs[victim].pid != pid
            assert pool._procs[victim].is_alive()

    def test_call_many_fails_only_the_dead_workers_requests(self):
        sharded = _build()
        with ShardRouter(
            sharded, workers=2,
            budget_steps=100, poll_interval=0.005,
        ) as router:
            pool = router._pool
            victim = pool.worker_of(0)
            os.kill(pool.worker_pids()[victim], signal.SIGKILL)
            pool._procs[victim].join(timeout=10)
            requests = [
                _request(sharded, s.shard_id) for s in sharded.shards
            ]
            results = pool.try_call_many(requests)
            for (sid, _, _), result in zip(requests, results):
                if pool.worker_of(sid) == victim:
                    assert isinstance(result, ShardWorkerError)
                else:
                    np.testing.assert_array_equal(
                        result, _answer(sharded, sid)
                    )
            # healthy shards answered; the pool is whole again
            assert pool.respawns == 1
            for (sid, _, _), result in zip(
                requests, pool.try_call_many(requests)
            ):
                np.testing.assert_array_equal(
                    result, _answer(sharded, sid)
                )

    def test_stale_epoch_request_is_a_typed_error(self):
        """A request naming an epoch its worker does not hold is
        refused with an error, never answered; the worker keeps
        serving."""
        sharded = _build()
        with ShardRouter(sharded, workers=2) as router:
            pool = router._pool
            sid, epoch, args = _request(sharded, 0)
            # first request ships the kernel at ``epoch``
            [answer] = pool.try_call_many([(sid, epoch, args)])
            np.testing.assert_array_equal(answer, _answer(sharded, 0))
            # pretend the worker was already sent ``epoch + 1``: the
            # pool ships no kernel, and the worker holds ``epoch``
            pool._shipped[sid] = epoch + 1
            [error] = pool.try_call_many([(sid, epoch + 1, args)])
            assert isinstance(error, ShardWorkerError)
            assert f"epoch {epoch}" in str(error)
            assert f"epoch {epoch + 1}" in str(error)
            assert pool.respawns == 0
            # the error made the pool forget what it shipped, so the
            # next request re-ships the kernel and is answered
            [answer] = pool.try_call_many([(sid, epoch, args)])
            np.testing.assert_array_equal(answer, _answer(sharded, 0))
            served = router.estimate_batch(QUERIES)
            assert router.degraded_shards == ()
            assert np.array_equal(
                served, sharded.union_estimator().estimate_batch(QUERIES)
            )

    def test_close_is_idempotent_and_survives_killed_workers(self):
        router = ShardRouter(_build(), workers=2)
        pool = router._pool
        os.kill(pool.worker_pids()[1], signal.SIGKILL)
        pool._procs[1].join(timeout=10)
        router.close()
        router.close()
        assert router._pool is None
        pool.close()

    def test_mutation_routed_to_dead_worker_is_served_exactly(self):
        sharded = _build()
        with ShardRouter(
            sharded, workers=2,
            budget_steps=200, poll_interval=0.005,
        ) as router:
            pool = router._pool
            router.estimate_batch(QUERIES)
            op = _mutations(1)[0]
            victim = pool.worker_of(sharded.owner_of(op.rect))
            os.kill(pool.worker_pids()[victim], signal.SIGKILL)
            pool._procs[victim].join(timeout=10)
            router.insert(op.rect)
            served = router.estimate_batch(QUERIES)
            assert pool.respawns == 1
            assert router.degraded_shards == ()
            assert np.array_equal(
                served, sharded.union_estimator().estimate_batch(QUERIES)
            )


# ----------------------------------------------------------------------
# respawn
# ----------------------------------------------------------------------
def _kill_every_worker(pool):
    for pid in pool.worker_pids():
        os.kill(pid, signal.SIGKILL)
    for proc in pool._procs:
        proc.join(timeout=10)


class TestRespawnRecovery:
    """A respawned worker holds no kernel until the pool sends it its
    shards' kernels again."""

    @pytest.mark.parametrize("technique", BUCKET_TECHNIQUES)
    def test_pooled_serving_after_kills_matches_union(self, technique):
        sharded = _build(technique)
        with ShardRouter(
            sharded, workers=2,
            budget_steps=400, poll_interval=0.005,
        ) as router:
            before = router.estimate_batch(QUERIES)
            for op in _mutations(20):
                if op.kind == "insert":
                    router.insert(op.rect)
                else:
                    router.delete(op.rect)
            _kill_every_worker(router._pool)
            after = router.estimate_batch(QUERIES)
            assert router.degraded_shards == ()
            reference = sharded.union_estimator() \
                .estimate_batch(QUERIES)
            assert np.array_equal(after, reference)
            assert not np.array_equal(before, after), (
                "the mutation stream should have moved the answers; "
                "the recovery gate would be vacuous otherwise"
            )

    def test_killing_every_worker_without_mutations_keeps_answers(self):
        """No epoch moves between the kill and the next serve, so only
        a pool that forgets what it shipped to the dead workers
        re-sends their kernels."""
        sharded = _build()
        with ShardRouter(
            sharded, workers=2,
            budget_steps=400, poll_interval=0.005,
        ) as router:
            before = router.estimate_batch(QUERIES)
            _kill_every_worker(router._pool)
            with OBS.scope():
                OBS.reset()
                after = router.estimate_batch(QUERIES)
                counters = OBS.snapshot()["counters"]
                OBS.reset()
            assert router.degraded_shards == ()
            assert np.array_equal(after, before)
            assert np.array_equal(
                after, sharded.union_estimator().estimate_batch(QUERIES)
            )
            # every consulted shard failed once, on its dead worker,
            # and its first retry, to the respawned worker, answered
            fanout = counters["serving.shard.fanout"]
            assert counters["serving.pool.respawns"] == 2
            assert counters["serving.shard.failures"] == fanout
            assert counters["serving.shard.retries"] == fanout

    def test_tuned_layout_survives_killing_every_worker(self):
        sharded = _build()
        with ShardRouter(
            sharded, workers=2,
            budget_steps=400, poll_interval=0.005,
        ) as router:
            for op in _mutations(20):
                if op.kind == "insert":
                    router.insert(op.rect)
                else:
                    router.delete(op.rect)
            reports = router.tune(range_queries(DATA, 0.05, 80, seed=4))
            assert any(
                r is not None and r.applied and r.splits > 0
                for r in reports
            ), "no shard re-shaped its layout; the gate would be vacuous"
            _kill_every_worker(router._pool)
            served = router.estimate_batch(QUERIES)
            assert router.degraded_shards == ()
            assert np.array_equal(
                served, sharded.union_estimator().estimate_batch(QUERIES)
            )


# ----------------------------------------------------------------------
# quarantine
# ----------------------------------------------------------------------
class TestQuarantine:
    def test_health_walks_the_full_state_machine(self):
        clock = StepClock()
        health = ShardHealth(
            0, clock, failure_threshold=2, reset_after_steps=5
        )
        assert health.state == "healthy"
        health.record_failure()
        assert health.state == "suspect"
        assert health.allow()
        health.record_failure()
        assert health.state == "quarantined"
        assert not health.allow()
        clock.advance(5)
        assert health.state == "recovering"
        assert health.allow()
        health.record_success()
        assert health.state == "healthy"
        assert set(HEALTH_STATES) >= {
            "healthy", "suspect", "quarantined", "recovering",
        }

    def test_router_quarantines_and_serves_degraded(self):
        sharded = _build()
        router = ShardRouter(
            sharded,
            retry=RetryPolicy(max_attempts=2),
            failure_threshold=2, reset_after_steps=50,
        )
        plan = FaultPlan(3, (
            # retryable IO faults: the retry ladder itself drives the
            # consecutive-failure count up to the breaker threshold
            FaultSpec("serving.worker.s0", kind="io",
                      probability=1.0),
        ))
        injector = FaultInjector(plan)
        with OBS.scope():
            OBS.reset()
            with installed(injector):
                served = router.estimate_batch(QUERIES)
                assert router.degraded_shards == (0,)
                assert router.health()[0] == "quarantined"
                router.estimate_batch(QUERIES)
            counters = OBS.snapshot()["counters"]
            OBS.reset()
        assert counters["serving.shard.degraded.s0"] == 2
        assert counters["serving.shard.failures.s0"] >= 2
        assert counters["serving.shard.retries"] >= 1
        assert counters["serving.shard.health_transitions"] >= 2
        assert np.isfinite(served).all()
        # healthy shards still answer exactly like the reference
        reference = sharded.union_estimator().estimate_batch(QUERIES)
        untouched = ~_dispatched(sharded, QUERIES)[0]
        assert np.array_equal(
            served[untouched], reference[untouched]
        )

    def test_quarantined_shard_recovers_after_cooldown(self):
        sharded = _build()
        router = ShardRouter(
            sharded,
            retry=RetryPolicy(max_attempts=2),
            failure_threshold=2, reset_after_steps=10,
        )
        plan = FaultPlan(3, (
            FaultSpec("serving.worker.s0", kind="io",
                      probability=1.0),
        ))
        injector = FaultInjector(plan)
        with installed(injector):
            router.estimate_batch(QUERIES)
        assert router.health()[0] == "quarantined"
        router._clock.advance(10)
        assert router.health()[0] == "recovering"
        # faults gone: the trial dispatch succeeds and heals the shard
        served = router.estimate_batch(QUERIES)
        assert router.degraded_shards == ()
        assert router.health()[0] == "healthy"
        assert np.array_equal(
            served,
            sharded.union_estimator().estimate_batch(QUERIES),
        )


# ----------------------------------------------------------------------
# partial-result integrity under arbitrary <= K-1 shard failures
# ----------------------------------------------------------------------
SHARDED = _build()
REFERENCE = SHARDED.union_estimator().estimate_batch(QUERIES)


class TestPartialResultIntegrity:
    @settings(max_examples=20, deadline=None)
    @given(
        failed=st.sets(
            st.integers(min_value=0, max_value=N_SHARDS - 1),
            max_size=N_SHARDS - 1,
        ),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_healthy_shards_stay_bit_identical(self, failed, seed):
        router = ShardRouter(
            SHARDED,
            retry=RetryPolicy(max_attempts=2),
            failure_threshold=2,
        )
        plan = FaultPlan(seed, tuple(
            FaultSpec(f"serving.worker.s{sid}", kind="fail",
                      probability=1.0)
            for sid in sorted(failed)
        ))
        injector = FaultInjector(plan)
        with OBS.scope():
            OBS.reset()
            with installed(injector):
                served = router.estimate_batch(QUERIES)
            counters = OBS.snapshot()["counters"]
            OBS.reset()

        dispatched = _dispatched(SHARDED, QUERIES)
        expected_degraded = sorted(failed & set(dispatched))
        assert list(router.degraded_shards) == expected_degraded
        # degraded counters match the independently computed set
        for sid in range(N_SHARDS):
            count = counters.get(
                f"serving.shard.degraded.s{sid}", 0
            )
            assert count == (1 if sid in expected_degraded else 0)
        # queries touching no failed shard are answered exactly as
        # the single-engine union reference
        untouched = np.ones(len(QUERIES), dtype=bool)
        for sid in expected_degraded:
            untouched &= ~dispatched[sid]
        assert np.array_equal(
            served[untouched], REFERENCE[untouched]
        )
        assert np.isfinite(served).all()


# ----------------------------------------------------------------------
# the worker-kill chaos harness (the CI gate)
# ----------------------------------------------------------------------
class TestWorkerKillChaos:
    def test_seeded_kill_stream_loses_nothing(self):
        report = run_worker_kill_chaos(WorkerKillConfig(
            n=600, n_batches=5, batch_size=15,
            n_buckets=16, n_regions=144,
        ))
        assert report.requests == 5
        assert report.survival == 1.0
        assert report.kills > 0, (
            "the seeded plan never killed a worker; the run proves "
            "nothing — adjust kill_rate/plan_seed"
        )
        assert report.respawns >= report.kills
        assert report.recovered_matches
        assert report.passed
