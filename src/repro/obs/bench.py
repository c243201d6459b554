"""The ``repro-spatial bench`` regression workload.

Runs a fixed benchmark — a Charminar-style synthetic set and a simulated
NJ-Road set, every estimator in :data:`repro.eval.ALL_TECHNIQUES` — with
metrics collection enabled, and emits one ``BENCH_<name>.json`` artifact
(validated against :data:`repro.obs.schema.BENCH_SCHEMA`) containing:

* per-technique build and batch-estimation wall-clock times,
* the hot-path counters and stage timers the run produced
  (Min-Skew splits/heap traffic, R*-tree node accesses, oracle and
  estimator batch sizes, ...),
* the accuracy summary of every technique on the shared workload,
* a measurement of the metrics layer's own overhead, enabled and
  disabled, so the "near-zero when off" claim is checked by CI rather
  than asserted in prose.

The quick configuration (``repro-spatial bench --quick``) finishes in
well under a minute and is the baseline every perf PR compares against;
``--full`` runs the same pipeline at paper scale.

Two resilience knobs ride on top of the plain run:

* ``checkpoint_dir`` — every (dataset, technique) cell is persisted to a
  :class:`repro.storage.CheckpointStore` as soon as it finishes, so a
  run killed mid-way resumes from the last completed cell instead of
  starting over.  The store is fingerprinted by the benchmark config, so
  stale checkpoints from a different configuration are rejected rather
  than silently mixed in.
* ``deterministic`` — zeroes every wall-clock field (timestamps, build
  and estimate times, overhead probes, stage timers), leaving only the
  seed-driven values.  A killed-and-resumed deterministic run is
  byte-identical to an uninterrupted one, which is what the resume test
  asserts.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np
import numpy.typing as npt

from ..core.minskew import MinSkewPartitioner
from ..geometry import RectSet
from ..data import make_dataset
from ..eval import (
    ALL_TECHNIQUES,
    BUCKET_TECHNIQUES,
    ExperimentRunner,
    build_estimator,
    build_partitioner,
)
from ..eval.metrics import error_summary
from ..storage.checkpoint import CheckpointStore, config_fingerprint
from ..storage.persist import atomic_write_text
from ..workload import live_workload, range_queries
from .metrics import OBS, MetricsRegistry
from .schema import SCHEMA_VERSION, validate_bench

__all__ = [
    "BenchConfig",
    "QUICK_CONFIG",
    "FULL_CONFIG",
    "SERVING_CONFIG",
    "LIVE_CONFIG",
    "SERVER_CONFIG",
    "TUNING_CONFIG",
    "measure_overhead",
    "run_bench",
    "write_bench",
]


@dataclass(frozen=True)
class BenchConfig:
    """One benchmark workload definition.

    ``datasets`` pairs registry names with sizes; every technique in
    ``techniques`` is built once per dataset and evaluated on a shared
    query workload.
    """

    name: str
    datasets: Tuple[Tuple[str, int], ...]
    n_buckets: int = 50
    n_regions: int = 2_500
    n_queries: int = 300
    qsize: float = 0.05
    query_seed: int = 42
    techniques: Tuple[str, ...] = tuple(ALL_TECHNIQUES)
    #: ``"scalar"`` estimates with the plain per-technique batch call;
    #: ``"batch"`` serves through :class:`repro.serving
    #: .BatchServingEngine` and additionally times the scalar
    #: one-query-at-a-time loop, recording the speedup per technique;
    #: ``"live"`` replays an interleaved query/insert/delete stream
    #: against a maintained histogram served through the engine and
    #: checks the staleness contract (see ``live_matches``);
    #: ``"sharded"`` serves through the scatter-gather
    #: :class:`repro.serving.ShardRouter` over ``n_shards`` Min-Skew
    #: shard boxes and differentially gates the answers against the
    #: single-engine union reference (see ``sharded_matches``);
    #: ``"server"`` serves through the asyncio micro-batching
    #: :class:`repro.serving.FrontDoor` with ``concurrency``
    #: closed-loop TCP clients, records client-observed p50/p99
    #: latency and qps for the batched and the ``max_batch=1``
    #: single-dispatch runs, and differentially gates both against
    #: the direct engine (see ``server_matches``);
    #: ``"tuned"`` replays a *drifting* live stream against a
    #: feedback-tuned histogram and an identically budgeted static
    #: control, recording the ARE differential and the bit-for-bit
    #: rebuild gate (see ``tuned_matches``).
    engine: str = "scalar"
    #: Worker processes for the per-technique cells (1 = in-process).
    workers: int = 1
    #: Length of the interleaved maintenance stream (``engine="live"``
    #: and ``engine="sharded"``).
    live_ops: int = 0
    #: Seed of the interleaved stream.
    live_seed: int = 43
    #: Drift threshold of the maintained histograms — low enough that
    #: the default stream actually triggers refreshes (full summary
    #: rebuilds), so the bench exercises every epoch-bump source.
    live_drift: float = 0.02
    #: Shard count of the scatter-gather tier (``engine="sharded"``).
    n_shards: int = 4
    #: Router worker processes for the sharded tier (1 = inline).
    shard_workers: int = 1
    #: Load-generator processes of the front-door run
    #: (``engine="server"``): each drives one pipelined TCP
    #: connection of single-rect frames.
    concurrency: int = 4
    #: Micro-batch size cap of the front-door run.
    server_max_batch: int = 64
    #: Logical-wait trigger of the front-door batcher (StepClock
    #: steps a head-of-queue query may wait before a partial batch
    #: fires; 0 disables the wait trigger).
    server_wait_steps: int = 4
    #: Pipelining window per client: frames sent back to back before
    #: the client reads that window's responses.
    server_window: int = 64
    #: Deterministic per-insert translation bias of the live stream
    #: (fraction of the MBR extent per axis; ``engine="tuned"``).  The
    #: default keeps the stream byte-identical to the pre-drift one.
    live_drift_xy: Tuple[float, float] = (0.0, 0.0)
    #: Operations between feedback tuning passes (``engine="tuned"``;
    #: 0 disables tuning, leaving only the static control).
    tune_every: int = 0
    #: Hill-climbing rounds per tuning pass.
    tune_max_ops: int = 4
    #: Feedback collector stride: record every Nth served query.
    feedback_sample: int = 1
    #: Tuning passes score the most recent ``tune_window`` collected
    #: queries (accumulated across drains), not just the last drain —
    #: a broad sample keeps the hill-climber from overfitting one
    #: burst of the stream.
    tune_window: int = 2_000
    #: Operation mix of the ``engine="tuned"`` stream.  The defaults
    #: match :func:`repro.workload.live_workload`; the tuning preset
    #: raises the insert share so the biased inserts actually move
    #: the distribution within the stream's length.
    live_query_frac: float = 0.6
    live_insert_frac: float = 0.2

    def replace(self, **changes: Any) -> "BenchConfig":
        from dataclasses import replace

        return replace(self, **changes)


#: The CI baseline: small enough to finish in well under a minute.
QUICK_CONFIG = BenchConfig(
    name="quick",
    datasets=(("charminar", 6_000), ("nj_road", 6_000)),
    n_buckets=40,
    n_regions=10_000,
    n_queries=500,
)

#: Paper-scale sweep for manual runs (expect several minutes).
FULL_CONFIG = BenchConfig(
    name="full",
    datasets=(("charminar", 40_000), ("nj_road", 40_000)),
    n_buckets=100,
    n_regions=10_000,
    n_queries=1_000,
)

#: The serving-tier regression workload: the paper's 10 000-query
#: Charminar workload served through the sharded scatter-gather tier
#: (every bucket technique, Min-Skew shard boundaries), differentially
#: gated bit-for-bit against the single-engine union reference, plus a
#: live mutation stream checking that each mutation invalidates only
#: the owning shard.
SERVING_CONFIG = BenchConfig(
    name="serving",
    datasets=(("charminar", 6_000),),
    n_buckets=40,
    n_regions=10_000,
    n_queries=10_000,
    techniques=tuple(BUCKET_TECHNIQUES),
    engine="sharded",
    live_ops=500,
    n_shards=4,
)

#: The live-serving regression workload: each bucket technique is kept
#: in a :class:`~repro.core.maintenance.MaintainedHistogram`, an
#: interleaved query/insert/delete stream is replayed against it
#: through the serving engine (auto-refresh on drift), and the final
#: batch answers are checked bit-identical to a freshly built engine
#: over the same buckets — the epoch-consistency gate CI asserts.
LIVE_CONFIG = BenchConfig(
    name="live",
    datasets=(("charminar", 4_000),),
    n_buckets=40,
    n_regions=2_500,
    n_queries=500,
    techniques=("Min-Skew", "Equi-Count", "Grid"),
    engine="live",
    live_ops=800,
)

#: The front-door latency/throughput workload: the paper's 10 000-query
#: Charminar workload issued as single-rect frames by four pipelined
#: client processes against the sharded scatter-gather tier, coalesced
#: by the micro-batcher into engine batches, and compared against the
#: *same* server pinned to ``max_batch=1`` (single-query-per-call
#: dispatch).  The committed baseline is the micro-batching speedup CI
#: quotes; answers on both paths are gated bit-for-bit against the
#: direct router call (``server.server_matches``).
SERVER_CONFIG = BenchConfig(
    name="server",
    datasets=(("charminar", 6_000),),
    n_buckets=40,
    n_regions=10_000,
    n_queries=10_000,
    techniques=("Min-Skew",),
    engine="server",
    n_shards=4,
    concurrency=4,
    server_max_batch=128,
    server_window=128,
)

#: The self-tuning regression workload: a drifting live stream (every
#: insert biased toward one corner, so the hotspot migrates) is
#: replayed against two identically built Min-Skew histograms — one
#: serving through an engine with a feedback collector attached and
#: periodically re-split by :class:`repro.tuning.FeedbackTuner`, one
#: left structurally static.  Both are scored against exact ground
#: truth over the *final* data at equal bucket budget; the committed
#: baseline pins ``tuned.are_tuned`` strictly below
#: ``tuned.are_static`` (the differential CI gates on) and
#: ``tuned.tuned_matches`` (the tuned engine is bit-identical to a
#: fresh rebuild over the tuned buckets).
TUNING_CONFIG = BenchConfig(
    name="tuning",
    datasets=(("charminar", 2_000),),
    n_buckets=16,
    n_regions=2_500,
    n_queries=500,
    techniques=("Min-Skew",),
    engine="tuned",
    live_ops=6_000,
    live_drift_xy=(0.08, 0.06),
    tune_every=300,
    tune_max_ops=4,
    live_query_frac=0.5,
    live_insert_frac=0.35,
)


# ----------------------------------------------------------------------
# instrumentation overhead
# ----------------------------------------------------------------------
def _per_call_ns(action: Callable[[int], None], calls: int) -> float:
    start = time.perf_counter()
    action(calls)
    return (time.perf_counter() - start) / calls * 1e9


def measure_overhead(
    *, calls: int = 200_000, hot_path_repeats: int = 3
) -> Dict[str, float]:
    """Cost of the metrics layer itself, per call and on a hot path.

    Uses a private registry so the measurement never pollutes (or is
    polluted by) the process-wide :data:`OBS` state.  The hot-path
    numbers build the same small Min-Skew histogram with collection
    disabled and enabled (best of ``hot_path_repeats``), which is the
    end-to-end check that instrumented code costs nothing when off.
    """
    registry = MetricsRegistry(enabled=False)

    def counter_loop(n: int) -> None:
        add = registry.add
        for _ in range(n):
            add("bench.overhead")

    def timer_loop(n: int) -> None:
        timer = registry.timer
        for _ in range(n):
            with timer("bench.overhead"):
                pass

    disabled_counter = _per_call_ns(counter_loop, calls)
    disabled_timer = _per_call_ns(timer_loop, calls // 10)
    registry.enable()
    enabled_counter = _per_call_ns(counter_loop, calls)
    enabled_timer = _per_call_ns(timer_loop, calls // 10)

    data = make_dataset("charminar", 2_000)
    partitioner = MinSkewPartitioner(20, n_regions=400)

    def hot_path_seconds(enabled: bool) -> float:
        best = float("inf")
        for _ in range(hot_path_repeats):
            with OBS.scope(enabled):
                start = time.perf_counter()
                partitioner.partition(data)
                best = min(best, time.perf_counter() - start)
        return best

    return {
        "disabled_counter_ns": disabled_counter,
        "disabled_timer_ns": disabled_timer,
        "enabled_counter_ns": enabled_counter,
        "enabled_timer_ns": enabled_timer,
        "minskew_disabled_s": hot_path_seconds(False),
        "minskew_enabled_s": hot_path_seconds(True),
    }


# ----------------------------------------------------------------------
# the benchmark itself
# ----------------------------------------------------------------------
def _zero_overhead() -> Dict[str, float]:
    """Overhead section of a deterministic run (no wall-clock probes)."""
    return {
        "disabled_counter_ns": 0.0,
        "disabled_timer_ns": 0.0,
        "enabled_counter_ns": 0.0,
        "enabled_timer_ns": 0.0,
        "minskew_disabled_s": 0.0,
        "minskew_enabled_s": 0.0,
    }


def _scrub_cell(cell: Dict[str, Any]) -> Dict[str, Any]:
    """Zero the wall-clock fields of one technique record in place."""
    cell["build_seconds"] = 0.0
    cell["estimate_seconds"] = 0.0
    for key in ("scalar_seconds", "engine_seconds", "speedup"):
        if key in cell:
            cell[key] = 0.0
    live = cell.get("live")
    if isinstance(live, dict):
        live["replay_seconds"] = 0.0
    tuned = cell.get("tuned")
    if isinstance(tuned, dict):
        tuned["replay_seconds"] = 0.0
    metrics = cell.get("metrics")
    if isinstance(metrics, dict):
        metrics["timers"] = {}
    sharded = cell.get("sharded")
    if isinstance(sharded, dict):
        sharded["single_engine_seconds"] = 0.0
        sharded["replay_seconds"] = 0.0
    server = cell.get("server")
    if isinstance(server, dict):
        # batch composition depends on event-loop timing, so every
        # derived quantity is wall-clock-tainted except the request
        # count, the knobs, and the bit-identity verdict
        for key in (
            "batches", "avg_batch", "shed",
            "batched_seconds", "batched_qps", "p50_ms", "p99_ms",
            "single_seconds", "single_qps",
            "single_p50_ms", "single_p99_ms", "speedup",
        ):
            server[key] = 0 if key in ("batches", "shed") else 0.0
    return cell


def _bench_sharded_technique(
    technique: str,
    data: "RectSet",
    queries: "RectSet",
    truth: "npt.NDArray[np.float64]",
    config: BenchConfig,
) -> Dict[str, Any]:
    """One technique's sharded scatter-gather cell.

    The technique's partitioner runs once per shard (the bucket budget
    is apportioned by :func:`repro.serving.shard_quotas`); the query
    workload is served through a :class:`~repro.serving.ShardRouter`
    and differentially gated bit-for-bit against the
    :class:`~repro.serving.ShardUnionEstimator` single-engine
    reference (``sharded.sharded_matches``).  With ``config.live_ops``
    set, an interleaved mutation stream is then routed through the
    router and the cell records whether every mutation moved the
    owning shard's epoch *only*
    (``sharded.owner_only_invalidation``) — followed by a second
    differential gate over the post-stream state.

    The cell closes with a ``sharded.recovery`` block: a worker-kill
    chaos run (write-ahead-logged shards, SIGKILLed workers, WAL
    replay on respawn) recording request survival, respawns, replayed
    ops, the degraded-dispatch fraction, and whether the recovered
    tier matched the union reference bit-for-bit.  Every field is
    logical/deterministic, so the block is stable across machines.
    """
    from ..serving import ShardedHistogram, ShardRouter

    OBS.reset()
    start = time.perf_counter()
    sharded = ShardedHistogram.build(
        data,
        n_shards=config.n_shards,
        n_buckets=config.n_buckets,
        partitioner_factory=lambda quota: build_partitioner(
            technique, quota, n_regions=config.n_regions
        ),
        n_regions=config.n_regions,
    )
    build_seconds = time.perf_counter() - start

    router = ShardRouter(sharded, workers=config.shard_workers)
    try:
        start = time.perf_counter()
        served = router.estimate_batch(queries)
        estimate_seconds = time.perf_counter() - start
        serve_counters = dict(OBS.snapshot()["counters"])

        union = sharded.union_estimator()
        start = time.perf_counter()
        reference = union.estimate_batch(queries)
        single_engine_seconds = time.perf_counter() - start
        sharded_matches = bool(np.array_equal(served, reference))

        mutations = 0
        owner_only = True
        n_ops = 0
        replay_seconds = 0.0
        if config.live_ops > 0:
            ops = live_workload(
                data, config.qsize, config.live_ops,
                seed=config.live_seed,
            )
            n_ops = len(ops)
            start = time.perf_counter()
            for op in ops:
                if op.kind == "query":
                    router.estimate(op.rect)
                    continue
                before = sharded.epochs()
                if op.kind == "insert":
                    sid = router.insert(op.rect)
                    moved = True
                else:
                    sid, moved = router.delete(op.rect)
                mutations += 1
                after = sharded.epochs()
                for i, (b, a) in enumerate(zip(before, after)):
                    if (a != b) != (i == sid and moved):
                        owner_only = False
            replay_seconds = time.perf_counter() - start
            post = router.estimate_batch(queries)
            sharded_matches = sharded_matches and bool(
                np.array_equal(post, union.estimate_batch(queries))
            )
        size_words = int(router.size_words())
        shard_sizes = [len(s) for s in sharded.shards]
        shard_buckets = [len(s.buckets) for s in sharded.shards]
    finally:
        router.close()

    n_queries = len(queries)
    fanout = int(serve_counters.get("serving.shard.fanout", 0))
    skipped = int(serve_counters.get("serving.shard.skipped", 0))
    subqueries = int(
        serve_counters.get("serving.shard.subqueries", 0)
    )
    summary = error_summary(truth, served)
    snapshot = OBS.snapshot()
    counters = snapshot["counters"]

    # fault-tolerance cell, run after the snapshot above because the
    # harness resets the (global) OBS registry: SIGKILL workers
    # mid-stream over a fresh write-ahead-logged tier and record the
    # recovery contract (all logical/deterministic quantities —
    # nothing to scrub)
    from ..resilience.chaos import WorkerKillConfig, \
        run_worker_kill_chaos

    kill_report = run_worker_kill_chaos(
        WorkerKillConfig(
            n_shards=config.n_shards,
            n_buckets=config.n_buckets,
            n_regions=min(config.n_regions, 512),
            workers=max(2, config.shard_workers),
            n_batches=6,
            batch_size=25,
            qsize=config.qsize,
            query_seed=config.query_seed,
        ),
        data=data,
        partitioner_factory=lambda quota: build_partitioner(
            technique, quota,
            n_regions=min(config.n_regions, 512),
        ),
    )
    recovery = {
        "requests": kill_report.requests,
        "survived": kill_report.survived,
        "kills": kill_report.kills,
        "respawns": kill_report.respawns,
        "replayed_ops": kill_report.replayed_ops,
        "degraded_fraction": kill_report.degraded_fraction,
        "recovered_matches": (
            kill_report.recovered_matches
            and kill_report.digests_match
        ),
    }
    return {
        "technique": technique,
        "build_seconds": build_seconds,
        "estimate_seconds": estimate_seconds,
        "size_words": size_words,
        "accuracy": {
            "average_relative_error": summary.average_relative_error,
            "mean_per_query_error": summary.mean_per_query_error,
            "median_per_query_error": summary.median_per_query_error,
            "rmse": summary.rmse,
            "n_queries": summary.n_queries,
        },
        "metrics": snapshot,
        "sharded": {
            "n_shards": int(sharded.n_shards),
            "workers": int(config.shard_workers),
            "shard_sizes": shard_sizes,
            "shard_buckets": shard_buckets,
            "fanout": fanout,
            "skipped": skipped,
            "subqueries": subqueries,
            "fanout_rate": (
                subqueries / (n_queries * sharded.n_shards)
                if n_queries else 0.0
            ),
            "avg_shards_per_query": (
                subqueries / n_queries if n_queries else 0.0
            ),
            "single_engine_seconds": single_engine_seconds,
            "replay_seconds": replay_seconds,
            "ops": n_ops,
            "mutations": mutations,
            "owner_only_invalidation": owner_only,
            "shard_epoch_bumps": [
                int(counters.get(
                    f"serving.shard.epoch_bumps.s{i}", 0
                ))
                for i in range(sharded.n_shards)
            ],
            "routed_mutations": int(
                counters.get("serving.shard.routed_mutations", 0)
            ),
            "sharded_matches": sharded_matches,
            "recovery": recovery,
        },
    }


def _bench_live_technique(
    technique: str,
    data: "RectSet",
    queries: "RectSet",
    config: BenchConfig,
) -> Dict[str, Any]:
    """One technique's live-serving cell.

    The technique's partitioner seeds a
    :class:`~repro.core.maintenance.MaintainedHistogram`, which a
    :class:`~repro.serving.BatchServingEngine` serves through a
    :class:`~repro.estimators.MaintainedEstimator` while the
    interleaved ``live_workload`` stream mutates it (refreshing
    whenever drift crosses the histogram's threshold).  The cell's
    ``live.live_matches`` field records the staleness contract: after
    the whole stream, the engine's batch answers — cache, index, and
    kernel snapshot included — are bit-identical to a freshly built
    engine over the same buckets.  Accuracy is scored against exact
    ground truth over the *final* data, which is what the histogram
    summarises by then.
    """
    from ..core.maintenance import MaintainedHistogram
    from ..estimators import BucketEstimator, MaintainedEstimator
    from ..serving import BatchServingEngine

    OBS.reset()
    start = time.perf_counter()
    hist = MaintainedHistogram(
        build_partitioner(
            technique, config.n_buckets, n_regions=config.n_regions
        ),
        data,
        drift_threshold=config.live_drift,
    )
    build_seconds = time.perf_counter() - start

    estimator = MaintainedEstimator(hist, name=technique)
    engine = BatchServingEngine(estimator)
    ops = live_workload(
        data, config.qsize, config.live_ops, seed=config.live_seed
    )
    counts = {"query": 0, "insert": 0, "delete": 0}
    start = time.perf_counter()
    for op in ops:
        counts[op.kind] += 1
        if op.kind == "query":
            engine.estimate(op.rect)
        elif op.kind == "insert":
            hist.insert(op.rect)
        else:
            hist.delete(op.rect)
        if op.kind != "query" and hist.needs_refresh:
            hist.refresh()
    replay_seconds = time.perf_counter() - start

    start = time.perf_counter()
    served = engine.estimate_batch(queries)
    estimate_seconds = time.perf_counter() - start

    # the differential gate: a from-scratch engine over the final
    # buckets must agree bit-for-bit with the long-lived one
    fresh = BatchServingEngine(
        BucketEstimator(list(hist.buckets), name=technique)
    )
    live_matches = bool(
        np.array_equal(served, fresh.estimate_batch(queries))
    )

    final_data = hist.current_data()
    truth = ExperimentRunner(final_data).true_counts(queries)
    summary = error_summary(truth, served)
    snapshot = OBS.snapshot()
    counters = snapshot["counters"]
    return {
        "technique": technique,
        "build_seconds": build_seconds,
        "estimate_seconds": estimate_seconds,
        "size_words": int(estimator.size_words()),
        "accuracy": {
            "average_relative_error": summary.average_relative_error,
            "mean_per_query_error": summary.mean_per_query_error,
            "median_per_query_error": summary.median_per_query_error,
            "rmse": summary.rmse,
            "n_queries": summary.n_queries,
        },
        "metrics": snapshot,
        "live": {
            "ops": len(ops),
            "queries": counts["query"],
            "inserts": counts["insert"],
            "deletes": counts["delete"],
            "refreshes": int(
                counters.get("maintenance.refreshes", 0)
            ),
            "final_epoch": int(hist.epoch),
            "final_n": int(len(final_data)),
            "cache_flushes": int(
                engine.cache.flushes if engine.cache else 0
            ),
            "estimator_rebuilds": int(
                counters.get("serving.epoch.estimator_rebuilds", 0)
            ),
            "index_rebuilds": int(
                counters.get("serving.epoch.index_rebuilds", 0)
            ),
            "replay_seconds": replay_seconds,
            "live_matches": live_matches,
        },
    }


def _bench_tuned_technique(
    technique: str,
    data: "RectSet",
    config: BenchConfig,
) -> Dict[str, Any]:
    """One technique's query-feedback self-tuning cell.

    Two identically built maintained histograms replay the same
    *drifting* live stream (``config.live_drift_xy`` biases every
    insert, so the hotspot migrates instead of diffusing).  The tuned
    side serves through an engine with a
    :class:`~repro.tuning.FeedbackCollector` attached; every
    ``config.tune_every`` operations the collected queries are drained
    and a :class:`~repro.tuning.FeedbackTuner` pass re-splits the
    worst-estimating buckets (merging cold accurate neighbours to pay
    for them).  The static side answers the same queries but is never
    restructured.  Neither side auto-refreshes: the differential
    isolates what feedback tuning buys at a fixed bucket budget.

    Scoring replays the paper's query model over the *final* data —
    the drifted reality both histograms now summarise — against the
    exact counting oracle.  ``tuned.tuned_matches`` is the epoch
    contract: the long-lived tuned engine's batch answers must be
    bit-identical to a freshly built engine over the tuned buckets.
    ``tuned.count_conserved`` checks the tuned summaries still account
    for exactly the covered rows after interleaved tuning and
    maintenance.
    """
    from ..core.bucket import assign_by_center
    from ..core.maintenance import MaintainedHistogram
    from ..estimators import BucketEstimator, MaintainedEstimator
    from ..serving import BatchServingEngine
    from ..tuning import FeedbackCollector, FeedbackTuner

    OBS.reset()
    start = time.perf_counter()

    def built() -> MaintainedHistogram:
        return MaintainedHistogram(
            build_partitioner(
                technique, config.n_buckets, n_regions=config.n_regions
            ),
            data,
            drift_threshold=config.live_drift,
        )

    tuned_hist = built()
    static_hist = built()
    build_seconds = time.perf_counter() - start

    collector = FeedbackCollector(sample_every=config.feedback_sample)
    estimator = MaintainedEstimator(tuned_hist, name=technique)
    engine = BatchServingEngine(estimator, feedback=collector)
    static_engine = BatchServingEngine(
        MaintainedEstimator(static_hist, name=technique)
    )
    tuner = FeedbackTuner(tuned_hist, max_ops=config.tune_max_ops)

    ops = live_workload(
        data,
        config.qsize,
        config.live_ops,
        seed=config.live_seed,
        drift=config.live_drift_xy,
        query_frac=config.live_query_frac,
        insert_frac=config.live_insert_frac,
    )
    counts = {"query": 0, "insert": 0, "delete": 0}
    window: List["npt.NDArray[np.float64]"] = []
    start = time.perf_counter()
    for i, op in enumerate(ops, 1):
        counts[op.kind] += 1
        if op.kind == "query":
            engine.estimate(op.rect)
            static_engine.estimate(op.rect)
        elif op.kind == "insert":
            tuned_hist.insert(op.rect)
            static_hist.insert(op.rect)
        else:
            tuned_hist.delete(op.rect)
            static_hist.delete(op.rect)
        if config.tune_every and i % config.tune_every == 0:
            feedback, _ = collector.drain()
            if len(feedback):
                window.append(feedback.coords)
                sample = np.concatenate(window)[-config.tune_window:]
                tuner.tune(RectSet(sample, copy=False, validate=False))
    replay_seconds = time.perf_counter() - start

    # score both sides where the data *ended up*: the paper's query
    # model regenerated over the post-drift rows
    final_data = tuned_hist.current_data()
    eval_queries = range_queries(
        final_data, config.qsize, config.n_queries,
        seed=config.query_seed,
    )
    start = time.perf_counter()
    served = engine.estimate_batch(eval_queries)
    estimate_seconds = time.perf_counter() - start
    served_static = static_engine.estimate_batch(eval_queries)

    fresh = BatchServingEngine(
        BucketEstimator(list(tuned_hist.buckets), name=technique)
    )
    tuned_matches = bool(
        np.array_equal(served, fresh.estimate_batch(eval_queries))
    )

    boxes = [b.bbox for b in tuned_hist.buckets]
    covered = int((assign_by_center(final_data, boxes) >= 0).sum())
    total_count = int(round(sum(b.count for b in tuned_hist.buckets)))

    truth = ExperimentRunner(final_data).true_counts(eval_queries)
    summary = error_summary(truth, served)
    are_tuned = summary.average_relative_error
    are_static = error_summary(
        truth, served_static
    ).average_relative_error

    snapshot = OBS.snapshot()
    counters = snapshot["counters"]
    return {
        "technique": technique,
        "build_seconds": build_seconds,
        "estimate_seconds": estimate_seconds,
        "size_words": int(estimator.size_words()),
        "accuracy": {
            "average_relative_error": summary.average_relative_error,
            "mean_per_query_error": summary.mean_per_query_error,
            "median_per_query_error": summary.median_per_query_error,
            "rmse": summary.rmse,
            "n_queries": summary.n_queries,
        },
        "metrics": snapshot,
        "tuned": {
            "ops": len(ops),
            "queries": counts["query"],
            "inserts": counts["insert"],
            "deletes": counts["delete"],
            "tuning_passes": int(counters.get("tuning.passes", 0)),
            "tuning_pairs": int(counters.get("tuning.splits", 0)),
            "feedback_observed": int(
                counters.get("tuning.observed", 0)
            ),
            "feedback_scored": int(counters.get("tuning.scored", 0)),
            "final_epoch": int(tuned_hist.epoch),
            "final_n": int(len(final_data)),
            "n_buckets_static": int(len(static_hist.buckets)),
            "n_buckets_tuned": int(len(tuned_hist.buckets)),
            "count_conserved": bool(total_count == covered),
            "are_static": float(are_static),
            "are_tuned": float(are_tuned),
            "improvement": float(are_static - are_tuned),
            "replay_seconds": replay_seconds,
            "tuned_matches": tuned_matches,
        },
    }


def _frontdoor_client(
    host: str,
    port: int,
    coords: "npt.NDArray[np.float64]",
    rows: "npt.NDArray[np.int64]",
    window: int,
    out_q: Any,
    barrier: Any,
) -> None:
    """One load-generator process: windowed pipelining over a raw
    socket.

    Sends ``window`` single-rect frames back to back, then reads that
    window's responses before sending the next — the closed-loop
    pipelined client every serving benchmark models.  Runs in a child
    process so client-side CPU (framing, JSON) never contends with the
    server's event loop for the GIL; the barrier keeps process startup
    out of the measured window.  Per-request latency is the gap from
    the window's send to that response's arrival.
    """
    import socket

    from ..serving.frontdoor import encode_frame

    sock = socket.create_connection((host, port))
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    n = len(rows)
    values = np.zeros(n, dtype=np.float64)
    latencies = np.zeros(n, dtype=np.float64)
    position = {int(rid): k for k, rid in enumerate(rows)}
    barrier.wait()
    try:
        buffer = bytearray()
        for start in range(0, n, window):
            chunk = rows[start:start + window]
            frames = b"".join(
                encode_frame({
                    "id": int(rid),
                    "op": "estimate",
                    "rect": [
                        float(v) for v in coords[position[int(rid)]]
                    ],
                })
                for rid in chunk
            )
            t0 = time.perf_counter()
            sock.sendall(frames)
            got = 0
            while got < len(chunk):
                data = sock.recv(1 << 16)
                if not data:
                    raise ConnectionError(
                        "front door closed the connection"
                    )
                buffer.extend(data)
                while got < len(chunk) and len(buffer) >= 4:
                    length = int.from_bytes(buffer[:4], "big")
                    if len(buffer) < 4 + length:
                        break
                    response = json.loads(bytes(buffer[4:4 + length]))
                    del buffer[:4 + length]
                    arrived = time.perf_counter()
                    k = position[int(response["id"])]
                    values[k] = float(response["value"])
                    latencies[k] = arrived - t0
                    got += 1
    finally:
        sock.close()
    out_q.put((rows, values, latencies))


def _frontdoor_run(
    backend: Any,
    queries: "RectSet",
    *,
    concurrency: int,
    max_batch: int,
    wait_steps: int,
    window: int,
) -> Tuple["npt.NDArray[np.float64]", "npt.NDArray[np.float64]",
           float, Dict[str, float]]:
    """Serve ``queries`` through a front door over ``backend``.

    ``concurrency`` client processes split the workload and drive it
    with ``window``-deep pipelining (:func:`_frontdoor_client`).
    Returns ``(values, per-request latencies in seconds, wall seconds,
    batcher stats)``.  The caller passes a stateless backend (shard
    caches off) so the batched and the ``max_batch=1`` run see
    identical per-dispatch work regardless of order.
    """
    import multiprocessing as mp

    from ..serving import FrontDoorThread

    coords = queries.coords
    n = len(queries)
    front = FrontDoorThread(
        backend, max_batch=max_batch, max_wait_steps=wait_steps
    )
    front.start()
    try:
        ctx = mp.get_context("spawn")
        out_q = ctx.Queue()
        n_clients = max(1, min(concurrency, n))
        barrier = ctx.Barrier(n_clients + 1)
        slices = np.array_split(
            np.arange(n, dtype=np.int64), n_clients
        )
        procs = [
            ctx.Process(
                target=_frontdoor_client,
                args=(front.host, front.port, coords[rows], rows,
                      max(1, window), out_q, barrier),
            )
            for rows in slices
        ]
        for proc in procs:
            proc.start()
        barrier.wait()
        t0 = time.perf_counter()
        values = np.zeros(n, dtype=np.float64)
        latencies = np.zeros(n, dtype=np.float64)
        for _ in procs:
            rows, part_values, part_latencies = out_q.get()
            values[rows] = part_values
            latencies[rows] = part_latencies
        seconds = time.perf_counter() - t0
        for proc in procs:
            proc.join(timeout=30.0)
        stats = front.stats()
    finally:
        front.stop()
    return values, latencies, seconds, stats


def _bench_server_technique(
    technique: str,
    data: "RectSet",
    queries: "RectSet",
    truth: "npt.NDArray[np.float64]",
    config: BenchConfig,
) -> Dict[str, Any]:
    """One technique's front-door latency/throughput cell.

    The backend is the sharded scatter-gather tier (the same layout
    ``engine="sharded"`` benches, shard caches off so both runs are
    stateless).  Two complete runs over the same workload: the
    micro-batched front door (``config.server_max_batch``,
    ``config.concurrency`` pipelined client processes) and the *same*
    server path pinned to ``max_batch=1`` — the honest
    single-query-per-call dispatch baseline, since both pay identical
    framing, event-loop, and client costs and differ only in
    coalescing.  ``server.speedup`` is the qps ratio;
    ``server.server_matches`` gates both runs bit-for-bit against a
    direct ``router.estimate_batch`` call.  Latency percentiles are
    client-observed (window send to reply arrival), in milliseconds.
    The cell's ``metrics`` cover the build and the batched run only.
    """
    from ..serving import ShardedHistogram, ShardRouter

    OBS.reset()
    start = time.perf_counter()
    sharded = ShardedHistogram.build(
        data,
        n_shards=config.n_shards,
        n_buckets=config.n_buckets,
        partitioner_factory=lambda quota: build_partitioner(
            technique, quota, n_regions=config.n_regions
        ),
        n_regions=config.n_regions,
        cache_size=0,
    )
    build_seconds = time.perf_counter() - start

    router = ShardRouter(sharded, workers=1)
    try:
        reference = router.estimate_batch(queries)

        batched_values, batched_lat, batched_seconds, stats = \
            _frontdoor_run(
                router, queries,
                concurrency=config.concurrency,
                max_batch=config.server_max_batch,
                wait_steps=config.server_wait_steps,
                window=config.server_window,
            )
        # the cell's metrics cover the batched run only; the baseline
        # below must not pool its counters into them
        metrics = OBS.snapshot()
        single_values, single_lat, single_seconds, _ = _frontdoor_run(
            router, queries,
            concurrency=config.concurrency,
            max_batch=1,
            wait_steps=0,
            window=config.server_window,
        )
        size_words = int(router.size_words())
    finally:
        router.close()

    n = len(queries)
    server_matches = bool(
        np.array_equal(batched_values, reference)
        and np.array_equal(single_values, reference)
    )
    summary = error_summary(truth, batched_values)
    return {
        "technique": technique,
        "build_seconds": build_seconds,
        "estimate_seconds": batched_seconds,
        "size_words": size_words,
        "accuracy": {
            "average_relative_error": summary.average_relative_error,
            "mean_per_query_error": summary.mean_per_query_error,
            "median_per_query_error": summary.median_per_query_error,
            "rmse": summary.rmse,
            "n_queries": summary.n_queries,
        },
        "metrics": metrics,
        "server": {
            "concurrency": int(config.concurrency),
            "max_batch": int(config.server_max_batch),
            "wait_steps": int(config.server_wait_steps),
            "window": int(config.server_window),
            "requests": int(n),
            "batches": int(stats["batches"]),
            "avg_batch": float(stats["avg_batch"]),
            "shed": int(stats["shed"]),
            "batched_seconds": batched_seconds,
            "batched_qps": (
                n / batched_seconds if batched_seconds > 0 else 0.0
            ),
            "p50_ms": float(np.percentile(batched_lat, 50) * 1e3),
            "p99_ms": float(np.percentile(batched_lat, 99) * 1e3),
            "single_seconds": single_seconds,
            "single_qps": (
                n / single_seconds if single_seconds > 0 else 0.0
            ),
            "single_p50_ms": float(
                np.percentile(single_lat, 50) * 1e3
            ),
            "single_p99_ms": float(
                np.percentile(single_lat, 99) * 1e3
            ),
            "speedup": (
                single_seconds / batched_seconds
                if batched_seconds > 0 else 0.0
            ),
            "server_matches": server_matches,
        },
    }


def _bench_technique(
    technique: str,
    data: "RectSet",
    queries: "RectSet",
    truth: "npt.NDArray[np.float64]",
    config: BenchConfig,
) -> Dict[str, Any]:
    """Build + evaluate one technique with a fresh metrics window.

    With ``config.engine == "batch"`` the workload is served through
    :class:`repro.serving.BatchServingEngine` (cold cache, auto-built
    bucket index) and the cell additionally records the scalar
    one-query-at-a-time loop's wall clock (``scalar_seconds``,
    measured *before* the index is attached — the pre-serving
    reference path), the resulting ``speedup``, and whether the two
    paths agreed to exact float equality (``scalar_matches``).

    ``config.engine == "live"`` cells are built by
    :func:`_bench_live_technique` instead (the ``truth`` argument is
    unused there — live cells score against the post-stream data).
    """
    if config.engine == "live":
        return _bench_live_technique(technique, data, queries, config)
    if config.engine == "tuned":
        return _bench_tuned_technique(technique, data, config)
    if config.engine == "sharded":
        return _bench_sharded_technique(
            technique, data, queries, truth, config
        )
    if config.engine == "server":
        return _bench_server_technique(
            technique, data, queries, truth, config
        )
    OBS.reset()
    start = time.perf_counter()
    estimator = build_estimator(
        technique,
        data,
        config.n_buckets,
        n_regions=config.n_regions,
    )
    build_seconds = time.perf_counter() - start

    extra: Dict[str, Any] = {}
    if config.engine == "batch":
        from ..serving import BatchServingEngine

        start = time.perf_counter()
        scalar = np.array(
            [estimator.estimate(q) for q in queries], dtype=np.float64
        )
        scalar_seconds = time.perf_counter() - start

        # the vectorised kernel itself: this is the speedup CI gates on
        start = time.perf_counter()
        estimates = estimator.estimate_batch(queries)
        estimate_seconds = time.perf_counter() - start

        # the full serving stack (cold cache + auto-attached index) on
        # the same workload; its per-query bookkeeping is Python-side,
        # so it is slower than the bare kernel but must still beat the
        # scalar loop
        served = BatchServingEngine(estimator)
        start = time.perf_counter()
        engine_estimates = served.estimate_batch(queries)
        engine_seconds = time.perf_counter() - start
        extra = {
            "scalar_seconds": scalar_seconds,
            "engine_seconds": engine_seconds,
            "speedup": (
                scalar_seconds / estimate_seconds
                if estimate_seconds > 0.0 else 0.0
            ),
            "scalar_matches": bool(
                np.array_equal(scalar, estimates)
                and np.array_equal(scalar, engine_estimates)
            ),
        }
    else:
        start = time.perf_counter()
        estimates = estimator.estimate_many(queries)
        estimate_seconds = time.perf_counter() - start

    summary = error_summary(truth, estimates)
    cell = {
        "technique": technique,
        "build_seconds": build_seconds,
        "estimate_seconds": estimate_seconds,
        "size_words": int(estimator.size_words()),
        "accuracy": {
            "average_relative_error": summary.average_relative_error,
            "mean_per_query_error": summary.mean_per_query_error,
            "median_per_query_error": summary.median_per_query_error,
            "rmse": summary.rmse,
            "n_queries": summary.n_queries,
        },
        "metrics": OBS.snapshot(),
    }
    cell.update(extra)
    return cell


def _bench_cell_task(
    task: Tuple[str, "RectSet", "RectSet",
                "npt.NDArray[np.float64]", BenchConfig],
) -> Dict[str, Any]:
    """Worker-side cell evaluation for parallel bench runs.

    Enables the worker's registry itself (``parallel_map`` snapshots a
    worker's registry for the *merge* path, but bench cells carry
    their own per-cell snapshot instead).
    """
    technique, data, queries, truth, config = task
    OBS.enable()
    return _bench_technique(technique, data, queries, truth, config)


def _bench_dataset(
    dataset: str,
    n: int,
    config: BenchConfig,
    *,
    store: Optional[CheckpointStore] = None,
    deterministic: bool = False,
) -> Dict[str, Any]:
    meta_key = f"{dataset}:{n}:meta"
    cells: Dict[str, Any] = {}
    meta: Optional[Dict[str, Any]] = None
    if store is not None:
        meta = store.load(meta_key)
        for technique in config.techniques:
            cached = store.load(f"{dataset}:{n}:{technique}")
            if cached is not None:
                cells[technique] = cached
    missing = [t for t in config.techniques if t not in cells]

    if missing or meta is None:
        data = make_dataset(dataset, n)
        queries = range_queries(
            data, config.qsize, config.n_queries, seed=config.query_seed
        )
        runner = ExperimentRunner(data)

        OBS.reset()
        start = time.perf_counter()
        truth = runner.true_counts(queries)
        truth_seconds = time.perf_counter() - start

        meta = {
            "dataset": dataset,
            "n": int(len(data)),
            "n_queries": int(len(queries)),
            "qsize": config.qsize,
            "truth_seconds": 0.0 if deterministic else truth_seconds,
        }
        if store is not None:
            store.save(meta_key, meta)
        if config.workers > 1:
            from ..serving import parallel_map

            tasks = [
                (technique, data, queries, truth, config)
                for technique in missing
            ]
            fresh = parallel_map(
                _bench_cell_task, tasks, workers=config.workers
            )
        else:
            fresh = [
                _bench_technique(technique, data, queries, truth,
                                 config)
                for technique in missing
            ]
        for technique, cell in zip(missing, fresh):
            if deterministic:
                cell = _scrub_cell(cell)
            cells[technique] = cell
            if store is not None:
                store.save(f"{dataset}:{n}:{technique}", cell)

    record = dict(meta)
    record["techniques"] = [cells[t] for t in config.techniques]
    return record


def run_bench(
    config: BenchConfig = QUICK_CONFIG,
    *,
    checkpoint_dir: Union[str, Path, None] = None,
    deterministic: bool = False,
) -> Dict[str, Any]:
    """Run the workload and return the (validated) artifact document.

    With ``checkpoint_dir``, completed (dataset, technique) cells are
    persisted as they finish and reused on the next invocation.  With
    ``deterministic``, every wall-clock field is zeroed so the artifact
    depends only on the config and seeds (and hence an interrupted and
    resumed run is byte-identical to a fresh one).
    """
    start = time.perf_counter()
    store: Optional[CheckpointStore] = None
    if checkpoint_dir is not None:
        fingerprint = config_fingerprint(
            {
                "schema_version": SCHEMA_VERSION,
                "name": config.name,
                "datasets": [list(pair) for pair in config.datasets],
                "n_buckets": config.n_buckets,
                "n_regions": config.n_regions,
                "n_queries": config.n_queries,
                "qsize": config.qsize,
                "query_seed": config.query_seed,
                "techniques": list(config.techniques),
                "engine": config.engine,
                "live_ops": config.live_ops,
                "live_seed": config.live_seed,
                "live_drift": config.live_drift,
                "n_shards": config.n_shards,
                "shard_workers": config.shard_workers,
                "concurrency": config.concurrency,
                "server_max_batch": config.server_max_batch,
                "server_wait_steps": config.server_wait_steps,
                "server_window": config.server_window,
                "live_drift_xy": list(config.live_drift_xy),
                "tune_every": config.tune_every,
                "tune_max_ops": config.tune_max_ops,
                "feedback_sample": config.feedback_sample,
                "tune_window": config.tune_window,
                "live_query_frac": config.live_query_frac,
                "live_insert_frac": config.live_insert_frac,
                "deterministic": deterministic,
            }
        )
        store = CheckpointStore(checkpoint_dir, fingerprint)

    overhead = _zero_overhead() if deterministic else measure_overhead()

    datasets: List[Dict[str, Any]] = []
    with OBS.scope():
        try:
            for dataset, n in config.datasets:
                datasets.append(
                    _bench_dataset(
                        dataset,
                        n,
                        config,
                        store=store,
                        deterministic=deterministic,
                    )
                )
        finally:
            OBS.reset()

    doc: Dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "name": config.name,
        "created_unix": 0.0 if deterministic else time.time(),
        "config": {
            "datasets": [list(pair) for pair in config.datasets],
            "n_buckets": config.n_buckets,
            "n_regions": config.n_regions,
            "n_queries": config.n_queries,
            "qsize": config.qsize,
            "query_seed": config.query_seed,
            "techniques": list(config.techniques),
            "engine": config.engine,
            "workers": config.workers,
            "live_ops": config.live_ops,
            "live_seed": config.live_seed,
            "live_drift": config.live_drift,
            "n_shards": config.n_shards,
            "shard_workers": config.shard_workers,
            "concurrency": config.concurrency,
            "server_max_batch": config.server_max_batch,
            "server_wait_steps": config.server_wait_steps,
            "server_window": config.server_window,
            "live_drift_xy": list(config.live_drift_xy),
            "tune_every": config.tune_every,
            "tune_max_ops": config.tune_max_ops,
            "feedback_sample": config.feedback_sample,
            "tune_window": config.tune_window,
            "live_query_frac": config.live_query_frac,
            "live_insert_frac": config.live_insert_frac,
        },
        "environment": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "overhead": overhead,
        "datasets": datasets,
        "total_seconds": 0.0 if deterministic
        else time.perf_counter() - start,
    }
    validate_bench(doc)
    return doc


def write_bench(
    config: BenchConfig = QUICK_CONFIG,
    out_dir: Union[str, Path] = ".",
    *,
    checkpoint_dir: Union[str, Path, None] = None,
    deterministic: bool = False,
) -> Tuple[Dict[str, Any], Path]:
    """Run the workload and write ``BENCH_<name>.json`` to ``out_dir``.

    The artifact is written atomically (temp file + fsync + rename), so
    a crash mid-write never leaves a truncated BENCH file behind.
    """
    doc = run_bench(
        config,
        checkpoint_dir=checkpoint_dir,
        deterministic=deterministic,
    )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"BENCH_{config.name}.json"
    atomic_write_text(
        path, json.dumps(doc, indent=2, sort_keys=True) + "\n"
    )
    return doc, path
