"""Batch query serving: the production-path layer over the estimators.

The paper's estimators answer one query at a time; a serving system
answers *workloads*.  This package provides the pieces that make that
fast without changing a single answer:

* :class:`QueryCache` — an LRU result cache keyed by canonicalised
  query rectangles, with hit/miss/eviction counters under
  ``serving.cache.*``;
* :class:`BucketIndex` — a uniform integral-grid over (inflated)
  bucket MBRs, falling back to an R*-tree of buckets, that prunes the
  per-query bucket scan from O(buckets) to near O(answer);
* :class:`BatchServingEngine` — cache → index → vectorised kernel →
  fallback chain, wrapped behind the ordinary
  :class:`~repro.estimators.SelectivityEstimator` interface;
* :func:`parallel_map` — a deterministic chunked
  ``ProcessPoolExecutor`` mapper (order-preserving, metrics-merging)
  used by :meth:`repro.eval.ExperimentRunner.evaluate_sweep` and the
  bench harness to parallelise sweeps across techniques and datasets;
* the **sharded scatter-gather tier** — :class:`ShardPlan` (Min-Skew
  as the shard-boundary algorithm), :class:`ShardedHistogram` (one
  live histogram + kernel snapshot per shard, independent epochs),
  :class:`ShardRouter` (clip, fan out inline or over a
  :class:`ShardWorkerPool` of pinned workers, sum partials), and
  :class:`ShardUnionEstimator` (the single-engine differential
  reference);
* the **micro-batching front door** — :class:`MicroBatcher` (the
  sans-IO coalescing core: FIFO queue, dual size/logical-wait trigger
  on a :class:`~repro.resilience.StepClock`, mutation barriers,
  bounded admission with a typed
  :class:`~repro.errors.OverloadedError` shed) and :class:`FrontDoor`
  (the asyncio TCP ingress speaking length-prefixed JSON frames, with
  :class:`FrontDoorClient` / :class:`FrontDoorThread` as its client
  harnesses) — concurrent single-rect clients coalesce into the same
  engine batches, bit-identical to calling the engine directly;
* the **fault-tolerance layer** over that tier — the
  :class:`ShardWorkerPool` supervises its workers (logical reply
  deadlines, typed :class:`~repro.errors.ShardWorkerError`,
  deterministic respawn), :class:`ShardWAL` journals every shard
  mutation with periodic checkpoints so a respawned worker replays
  back to a bit-identical histogram (:func:`attach_wals` /
  :func:`wal_recovery`), and :class:`ShardHealth` drives the router's
  per-shard quarantine state machine (healthy → suspect → quarantined
  → recovering) with degraded ``Uniform@s<id>`` partials for shards
  it cannot reach.

The serving fast paths are locked down by a differential test suite:
batch equals the scalar loop to exact float equality, cache-on equals
cache-off, a ``workers=4`` sweep is byte-identical to ``workers=1``,
and the sharded tier's answers equal the single-engine reference
bit-for-bit.
"""

from .batcher import MicroBatcher, PendingReply
from .cache import QueryCache, canonical_key
from .engine import BatchServingEngine
from .frontdoor import (
    FrontDoor,
    FrontDoorClient,
    FrontDoorThread,
    encode_frame,
)
from .index import BucketIndex
from .parallel import ShardWorkerPool, parallel_map
from .router import ShardRouter
from .shard import (
    HistogramShard,
    ShardedHistogram,
    ShardPlan,
    ShardUnionEstimator,
    shard_quotas,
)
from .supervision import HEALTH_STATES, ShardHealth
from .wal import ShardWAL, attach_wals, wal_recovery

__all__ = [
    "QueryCache",
    "canonical_key",
    "BucketIndex",
    "BatchServingEngine",
    "MicroBatcher",
    "PendingReply",
    "FrontDoor",
    "FrontDoorClient",
    "FrontDoorThread",
    "encode_frame",
    "parallel_map",
    "ShardWorkerPool",
    "ShardPlan",
    "HistogramShard",
    "ShardedHistogram",
    "ShardUnionEstimator",
    "ShardRouter",
    "shard_quotas",
    "ShardHealth",
    "HEALTH_STATES",
    "ShardWAL",
    "attach_wals",
    "wal_recovery",
]
